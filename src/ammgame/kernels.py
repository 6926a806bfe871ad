"""Numerical hot loops: the DP sweep, the measure pushforward and LVR paths.

The backward dynamic-programming sweep, the forward measure pushforward, and
the rebalancing/drain accumulator over LVR paths are the only loops in the
package that are hot enough to matter. Each is written once, in vectorized
numpy.

The DP and the pushforward are two sides of one transition matrix T, built
by ``transition_operator``. From node x under control atom a, the next state
is sampled at x + a*dt + sigma*sqrt(dt)*z_q for the quadrature nodes z_q, and
each sample is split linearly between the two grid nodes around it
(``grid_cell``, the one interpolation rule). Samples outside the grid clamp
to the edge node (constant extrapolation, the usual truncation of an
unbounded diffusion onto a bounded grid). Row x*na + a of T is that law, so
the DP's expectation is T @ V and the pushforward takes mu @ T on the rows
the policy selects: the pushforward is the transpose of the DP's expectation.
T depends on neither time nor the environment, so the solver builds it once
per config (its trader layer) and passes it to every sweep and pushforward as
``operator``. ``push_forward`` takes only the operator; ``dp_backward`` keeps
the grid, quadrature and noise arguments and builds its own T when none is
passed, because its leading signature is the one the DP-versus-enumeration
acceptance test calls and the benchmark's DP hook reads.

A control atom is admissible at a node only if the deterministic drift
target x + a*dt stays inside the grid (``drift_targets``, the one statement
of that rule). The config rejects a grid and control range that leave any
node without an admissible atom, so the DP's argmax always picks an
admissible one and the pushforward never moves mass along a blocked atom.
The DP's running part, reward * dt with -inf on the inadmissible atoms,
changes with t but not with the value function, so ``dp_backward`` builds
that ``base`` table once per sweep and each step only adds T @ V and takes
the argmax. Ties in the DP break to the lowest atom index.

The LVR accumulator loops over time and is vectorized over paths: each call
advances every path over one block of noise rows, carrying the (price, hedge,
drain) state across calls, so the caller streams the noise block by block
and memory does not grow with the number of steps. Within a call every step
writes into four (paths,) buffers made once per call, with ``out=`` and
in-place ufuncs in the order the plain expressions would round, so a step
allocates nothing and the numbers match the expressions bit for bit.
"""

import numpy as np


def gauss_hermite(n_nodes):
    """Standard-normal quadrature nodes and weights (weights sum to 1)."""
    nodes, weights = np.polynomial.hermite_e.hermegauss(int(n_nodes))
    return nodes, weights / weights.sum()


def grid_cell(x, x0, h, nx):
    """Linear-interpolation cell of points x on the uniform grid x0 + h*i.

    Returns (i0, frac): x sits at (1 - frac) * node i0 + frac * node i0+1,
    with i0 in [0, nx-2]. Points beyond either end get frac 0 or 1 at the
    edge cell, so they take the edge node's value.
    """
    pos = (np.asarray(x, dtype=float) - x0) / h
    i0 = np.clip(np.floor(pos).astype(np.int64), 0, nx - 2)
    frac = np.clip(pos - i0, 0.0, 1.0)
    return i0, frac


def drift_targets(x_grid, atoms, dt):
    """Deterministic drift targets x_i + a_j*dt, (nx, na), and whether each
    lies below the grid's first node or above its last.

    The admissibility rule: atom j is admissible at node i when its target
    does neither.
    """
    target = x_grid[:, None] + atoms[None, :] * dt
    return target, target < x_grid[0], target > x_grid[-1]


def transition_operator(x_grid, atoms, dt, sig_root_dt, z_nodes, z_weights):
    """One-step transition matrix T and the admissibility mask.

    T is dense, (nx*na, nx) and row-stochastic: row i*na + j is the law of the
    next node from node i under atom j, the quadrature samples
    x_i + a_j*dt + sig_root_dt*z_q split between their two nodes by
    ``grid_cell``. admissible[i, j] says whether the drift target x_i + a_j*dt
    lies on the grid (``drift_targets``).
    """
    nx, na = len(x_grid), len(atoms)
    x0 = x_grid[0]
    h = x_grid[1] - x_grid[0]
    drift, below, above = drift_targets(x_grid, atoms, dt)
    admissible = ~(below | above)
    i0, frac = grid_cell(drift[:, :, None] + sig_root_dt * z_nodes[None, None, :], x0, h, nx)
    flat = (np.arange(nx * na) * nx).reshape(nx, na, 1) + i0
    T = np.bincount(
        np.concatenate([flat.ravel(), flat.ravel() + 1]),
        weights=np.concatenate([(z_weights * (1.0 - frac)).ravel(), (z_weights * frac).ravel()]),
        minlength=nx * na * nx,
    )
    return T.reshape(nx * na, nx), admissible


def dp_backward(reward, terminal, x_grid, atoms, dt, sig_root_dt, z_nodes, z_weights,
                operator=None):
    """Backward sweep: value (steps+1, nx), argmax policy and admissibility flags.

    ``operator`` is ``transition_operator``'s (T, admissible) for these
    arguments, built here when not given. The running part of every
    candidate, ``base = reward * dt`` with -inf on the blocked atoms, is
    built once for the whole sweep, so each step only adds the expectation
    ``T @ V`` and takes the argmax. A node with no admissible atom, which
    the config rejects, would get value -inf and make every earlier
    candidate nan (0 * -inf in T @ V).
    """
    n_steps, nx, na = reward.shape
    T, admissible = operator or transition_operator(
        x_grid, atoms, dt, sig_root_dt, z_nodes, z_weights
    )
    base = reward * dt
    base[:, ~admissible] = -np.inf
    ix = np.arange(nx)

    value = np.empty((n_steps + 1, nx))
    policy = np.empty((n_steps, nx), dtype=np.int64)
    value[n_steps] = terminal
    for t in range(n_steps - 1, -1, -1):
        cand = base[t] + (T @ value[t + 1]).reshape(nx, na)
        policy[t] = np.argmax(cand, axis=1)
        value[t] = cand[ix, policy[t]]
    return value, policy, admissible[ix, policy]


def push_forward(policy, mu0, operator):
    """Forward law (steps+1, nx) under a feedback policy.

    ``operator`` is ``transition_operator``'s (T, admissible) on the policy's
    grid and atoms.
    """
    n_steps, nx = policy.shape
    T, admissible = operator
    ix = np.arange(nx)
    rows = ix * admissible.shape[1] + policy
    mu = np.empty((n_steps + 1, nx))
    mu[0] = mu0
    for t in range(n_steps):
        mu[t + 1] = mu[t] @ T[rows[t]]
    return mu


def _drain_rate(root, sigma):
    """Drain rate l(P) = sigma^2 * sqrt(k*P) / 4, from root = sqrt(k*P)."""
    return 0.25 * sigma * sigma * root


def lvr_paths(z, state, sigma, dt, k):
    """Advance every path over the rows of z, a (steps, paths) block of normals.

    ``state`` is a (3, paths) array of price, hedge gain and accrued drain,
    advanced in place. Each step accrues the drain at the left-point price,
    moves the price by its exact log-normal increment and books the gain of
    holding the replicating sqrt(k/P) units over it. Every step writes into
    the same four (paths,) buffers, each operation rounding as the plain
    expression ``drain += rate(sqrt(k*p)) * dt``,
    ``p_next = p * exp(drift + vol*z)``,
    ``hedge += (sqrt(k*p) / p) * (p_next - p)`` would.
    """
    drift = (-0.5 * sigma * sigma) * dt
    vol = sigma * np.sqrt(dt)
    rate = _drain_rate(1.0, sigma)  # per unit root: the same bits as the rate's factor
    p, hedge, drain = state
    root, gain, move, p_next = np.empty((4, len(p)))
    for zt in z:
        np.multiply(p, k, out=root)
        np.sqrt(root, out=root)
        np.multiply(root, rate, out=gain)
        gain *= dt
        drain += gain
        np.multiply(zt, vol, out=p_next)
        p_next += drift
        np.exp(p_next, out=p_next)
        p_next *= p
        np.divide(root, p, out=gain)
        np.subtract(p_next, p, out=move)
        gain *= move
        hedge += gain
        p, p_next = p_next, p
    state[0] = p
