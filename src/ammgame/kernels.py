"""Numerical hot loops: the DP sweep, the measure pushforward and LVR paths.

The backward dynamic-programming sweep, the forward measure pushforward, and
the rebalancing/drain accumulator over LVR paths are the only loops in the
package that are hot enough to matter. Each is written once, in vectorized
numpy.

The DP and the pushforward are two sides of one transition law, built by
``transition_operator``. From node x under control atom a, the next state
is sampled at x + a*dt + sigma*sqrt(dt)*z_q for the quadrature nodes z_q, and
each sample is split linearly between the two grid nodes around it. On the
uniform grid a sample's move in cells, (a*dt + sigma*sqrt(dt)*z_q) / h, and
so its split, is the same at every node: the law is stored as one stencil
per atom, stencil[k, j] the probability of moving lo + k nodes under atom j
(w = 9 offsets, 99 floats at the default config). Samples outside the grid
clamp to the edge node (constant extrapolation, the usual truncation of an
unbounded diffusion onto a bounded grid): node i's window is the nodes
i + lo ... i + lo + w - 1 clamped to the grid, and ``_extension`` is the one
statement of that clamp. The DP reads V at the window nodes, V extended by
its edge values, through a strided (nx, w) window, and one matmul of it with
the stencil gives every (node, atom) expectation at once. The pushforward
is its transpose: it scatters mu times the stencil columns the policy picks
onto the same window nodes. The law depends on neither time nor the
environment, so the solver builds it once per config (its trader layer) and
passes it to every sweep and pushforward as ``operator``. ``dp_backward``
builds its own when none is passed: the DP-versus-enumeration acceptance
test calls it with the grids and quadrature, and the benchmark's hook reads
those arguments.

A control atom is admissible at a node only if the deterministic drift
target x + a*dt stays inside the grid (``drift_targets``, the one statement
of that rule). The config rejects a grid and control range that leave any
node without an admissible atom, so the DP's argmax always picks an
admissible one and the pushforward never moves mass along a blocked atom.
The DP's running part, reward * dt with -inf on the inadmissible atoms,
changes with t but not with the value function, so ``dp_backward`` builds
that ``base`` table once per sweep and each step only adds the expectation
and takes the argmax. Ties in the DP break to the lowest atom index.

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
    """Whether each deterministic drift target x_i + a_j*dt lies below the
    grid's first node, and whether it lies above its last: two (nx, na) masks.

    The admissibility rule: atom j is admissible at node i when its target
    does neither.
    """
    target = x_grid[:, None] + atoms[None, :] * dt
    return target < x_grid[0], target > x_grid[-1]


def transition_operator(x_grid, atoms, dt, sig_root_dt, z_nodes, z_weights):
    """One-step transition law as one stencil per atom, (stencil, lo, admissible).

    stencil[k, j] is the probability of moving lo + k nodes under atom j: the
    quadrature samples move a_j*dt + sig_root_dt*z_q, in cells of the grid's
    step h, each split linearly between the whole moves around it. The law
    is the same at every node; a move that leaves the grid from a node lands
    on the edge node (``_extension``). A move past the whole grid lands on
    the edge node from every node, so moves are cut to [-(nx-1), nx-1]
    first. The stencil is (w, na), with lo and w the narrowest offsets that
    hold every nonzero mass (w <= 2*nx - 1). admissible[i, j] says whether
    the drift target x_i + a_j*dt lies on the grid (``drift_targets``).
    """
    nx, na = len(x_grid), len(atoms)
    below, above = drift_targets(x_grid, atoms, dt)
    move = (atoms[:, None] * dt + sig_root_dt * z_nodes[None, :]) / (x_grid[1] - x_grid[0])
    move = np.clip(move, 1 - nx, nx - 1)
    whole = np.floor(move)
    frac = move - whole
    # per atom: each sample's lower move, then each sample's upper move
    offset = np.concatenate([whole, whole + 1.0], axis=1).astype(np.int64)
    mass = np.concatenate([1.0 - frac, frac], axis=1) * np.tile(z_weights, 2)
    held = mass != 0.0
    lo = int(offset[held].min())
    w = int(offset[held].max()) - lo + 1
    slot = (offset - lo) * na + np.arange(na)[:, None]
    stencil = np.bincount(slot[held], weights=mass[held], minlength=w * na)
    return stencil.reshape(w, na), lo, ~(below | above)


def _extension(nx, lo, w):
    """Node i's window is entries i ... i + w - 1 of this array: the nodes
    i + lo + k clamped to the grid. The one statement of the edge clamp."""
    return np.clip(np.arange(lo, lo + nx + w - 1), 0, nx - 1)


def dp_backward(reward, terminal, x_grid, atoms, dt, sig_root_dt, z_nodes, z_weights,
                operator=None):
    """Backward sweep: value (steps+1, nx), argmax policy and admissibility flags.

    ``operator`` is ``transition_operator``'s (stencil, lo, admissible) for
    these arguments, built here when not given. The running part of every
    candidate, ``base = reward * dt`` with -inf on the blocked atoms, is
    built once for the whole sweep. Each step gathers V at the window nodes
    (``_extension``) into a buffer, reads it through a strided (nx, w)
    window and takes one matmul with the stencil into an (nx, na) buffer:
    the expectation of V under every (node, atom) law. It then adds
    ``base[t]`` in place and takes the argmax. A node with no admissible
    atom, which the config rejects, would get value -inf and make the
    candidates whose window covers it -inf or nan (0 * -inf).
    """
    n_steps, nx, na = reward.shape
    stencil, lo, admissible = operator or transition_operator(
        x_grid, atoms, dt, sig_root_dt, z_nodes, z_weights
    )
    base = reward * dt
    base[:, ~admissible] = -np.inf
    w = len(stencil)
    extend = _extension(nx, lo, w)
    padded = np.empty(nx + w - 1)
    window = np.lib.stride_tricks.sliding_window_view(padded, w)
    cand = np.empty((nx, na))
    rows = np.arange(nx) * na  # cand's flat index of each node's atom 0
    chosen = np.empty(nx, dtype=np.int64)

    value = np.empty((n_steps + 1, nx))
    policy = np.empty((n_steps, nx), dtype=np.int64)
    value[n_steps] = terminal
    for t in range(n_steps - 1, -1, -1):
        value[t + 1].take(extend, out=padded)
        np.matmul(window, stencil, out=cand)
        cand += base[t]
        cand.argmax(axis=1, out=policy[t])
        np.add(rows, policy[t], out=chosen)
        cand.take(chosen, out=value[t])
    return value, policy, admissible[np.arange(nx), policy]


def push_forward(policy, mu0, operator):
    """Forward law (steps+1, nx) under a feedback policy: the transpose of
    the DP's expectation.

    ``operator`` is ``transition_operator``'s (stencil, lo, admissible) on
    the policy's grid and atoms. Node i sends stencil[k, policy] of its mass
    to its window node k (``_extension``), the node the DP reads for that
    move: each step scales the picked stencil columns by mu[t] and sums them
    onto the window nodes with one bincount.
    """
    n_steps, nx = policy.shape
    stencil, lo, _ = operator
    w = len(stencil)
    nodes = np.lib.stride_tricks.sliding_window_view(_extension(nx, lo, w), w).ravel()
    picked = np.take(stencil.T, policy, axis=0)
    sent = np.empty((nx, w))  # sent[i, k]: node i's mass bound for its window node k
    mu = np.empty((n_steps + 1, nx))
    mu[0] = mu0
    for t in range(n_steps):
        np.multiply(picked[t], mu[t, :, None], out=sent)
        mu[t + 1] = np.bincount(nodes, sent.ravel(), minlength=nx)
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
