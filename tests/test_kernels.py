"""Quadrature, the one-step transition stencil, and DP/pushforward duality."""

import math
from fractions import Fraction

import numpy as np
import pytest

from ammgame import kernels, solver
from ammgame.config import default_config

EPS = np.finfo(float).eps


def _dense(operator, nx):
    """The stencil as the dense (nx*na, nx) matrix the kernels apply: row
    i*na + j is the law of the next node from node i under atom j, each move
    lo + k clamped to the edge node."""
    stencil, lo, _ = operator
    w, na = stencil.shape
    T = np.zeros((nx, na, nx))
    for i in range(nx):
        for k in range(w):
            T[i, :, min(max(i + lo + k, 0), nx - 1)] += stencil[k]
    return T.reshape(nx * na, nx)


def _dense_oracle(x_grid, atoms, dt, sig_root_dt, nodes, weights):
    """The dense transition matrix built sample by sample: each sample sits at
    node i plus its move in cells, split between the whole moves around it,
    and each part is clamped to the edge nodes."""
    nx, na = len(x_grid), len(atoms)
    h = x_grid[1] - x_grid[0]
    T = np.zeros((nx * na, nx))
    for i in range(nx):
        for j in range(na):
            for z, p in zip(nodes, weights):
                move = (atoms[j] * dt + sig_root_dt * z) / h
                whole = math.floor(move)
                frac = move - whole
                for node, mass in ((i + whole, p * (1.0 - frac)), (i + whole + 1, p * frac)):
                    T[i * na + j, min(max(node, 0), nx - 1)] += mass
    return T


def _absolute_law(x_grid, atoms, dt, sig_root_dt, nodes, weights):
    """The law placed by absolute position: each sample x_i + a_j*dt +
    sig_root_dt*z_q split between its two nodes by ``grid_cell``."""
    nx, na = len(x_grid), len(atoms)
    T = np.zeros((nx * na, nx))
    for i in range(nx):
        for j in range(na):
            for z, p in zip(nodes, weights):
                i0, frac = kernels.grid_cell(x_grid[i] + atoms[j] * dt + sig_root_dt * z,
                                             x_grid[0], x_grid[1] - x_grid[0], nx)
                T[i * na + j, i0] += p * (1.0 - frac)
                T[i * na + j, i0 + 1] += p * frac
    return T


def _dense_dp(reward, terminal, T, admissible, dt):
    """The backward sweep on a dense T: T @ V, masked, argmax, lowest index."""
    n_steps, nx, na = reward.shape
    ix = np.arange(nx)
    value = np.empty((n_steps + 1, nx))
    policy = np.empty((n_steps, nx), dtype=np.int64)
    value[n_steps] = terminal
    for t in range(n_steps - 1, -1, -1):
        cand = reward[t] * dt + (T @ value[t + 1]).reshape(nx, na)
        cand[~admissible] = -np.inf
        policy[t] = np.argmax(cand, axis=1)
        value[t] = cand[ix, policy[t]]
    return value, policy


def _dense_push(policy, mu0, T, na):
    n_steps, nx = policy.shape
    mu = np.empty((n_steps + 1, nx))
    mu[0] = mu0
    for t in range(n_steps):
        mu[t + 1] = mu[t] @ T[np.arange(nx) * na + policy[t]]
    return mu


def test_gauss_hermite_is_a_probability_rule():
    nodes, weights = kernels.gauss_hermite(7)
    assert weights.sum() == 1.0
    np.testing.assert_allclose(nodes, -nodes[::-1], atol=1e-14)
    assert nodes @ weights == pytest.approx(0.0, abs=1e-14)
    assert (nodes**2) @ weights == pytest.approx(1.0, rel=1e-12)
    assert (nodes**4) @ weights == pytest.approx(3.0, rel=1e-12)
    assert (nodes**6) @ weights == pytest.approx(15.0, rel=1e-12)


def test_gauss_hermite_single_node_is_exact_mean():
    nodes, weights = kernels.gauss_hermite(1)
    assert nodes[0] == 0.0
    assert weights[0] == 1.0


def test_interpolation_clamps_at_edges():
    values = np.array([1.0, 3.0, 2.0, 5.0])
    x0, h, n = 0.0, 1.0, 4
    query = np.array([-10.0, 0.0, 0.5, 1.0, 2.25, 3.0, 99.0])
    i0, frac = kernels.grid_cell(query, x0, h, n)
    np.testing.assert_array_equal(i0, [0, 0, 0, 1, 2, 2, 2])
    out = values[i0] * (1.0 - frac) + values[i0 + 1] * frac
    np.testing.assert_allclose(out, [1.0, 1.0, 2.0, 3.0, 2.75, 5.0, 5.0], atol=1e-15)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_transition_rows_are_probability_laws(seed):
    """Every atom's stencil is nonnegative and sums to 1, every (node, atom)
    law it gives sums to 1, and the stencil is exactly its support: both end
    rows hold mass."""
    rng = np.random.default_rng(seed)
    nx = int(rng.integers(2, 60))
    x_grid = np.linspace(-1.0, rng.uniform(-0.5, 2.0), nx)
    atoms = np.sort(rng.uniform(-3.0, 3.0, size=int(rng.integers(1, 8))))
    nodes, weights = kernels.gauss_hermite(int(rng.integers(1, 10)))
    operator = kernels.transition_operator(
        x_grid, atoms, rng.uniform(0.01, 0.5), rng.uniform(0.0, 1.0), nodes, weights
    )
    stencil, lo, admissible = operator
    w = len(stencil)
    assert stencil.shape == (w, len(atoms)) and 1 <= w <= 2 * nx - 1
    assert 1 - nx <= lo <= lo + w - 1 <= nx - 1
    assert admissible.shape == (nx, len(atoms))
    assert (stencil >= 0.0).all()
    np.testing.assert_allclose(stencil.sum(axis=0), 1.0, rtol=0, atol=8 * EPS)
    assert stencil[0].any() and stencil[-1].any()
    T = _dense(operator, nx)
    np.testing.assert_allclose(T.sum(axis=1), 1.0, rtol=0, atol=8 * EPS)


def test_transition_clamps_off_grid_samples_to_the_edge_nodes():
    """Samples far beyond either end of the grid land on the edge node. A move
    past the whole grid lands there from every node, so moves are cut to the
    grid's width and the stencil takes its widest form, 2*nx - 1 offsets, and
    no wider."""
    x_grid = np.linspace(0.0, 1.0, 5)
    atoms = np.array([-1.0, 0.0, 4.0])
    dt = 0.25
    nodes, weights = kernels.gauss_hermite(3)  # nodes -sqrt(3), 0, sqrt(3)
    operator = kernels.transition_operator(x_grid, atoms, dt, 10.0, nodes, weights)
    stencil, lo, admissible = operator
    assert stencil.shape == (2 * 5 - 1, 3) and lo == -4
    drift = x_grid[:, None] + atoms[None, :] * dt
    np.testing.assert_array_equal(admissible, (drift >= 0.0) & (drift <= 1.0))
    assert not admissible.all() and admissible.any()
    T = _dense(operator, 5)
    for i in range(5):
        for j in range(3):
            expected = np.zeros(5)
            expected[0] += weights[0]
            i0, frac = kernels.grid_cell(drift[i, j], 0.0, 0.25, 5)
            expected[i0] += weights[1] * (1.0 - frac)
            expected[i0 + 1] += weights[1] * frac
            expected[4] += weights[2]
            np.testing.assert_allclose(T[i * 3 + j], expected, rtol=0, atol=1e-15)
    # every node's window reaches past both edges; the DP and the pushforward
    # still apply exactly this dense law
    rng = np.random.default_rng(0)
    reward, terminal = np.zeros((1, 5, 3)), rng.normal(size=5)
    value, policy, _ = kernels.dp_backward(reward, terminal, x_grid, atoms, dt, 10.0, nodes,
                                           weights, operator)
    dense_value, dense_policy = _dense_dp(reward, terminal, T, admissible, dt)
    np.testing.assert_array_equal(policy, dense_policy)
    np.testing.assert_allclose(value, dense_value, rtol=0, atol=1e-15)
    policy, mu0 = rng.integers(0, 3, size=(3, 5)), rng.dirichlet(np.ones(5))
    np.testing.assert_allclose(kernels.push_forward(policy, mu0, operator),
                               _dense_push(policy, mu0, T, 3), rtol=0, atol=1e-15)


def _oracle_case(rng):
    """A random small grid whose nodes each admit some atom, with rewards."""
    nx = int(rng.integers(3, 40))
    x_grid = np.linspace(-1.0, rng.uniform(-0.5, 2.0), nx)
    dt = rng.uniform(0.05, 0.3)
    atoms = np.sort(np.concatenate(([0.0], rng.uniform(-4.0, 4.0, size=int(rng.integers(1, 6))))))
    nodes, weights = kernels.gauss_hermite(int(rng.integers(1, 10)))
    sig = rng.uniform(0.0, 1.0)
    steps = int(rng.integers(1, 12))
    reward = rng.normal(size=(steps, nx, len(atoms)))
    return reward, rng.normal(size=nx), x_grid, atoms, dt, sig, nodes, weights


def _default_case():
    """The default config's trader layer, with the rewards of its first map."""
    cfg = default_config()
    layer = solver.trader_layer(cfg)
    zeros = np.zeros(layer.grid.steps)
    env = solver.forward_environment(cfg, zeros, zeros)
    reward = solver.tabulate_rewards(cfg, env, env.mean_control_path[:, None])
    return (reward, layer.terminal, layer.x_grid, layer.atoms, layer.grid.dt,
            layer.sig_root_dt, layer.z_nodes, layer.z_weights)


@pytest.mark.parametrize("case", ["default", 0, 1, 2, 3, 4, 5])
def test_stencil_dp_and_push_forward_match_a_dense_oracle(case):
    """The stencil's DP and pushforward are the dense T @ V and mu @ T, with
    T built sample by sample: the same policy, values to 1e-13 and laws to
    1e-15."""
    args = _default_case() if case == "default" else _oracle_case(np.random.default_rng(case))
    reward, terminal, x_grid, atoms, dt, sig, nodes, weights = args
    operator = kernels.transition_operator(x_grid, atoms, dt, sig, nodes, weights)
    T = _dense_oracle(x_grid, atoms, dt, sig, nodes, weights)
    np.testing.assert_allclose(_dense(operator, len(x_grid)), T, rtol=0, atol=2 * EPS)
    value, policy, _ = kernels.dp_backward(reward, terminal, *args[2:], operator)
    drift = x_grid[:, None] + atoms[None, :] * dt
    admissible = (drift >= x_grid[0]) & (drift <= x_grid[-1])
    np.testing.assert_array_equal(operator[2], admissible)
    dense_value, dense_policy = _dense_dp(reward, terminal, T, admissible, dt)
    np.testing.assert_array_equal(policy, dense_policy)
    np.testing.assert_allclose(value, dense_value, rtol=0, atol=1e-13)
    rng = np.random.default_rng(7)
    for mu0 in (np.full(len(x_grid), 1.0 / len(x_grid)), rng.dirichlet(np.ones(len(x_grid)))):
        mu = kernels.push_forward(policy, mu0, operator)
        np.testing.assert_allclose(mu, _dense_push(policy, mu0, T, len(atoms)), rtol=0,
                                   atol=1e-15)


def _exact_push_step(stencil, lo, policy_t, mu_t):
    """One pushforward step in exact arithmetic on the float stencil and mu:
    node i sends stencil[k, policy_t[i]] * mu_t[i] to node i + lo + k,
    clamped to the grid."""
    nx = len(mu_t)
    out = [Fraction(0)] * nx
    for i in range(nx):
        for k in range(len(stencil)):
            node = min(max(i + lo + k, 0), nx - 1)
            out[node] += Fraction(stencil[k, policy_t[i]]) * Fraction(mu_t[i])
    return out


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_push_forward_is_the_exact_scatter_to_rounding(seed):
    """Each step of the pushforward is the exact sum, over the windows, of
    the float stencil times the float mu, to within the rounding of a sum of
    products.

    Node m of mu[t+1] sums n_m nonnegative products, n_m the number of
    window entries clamped onto m. Each product rounds once and the sum
    n_m - 1 times, so the float result is within gamma(n_m) = n_m*u / (1 -
    n_m*u) of the exact sum, relative, with u = eps/2 (the standard bound
    for a dot product; it holds in any summation order).
    """
    rng = np.random.default_rng(seed)
    nx = int(rng.integers(4, 16))
    x_grid = np.linspace(-1.0, 1.0, nx)
    atoms = np.array([-2.0, rng.uniform(-1.0, 1.0), 2.0])
    nodes, weights = kernels.gauss_hermite(int(rng.integers(3, 9)))
    operator = kernels.transition_operator(x_grid, atoms, 0.5, rng.uniform(0.3, 2.0),
                                           nodes, weights)
    stencil, lo, _ = operator
    w = len(stencil)
    assert lo < 0 < lo + w - 1  # windows leave the grid at both ends
    policy = rng.integers(0, 3, size=(4, nx))
    mu = kernels.push_forward(policy, rng.dirichlet(np.ones(nx)), operator)
    clamped = np.clip(np.arange(nx)[:, None] + lo + np.arange(w), 0, nx - 1)
    n_terms = np.bincount(clamped.ravel(), minlength=nx)
    u = Fraction(EPS) / 2
    for t in range(len(policy)):
        exact = _exact_push_step(stencil, lo, policy[t], mu[t])
        for m in range(nx):
            gamma = n_terms[m] * u / (1 - n_terms[m] * u)
            assert abs(Fraction(mu[t + 1, m]) - exact[m]) <= gamma * exact[m]


def test_dp_and_push_forward_with_every_move_one_way():
    """Atoms and noise that only move up give a stencil with lo > 0: every
    window starts above its node. The DP and the pushforward still apply
    the dense law built sample by sample."""
    x_grid = np.linspace(0.0, 1.0, 21)
    atoms = np.array([1.0, 2.0, 3.0])
    dt = 0.1
    nodes, weights = kernels.gauss_hermite(5)
    operator = kernels.transition_operator(x_grid, atoms, dt, 0.01, nodes, weights)
    stencil, lo, _ = operator
    assert lo > 0
    T = _dense_oracle(x_grid, atoms, dt, 0.01, nodes, weights)
    np.testing.assert_allclose(_dense(operator, 21), T, rtol=0, atol=2 * EPS)
    rng = np.random.default_rng(3)
    everywhere = np.ones((21, 3), dtype=bool)
    reward, terminal = rng.normal(size=(4, 21, 3)), rng.normal(size=21)
    value, policy, _ = kernels.dp_backward(reward, terminal, x_grid, atoms, dt, 0.01, nodes,
                                           weights, (stencil, lo, everywhere))
    dense_value, dense_policy = _dense_dp(reward, terminal, T, everywhere, dt)
    np.testing.assert_array_equal(policy, dense_policy)
    np.testing.assert_allclose(value, dense_value, rtol=0, atol=1e-13)
    mu0 = rng.dirichlet(np.ones(21))
    np.testing.assert_allclose(kernels.push_forward(policy, mu0, operator),
                               _dense_push(policy, mu0, T, 3), rtol=0, atol=1e-15)


@pytest.mark.parametrize("case", ["default", 0, 1, 2])
def test_dp_expectation_is_exactly_translation_invariant(case):
    """One atom's expectation of V shifted by one node is the shifted
    expectation, bit for bit, on every row whose window touches no edge:
    each row takes the same products in the same order."""
    if case == "default":
        _, terminal, x_grid, atoms, dt, sig, nodes, weights = _default_case()
    else:
        rng = np.random.default_rng(case)
        x_grid = np.linspace(-1.0, 1.0, 41)
        atoms = rng.uniform(-1.0, 1.0, size=3)
        dt, sig = 0.1, rng.uniform(0.05, 0.5)
        nodes, weights = kernels.gauss_hermite(int(rng.integers(1, 10)))
        terminal = rng.normal(size=41)
    nx = len(x_grid)
    stencil, lo, _ = kernels.transition_operator(x_grid, atoms, dt, sig, nodes, weights)
    hi = lo + len(stencil) - 1
    rows = np.arange(max(0, -lo), nx - 1 - hi)  # row and row + 1 both see only interior nodes
    assert len(rows)
    shifted = np.append(terminal[1:], terminal[-1])
    for j in range(len(atoms)):
        one = (stencil[:, j:j + 1], lo, np.ones((nx, 1), dtype=bool))
        expect = [kernels.dp_backward(np.zeros((1, nx, 1)), v, x_grid, atoms[j:j + 1], dt, sig,
                                      nodes, weights, one)[0][0] for v in (terminal, shifted)]
        np.testing.assert_array_equal(expect[1][rows], expect[0][rows + 1])


@pytest.mark.parametrize("case", ["default", 0, 1, 2, 3, 4, 5])
def test_stencil_law_is_the_absolute_position_law_to_rounding(case):
    """The stencil places each sample at node i plus its move in cells; the
    absolute-position law places it at (x_i + a_j*dt + sig*z_q - x_0) / h.

    Each entry of a law is a 1-Lipschitz hat function of the sample's
    position, summed with weights that sum to 1, so two laws differ per
    entry by at most the largest gap between the two positions of a sample.
    In exact arithmetic on the float grid the gap is the grid's own
    deviation D = max_i |x_i - x_0 - i*h| / h. Rounding adds at most
    9*u*M/h + u*nx + 8u, with u = eps/2 and M = max|x| + max|a|*dt +
    sig*max|z|: five roundings on operands of size <= M in the absolute
    position and its division, four in the move, the split, and the
    position's own size of at most nx cells (first order in u).
    """
    args = _default_case() if case == "default" else _oracle_case(np.random.default_rng(case))
    _, _, x_grid, atoms, dt, sig, nodes, weights = args
    nx = len(x_grid)
    h = x_grid[1] - x_grid[0]
    grid_gap = max(abs(Fraction(x) - Fraction(x_grid[0]) - i * Fraction(h)) for i, x in
                   enumerate(x_grid)) / Fraction(h)
    size = (np.abs(x_grid).max() + np.abs(atoms).max() * dt + sig * np.abs(nodes).max()) / h
    bound = float(grid_gap) + (9 * size + nx + 8) * EPS / 2
    operator = kernels.transition_operator(x_grid, atoms, dt, sig, nodes, weights)
    gap = np.abs(_dense(operator, nx) - _absolute_law(x_grid, atoms, dt, sig, nodes, weights))
    assert gap.max() <= bound


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_dp_and_push_forward_share_one_transition(seed):
    """The DP's value of mu0 is the reward its policy collects along the pushed law.

    The DP takes the stencil's expectation of V at each node's window nodes,
    clamped to the grid, and the pushforward sends mu along the stencil
    columns the policy picks to the same window nodes, so mu0 @ value[0]
    equals the chosen rewards summed along the pushed laws plus
    mu_T @ terminal, up to summation order.
    """
    rng = np.random.default_rng(seed)
    nx = 31
    x_grid = np.linspace(-1.0, 1.0, nx)
    atoms = np.array([rng.uniform(-0.5, 0.5)])  # one atom, zero reward
    dt = 0.1
    sig = rng.uniform(0.05, 0.6)  # wide enough that the tails clamp at the edges
    nodes, weights = kernels.gauss_hermite(7)
    reward = np.zeros((1, nx, 1))
    terminal = rng.normal(size=nx)
    value, policy, ok = kernels.dp_backward(
        reward, terminal, x_grid, atoms, dt, sig, nodes, weights
    )
    admissible = ok[0]  # the drift exits the grid from the nodes off this mask
    mu0 = rng.uniform(size=nx) * admissible
    mu0 /= mu0.sum()
    mu = kernels.push_forward(
        policy, mu0, kernels.transition_operator(x_grid, atoms, dt, sig, nodes, weights)
    )
    assert mu[1] @ terminal == pytest.approx(mu0[admissible] @ value[0][admissible], abs=1e-12)

    # three atoms, one of each sign, so every node has an admissible move
    atoms = np.sort([rng.uniform(-0.5, 0.0), rng.uniform(-0.5, 0.5), rng.uniform(0.0, 0.5)])
    steps = 4
    reward = rng.normal(size=(steps, nx, 3))
    value, policy, ok = kernels.dp_backward(
        reward, terminal, x_grid, atoms, dt, sig, nodes, weights
    )
    assert ok.all()
    assert len(np.unique(policy)) > 1
    mu0 = rng.uniform(size=nx)
    mu0 /= mu0.sum()
    mu = kernels.push_forward(
        policy, mu0, kernels.transition_operator(x_grid, atoms, dt, sig, nodes, weights)
    )
    ix = np.arange(nx)
    collected = sum(mu[t] @ reward[t][ix, policy[t]] * dt for t in range(steps))
    assert collected + mu[steps] @ terminal == pytest.approx(mu0 @ value[0], abs=1e-12)


def _dp_per_step_mask(reward, terminal, operator, dt):
    """The sweep with the running reward scaled and masked inside every step,
    the expectation taken by a fresh window on V extended by its edge values
    and a matmul with the stencil."""
    stencil, lo, admissible = operator
    n_steps, nx, na = reward.shape
    w = len(stencil)
    ix = np.arange(nx)
    value = np.empty((n_steps + 1, nx))
    policy = np.empty((n_steps, nx), dtype=np.int64)
    value[n_steps] = terminal
    for t in range(n_steps - 1, -1, -1):
        padded = value[t + 1][np.clip(np.arange(lo, lo + nx + w - 1), 0, nx - 1)]
        window = np.lib.stride_tricks.sliding_window_view(padded, w)
        cand = reward[t] * dt + np.matmul(window, stencil)
        cand[~admissible] = -np.inf
        policy[t] = np.argmax(cand, axis=1)
        value[t] = cand[ix, policy[t]]
    return value, policy, admissible[ix, policy]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_dp_matches_a_per_step_masked_sweep(seed):
    """The sweep's hoisted running table changes no bit of value, policy or flags."""
    rng = np.random.default_rng(seed)
    nx = int(rng.integers(5, 40))
    x_grid = np.linspace(-1.0, 1.0, nx)
    dt = rng.uniform(0.05, 0.3)
    # atoms of both signs reaching past the grid from its edge nodes, and 0
    atoms = np.sort(np.concatenate(([0.0], rng.uniform(-4.0, 4.0, size=int(rng.integers(2, 6))))))
    nodes, weights = kernels.gauss_hermite(int(rng.integers(1, 8)))
    sig = rng.uniform(0.0, 0.5)
    operator = kernels.transition_operator(x_grid, atoms, dt, sig, nodes, weights)
    admissible = operator[2]
    assert not admissible.all() and admissible.any(axis=1).all()
    steps = int(rng.integers(1, 8))
    reward = rng.normal(size=(steps, nx, len(atoms)))
    terminal = rng.normal(size=nx)
    expected = _dp_per_step_mask(reward, terminal, operator, dt)
    for op in (operator, None):
        got = kernels.dp_backward(reward, terminal, x_grid, atoms, dt, sig, nodes, weights, op)
        for a, b in zip(got, expected):
            np.testing.assert_array_equal(a, b)

    # all candidates tie: every node takes its lowest admissible atom
    flat = np.zeros_like(reward)
    got = kernels.dp_backward(flat, np.zeros(nx), x_grid, atoms, dt, sig, nodes, weights,
                              operator)
    for a, b in zip(got, _dp_per_step_mask(flat, np.zeros(nx), operator, dt)):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(got[1], np.broadcast_to(admissible.argmax(axis=1), got[1].shape))


def test_push_forward_conserves_mass():
    x_grid = np.linspace(0.0, 1.0, 11)
    atoms = np.array([0.0, 0.1])
    nodes, weights = kernels.gauss_hermite(5)
    mu0 = np.full(11, 1.0 / 11.0)
    operator = kernels.transition_operator(x_grid, atoms, 0.1, 0.3, nodes, weights)
    for policy in (np.zeros((3, 11), dtype=np.int64), np.ones((3, 11), dtype=np.int64)):
        mu = kernels.push_forward(policy, mu0, operator)
        np.testing.assert_array_equal(mu[0], mu0)
        np.testing.assert_allclose(mu.sum(axis=1), 1.0, atol=1e-12)
