"""Quadrature, the one-step transition matrix, and DP/pushforward duality."""

import numpy as np
import pytest

from ammgame import kernels


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
    rng = np.random.default_rng(seed)
    nx = int(rng.integers(2, 60))
    x_grid = np.linspace(-1.0, rng.uniform(-0.5, 2.0), nx)
    atoms = np.sort(rng.uniform(-3.0, 3.0, size=int(rng.integers(1, 8))))
    nodes, weights = kernels.gauss_hermite(int(rng.integers(1, 10)))
    T, admissible = kernels.transition_operator(
        x_grid, atoms, rng.uniform(0.01, 0.5), rng.uniform(0.0, 1.0), nodes, weights
    )
    assert T.shape == (nx * len(atoms), nx)
    assert admissible.shape == (nx, len(atoms))
    assert (T >= 0.0).all()
    np.testing.assert_allclose(T.sum(axis=1), 1.0, rtol=0, atol=8 * np.finfo(float).eps)


def test_transition_clamps_off_grid_samples_to_the_edge_nodes():
    """Samples far beyond either end of the grid land on the edge node."""
    x_grid = np.linspace(0.0, 1.0, 5)
    atoms = np.array([-1.0, 0.0, 4.0])
    dt = 0.25
    nodes, weights = kernels.gauss_hermite(3)  # nodes -sqrt(3), 0, sqrt(3)
    T, admissible = kernels.transition_operator(x_grid, atoms, dt, 10.0, nodes, weights)
    drift = x_grid[:, None] + atoms[None, :] * dt
    np.testing.assert_array_equal(admissible, (drift >= 0.0) & (drift <= 1.0))
    assert not admissible.all() and admissible.any()
    for i in range(5):
        for j in range(3):
            expected = np.zeros(5)
            expected[0] += weights[0]
            i0, frac = kernels.grid_cell(drift[i, j], 0.0, 0.25, 5)
            expected[i0] += weights[1] * (1.0 - frac)
            expected[i0 + 1] += weights[1] * frac
            expected[4] += weights[2]
            np.testing.assert_allclose(T[i * 3 + j], expected, rtol=0, atol=1e-15)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_dp_and_push_forward_share_one_transition(seed):
    """The DP's value of mu0 is the reward its policy collects along the pushed law.

    The DP takes T @ V and the pushforward mu @ T on the rows the policy
    picks, so mu0 @ value[0] equals the chosen rewards summed along the
    pushed laws plus mu_T @ terminal, up to summation order.
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
    """The sweep with the running reward scaled and masked inside every step."""
    T, admissible = operator
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
    admissible = operator[1]
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
