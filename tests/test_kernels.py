"""Quadrature, the shared interpolation stencil, and DP/pushforward duality."""

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


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_dp_and_push_forward_share_one_transition(seed):
    """One atom, zero reward: mu0 @ value[0] equals (pushed mu0) @ terminal.

    The DP's value[0] is the one-step expectation of ``terminal`` and the
    pushforward moves ``mu0`` by the same transition, so the two pairings
    agree exactly up to summation order.
    """
    rng = np.random.default_rng(seed)
    nx = 31
    x_grid = np.linspace(-1.0, 1.0, nx)
    atoms = np.array([rng.uniform(-0.5, 0.5)])
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
    mu, overflow = kernels.push_forward(policy, mu0, x_grid, atoms, dt, sig, nodes, weights)
    assert not overflow
    assert mu[1] @ terminal == pytest.approx(mu0[admissible] @ value[0][admissible], abs=1e-12)


def test_push_forward_conserves_mass_and_flags_exits():
    x_grid = np.linspace(0.0, 1.0, 11)
    atoms = np.array([0.0, 2.0])
    nodes, weights = kernels.gauss_hermite(5)
    mu0 = np.full(11, 1.0 / 11.0)
    stay = np.zeros((3, 11), dtype=np.int64)
    mu, overflow = kernels.push_forward(stay, mu0, x_grid, atoms, 0.1, 0.0, nodes, weights)
    assert not overflow
    np.testing.assert_allclose(mu.sum(axis=1), 1.0, atol=1e-12)
    jump = np.ones((3, 11), dtype=np.int64)  # drift 0.2 pushes top mass out
    _, overflow = kernels.push_forward(jump, mu0, x_grid, atoms, 0.1, 0.0, nodes, weights)
    assert overflow
