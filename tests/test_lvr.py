"""Pool value, the drain rate, and the drain-vs-replication identity."""

import mpmath as mp
import numpy as np
import pytest

from ammgame.config import default_config
from ammgame.errors import InvalidParameter
from ammgame.lvr import (
    instantaneous_lvr,
    pool_value,
    rebalancing_position,
    replication_increment,
    run_lvr_experiment,
)


def test_pool_value_closed_form():
    """V(4) on k = 10000 is 2*sqrt(40000) = 400 exactly."""
    assert pool_value(4.0, 10000.0) == 400.0
    assert rebalancing_position(4.0, 10000.0) == 50.0
    np.testing.assert_allclose(
        pool_value(np.array([1.0, 4.0]), 10000.0), [200.0, 400.0], rtol=0
    )


def test_pool_value_is_min_of_marked_inventory():
    """P*x + k/x over x > 0 bottoms out at the pool value."""
    p, k = 2.7, 31415.0
    xs = np.linspace(0.1, 500.0, 20000)
    marked = p * xs + k / xs
    assert pool_value(p, k) <= marked.min() + 1e-6
    x_star = rebalancing_position(p, k)
    assert p * x_star + k / x_star == pytest.approx(pool_value(p, k), rel=1e-15)


def test_instantaneous_lvr_exact_point():
    """sigma=0.2, k=10000, P=4: rate = 0.01 * 200 = 2."""
    assert instantaneous_lvr(4.0, 0.2, 10000.0) == pytest.approx(2.0, rel=1e-15)
    assert instantaneous_lvr(4.0, 0.0, 10000.0) == 0.0
    with pytest.raises(InvalidParameter):
        instantaneous_lvr(-1.0, 0.2, 1.0)
    with pytest.raises(InvalidParameter):
        instantaneous_lvr(1.0, -0.2, 1.0)


def test_drain_rate_matches_value_curvature():
    """The rate equals -(sigma^2 P^2 / 2) V''(P), V'' by 50-digit differences."""
    mp.mp.dps = 50
    sigma = 0.2
    for p in (0.5, 1.0, 4.0, 25.0):
        for k in (100.0, 10000.0):
            h = mp.mpf("1e-10")
            f = lambda x: 2 * mp.sqrt(mp.mpf(k) * x)
            v2 = (f(mp.mpf(p) + h) - 2 * f(mp.mpf(p)) + f(mp.mpf(p) - h)) / h**2
            expected = float(-(sigma**2) * p**2 / 2 * v2)
            assert instantaneous_lvr(p, sigma, k) == pytest.approx(expected, rel=1e-10)


def test_replication_increment_is_left_point():
    inc = replication_increment(4.0, 4.1, 10000.0)
    assert inc == pytest.approx(50.0 * 0.1, rel=1e-12)


def test_experiment_identity_tightens_with_dt():
    """Mean |ARB - LVR| shrinks roughly like sqrt(dt) on a small ladder."""
    cfg = default_config(lvr_paths=400)
    coarse = run_lvr_experiment(cfg, dt=0.01)
    fine = run_lvr_experiment(cfg, dt=0.001)
    assert fine.mean_abs_residual < coarse.mean_abs_residual
    assert coarse.mean_abs_residual / fine.mean_abs_residual > 1.5


def test_experiment_paths_are_consistent():
    """Reported first-path arrays obey the identity ARB = V0 + hedge - V_T."""
    cfg = default_config(lvr_paths=50)
    acct = run_lvr_experiment(cfg, dt=0.01)
    assert acct.arb_gain == pytest.approx(
        acct.replication_path[-1] - acct.pool_value_path[-1], rel=1e-12
    )
    assert acct.terminal_arb[0] == pytest.approx(acct.arb_gain, rel=1e-12)
    assert acct.terminal_lvr[0] == pytest.approx(acct.lvr_path[-1], rel=1e-12)
    assert acct.lvr_path[0] == 0.0
    assert np.all(np.diff(acct.lvr_path) > 0)


def test_experiment_seeded_reproducibility():
    cfg = default_config(lvr_paths=64)
    a = run_lvr_experiment(cfg, dt=0.01, seed=42)
    b = run_lvr_experiment(cfg, dt=0.01, seed=42)
    c = run_lvr_experiment(cfg, dt=0.01, seed=43)
    np.testing.assert_array_equal(a.terminal_arb, b.terminal_arb)
    assert not np.array_equal(a.terminal_arb, c.terminal_arb)


def test_experiment_path_count_independent_of_chunking():
    """Per-path seeding makes results independent of the batch layout."""
    cfg = default_config(lvr_paths=10)
    full = run_lvr_experiment(cfg, dt=0.01, seed=5, n_paths=10)
    head = run_lvr_experiment(cfg, dt=0.01, seed=5, n_paths=3)
    np.testing.assert_array_equal(full.terminal_arb[:3], head.terminal_arb)


def test_experiment_rejects_bad_arguments():
    cfg = default_config()
    with pytest.raises(InvalidParameter):
        run_lvr_experiment(cfg, dt=-0.1)
    with pytest.raises(InvalidParameter):
        run_lvr_experiment(cfg, dt=0.01, n_paths=0)
