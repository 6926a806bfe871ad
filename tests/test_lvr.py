"""Pool value, the drain rate, the path kernel and the drain-vs-replication identity."""

import math

import mpmath as mp
import numpy as np
import pytest

from ammgame import kernels
from ammgame.config import default_config
from ammgame.errors import InvalidParameter
from ammgame.lvr import _BLOCK, _TILE, instantaneous_lvr, pool_value, run_lvr_experiment


def one_step(p0, k, sigma=0.2, dt=0.01, z=0.7):
    """One kernel step of one path: (p1, hedge gain, drain)."""
    state = np.array([[p0], [0.0], [0.0]])
    kernels.lvr_paths(np.array([[z]]), state, sigma, dt, k)
    return tuple(state[:, 0])


def test_pool_value_closed_form():
    """V(4) on k = 10000 is 2*sqrt(40000) = 400 exactly; the hedge holds 50."""
    assert pool_value(4.0, 10000.0) == 400.0
    p1, hedge, _ = one_step(4.0, 10000.0)
    assert hedge == 50.0 * (p1 - 4.0)
    np.testing.assert_allclose(
        pool_value(np.array([1.0, 4.0]), 10000.0), [200.0, 400.0], rtol=0
    )


def test_pool_value_is_min_of_marked_inventory():
    """P*x + k/x over x > 0 bottoms out at the pool value."""
    p, k = 2.7, 31415.0
    xs = np.linspace(0.1, 500.0, 20000)
    marked = p * xs + k / xs
    assert pool_value(p, k) <= marked.min() + 1e-6
    p1, hedge, _ = one_step(p, k)
    x_star = hedge / (p1 - p)  # the kernel's holding over the step
    assert p * x_star + k / x_star == pytest.approx(pool_value(p, k), rel=1e-15)


def test_instantaneous_lvr_exact_point():
    """sigma=0.2, k=10000, P=4: rate = 0.01 * 200 = 2."""
    assert instantaneous_lvr(4.0, 0.2, 10000.0) == pytest.approx(2.0, rel=1e-15)
    assert instantaneous_lvr(4.0, 0.0, 10000.0) == 0.0
    assert instantaneous_lvr(np.float64(4.0), np.float64(0.2), np.float64(10000.0)) == (
        instantaneous_lvr(4.0, 0.2, 10000.0))
    for arg, bad, name in [("p", -1.0, "price"), ("k", np.nan, "invariant"),
                           ("sigma", -0.2, "volatility"), ("sigma", np.nan, "volatility")]:
        # a numpy scalar takes the scalar lane, which must reject the same values
        for value in (bad, np.float64(bad)):
            with pytest.raises(InvalidParameter, match=name):
                instantaneous_lvr(**{"p": 1.0, "sigma": 0.2, "k": 1.0, arg: value})


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
    """The kernel holds sqrt(k/P) at the step's left point, and drains at it too."""
    p1, hedge, drain = one_step(4.0, 10000.0, z=2.5)
    assert p1 > 4.1
    assert hedge == pytest.approx(50.0 * (p1 - 4.0), rel=1e-15)
    assert drain == pytest.approx(instantaneous_lvr(4.0, 0.2, 10000.0) * 0.01, rel=1e-15)


def test_experiment_identity_tightens_with_dt():
    """Mean |ARB - LVR| shrinks roughly like sqrt(dt) on a small ladder."""
    cfg = default_config(lvr_paths=400)
    coarse = run_lvr_experiment(cfg, dt=0.01)
    fine = run_lvr_experiment(cfg, dt=0.001)
    assert fine.mean_abs_residual < coarse.mean_abs_residual
    assert coarse.mean_abs_residual / fine.mean_abs_residual > 1.5


def test_experiment_seeded_reproducibility():
    a = run_lvr_experiment(default_config(lvr_paths=64, seed=42), dt=0.01)
    b = run_lvr_experiment(default_config(lvr_paths=64, seed=42), dt=0.01)
    c = run_lvr_experiment(default_config(lvr_paths=64, seed=43), dt=0.01)
    np.testing.assert_array_equal(a.terminal_arb, b.terminal_arb)
    assert not np.array_equal(a.terminal_arb, c.terminal_arb)


def test_experiment_path_count_independent_of_chunking():
    """Per-path seeding makes results independent of the batch layout."""
    full = run_lvr_experiment(default_config(lvr_paths=10, seed=5), dt=0.01)
    head = run_lvr_experiment(default_config(lvr_paths=3, seed=5), dt=0.01)
    np.testing.assert_array_equal(full.terminal_arb[:3], head.terminal_arb)


def scalar_replay(seed, index, n_steps, p0, sigma, dt, k):
    """Terminal (V, R, LVR) of one stream from a plain ``math`` loop over its draws."""
    z = np.random.default_rng(np.random.SeedSequence((seed, index))).standard_normal(n_steps)
    p, hedge, drain = p0, 0.0, 0.0
    for zt in z.tolist():
        drain += sigma * sigma * math.sqrt(k * p) / 4.0 * dt
        p_next = p * math.exp(-0.5 * sigma * sigma * dt + sigma * math.sqrt(dt) * zt)
        hedge += math.sqrt(k / p) * (p_next - p)
        p = p_next
    return 2.0 * math.sqrt(k * p), 2.0 * math.sqrt(k * p0) + hedge, drain


@pytest.mark.parametrize(
    "n_steps, n_paths",
    [
        (2 * _BLOCK + 7, _TILE + 3),  # several blocks, last one short; two tiles
        (_BLOCK // 3, 5),  # one block shorter than _BLOCK
        (_BLOCK + 1, 2),  # the fewest paths the config allows
    ],
)
def test_kernel_matches_scalar_replay(n_steps, n_paths):
    """Terminals of every path equal a per-stream scalar loop.

    The kernel steps all paths over blocks of shared rows; the replay draws
    each stream in one call and steps it alone, with sqrt(k/P) as the hedge.
    Tolerance: a few roundings of the pool value per step, over n_steps steps
    (seen: at most 0.04 of that).
    """
    seed, sigma = 77, 0.3
    cfg = default_config(lvr_paths=n_paths, external_sigma=sigma, seed=seed)
    dt = cfg.grid_horizon / n_steps
    k = cfg.pool_x0 * cfg.pool_y0
    p0 = cfg.pool_y0 / cfg.pool_x0
    acct = run_lvr_experiment(cfg, dt=dt)
    assert len(acct.terminal_arb) == n_paths
    tol = dict(rtol=0, atol=4 * np.finfo(float).eps * n_steps * 2.0 * math.sqrt(k * p0))
    for i in range(n_paths):
        v, r, lvr = scalar_replay(seed, i, n_steps, p0, sigma, dt, k)
        np.testing.assert_allclose(acct.terminal_pool_value[i], v, **tol)
        np.testing.assert_allclose(acct.terminal_replication[i], r, **tol)
        np.testing.assert_allclose(acct.terminal_lvr[i], lvr, **tol)
        np.testing.assert_allclose(acct.terminal_arb[i], r - v, **tol)


def test_experiment_rejects_bad_arguments():
    """A step size must cut the horizon into whole steps, as lvr.dt_values must."""
    cfg = default_config(lvr_paths=2)
    for dt in (-0.1, 0.0, 5.0, 0.3):
        with pytest.raises(InvalidParameter, match="dt = "):
            run_lvr_experiment(cfg, dt=dt)
