"""Finite-player simulation and deviation-gap estimation."""

import numpy as np
import pytest

from ammgame.config import default_config
from ammgame.engine import simulate
from ammgame.errors import InvalidParameter
from ammgame.harness import (
    DeviationEstimate,
    NashReport,
    convergence_study,
    environment_from_trajectory,
    epsilon_nash_gap,
    simulate_n_players,
)
from ammgame.solver import forward_environment, solve_mfg


def quick_cfg(**kw):
    base = dict(grid_steps=10, grid_x_points=41, grid_control_points=5)
    base.update(kw)
    return default_config(**base)


def test_simulate_n_players_matches_engine_with_matching_count():
    """The harness wrapper is the engine run with n traders."""
    cfg = quick_cfg()
    sol = solve_mfg(cfg)
    pol = sol.policy.as_policy()
    traj = simulate_n_players(cfg, pol, sol.lp_control_path, seed=5, n_players=8)
    direct = simulate(cfg, pol, sol.lp_control_path, seed=5, n_traders=8)
    np.testing.assert_array_equal(traj.price_path, direct.price_path)
    np.testing.assert_array_equal(traj.trader_objectives, direct.trader_objectives)
    assert traj.trader_x.shape[0] == 8


def test_simulate_n_players_rejects_nonpositive():
    cfg = quick_cfg()
    sol = solve_mfg(cfg)
    with pytest.raises(InvalidParameter):
        simulate_n_players(cfg, sol.policy.as_policy(), sol.lp_control_path,
                           seed=1, n_players=0)


def test_environment_from_trajectory_reproduces_deterministic_env():
    """On a noise-free run the realized environment equals the solver's."""
    cfg = quick_cfg(trader_sigma=0.0, external_sigma0=0.0)
    steps = cfg.grid_steps
    lp_path = np.full(steps, 0.2)
    qbar = np.full(steps, 0.3)
    traj = simulate(cfg, lambda t, x: np.full(np.shape(x), 0.3), lp_path, seed=3,
                    n_traders=4)
    env_real = environment_from_trajectory(cfg, traj, lp_path)
    env_det = forward_environment(cfg, lp_path, qbar)
    np.testing.assert_allclose(env_real.price, env_det.price, rtol=1e-12)
    np.testing.assert_allclose(env_real.qbar, env_det.qbar, rtol=1e-12)
    np.testing.assert_allclose(env_real.g, env_det.g, rtol=1e-12)
    np.testing.assert_allclose(env_real.pd_reward, env_det.pd_reward, rtol=1e-12)
    np.testing.assert_allclose(env_real.delta, env_det.delta, rtol=1e-12, atol=1e-15)


def test_epsilon_nash_gap_fields_and_determinism():
    cfg = quick_cfg(harness_replications=6)
    sol = solve_mfg(cfg)
    est = epsilon_nash_gap(cfg, n_players=8, seed=21, solution=sol)
    assert isinstance(est, DeviationEstimate)
    assert est.n_players == 8
    assert est.replications == 6
    assert est.paired_gaps.shape == (6,)
    assert est.gap == pytest.approx(float(np.mean(est.paired_gaps)), rel=1e-15)
    expected_se = float(np.std(est.paired_gaps, ddof=1) / np.sqrt(6))
    assert est.stderr == pytest.approx(expected_se, rel=1e-12)
    again = epsilon_nash_gap(cfg, n_players=8, seed=21, solution=sol)
    np.testing.assert_array_equal(again.paired_gaps, est.paired_gaps)


def test_epsilon_nash_gap_common_noise_pairing():
    """Pairing cancels shared randomness: gap spread is far below objective spread."""
    cfg = quick_cfg(harness_replications=8)
    sol = solve_mfg(cfg)
    est = epsilon_nash_gap(cfg, n_players=8, seed=2, solution=sol)
    pol = sol.policy.as_policy()
    baselines = [
        simulate_n_players(cfg, pol, sol.lp_control_path, seed=s,
                           n_players=8).trader_objectives[0]
        for s in range(40, 48)
    ]
    assert np.std(est.paired_gaps) < 0.2 * np.std(baselines)


def test_epsilon_nash_gap_validates_replications():
    cfg = quick_cfg()
    sol = solve_mfg(cfg)
    with pytest.raises(InvalidParameter):
        epsilon_nash_gap(cfg, n_players=4, replications=1, seed=1, solution=sol)


def test_convergence_study_report_shape():
    cfg = quick_cfg(harness_n_values=(4, 8), harness_replications=5)
    report = convergence_study(cfg, seed=17)
    assert isinstance(report, NashReport)
    assert tuple(report.n_values) == (4, 8)
    assert len(report.estimates) == 2
    np.testing.assert_array_equal(report.gaps, [e.gap for e in report.estimates])
    np.testing.assert_array_equal(report.stderrs, [e.stderr for e in report.estimates])
    assert np.isfinite(report.slope) and np.isfinite(report.intercept)
    assert 0 <= report.n_clipped <= 2
    np.testing.assert_array_equal(report.clipped, report.gaps < 1e-12)
    assert report.n_clipped == int(report.clipped.sum())
    # the fitted line reproduces the clipped log-log regression
    logs = np.log(np.clip(report.gaps, 1e-12, None))
    coef = np.polyfit(np.log(report.n_values), logs, 1)
    assert report.slope == pytest.approx(coef[0], rel=1e-12)


def test_convergence_study_deterministic():
    cfg = quick_cfg(harness_n_values=(4, 8), harness_replications=4)
    a = convergence_study(cfg, seed=9)
    b = convergence_study(cfg, seed=9)
    np.testing.assert_array_equal(a.gaps, b.gaps)
    assert a.slope == b.slope
