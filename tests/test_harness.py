"""Finite-player simulation and deviation-gap estimation."""

from dataclasses import fields, replace

import numpy as np
import pytest

from ammgame import harness
from ammgame.config import default_config, time_grid
from ammgame.engine import make_noise, simulate
from ammgame.errors import InvalidParameter
from ammgame.harness import (
    DeviationEstimate,
    NashReport,
    convergence_study,
    epsilon_nash_gap,
)
from ammgame.solver import best_response, forward_environment, solve_mfg


def quick_cfg(**kw):
    base = dict(grid_steps=10, grid_x_points=41, grid_control_points=5)
    base.update(kw)
    return default_config(**base)


def test_paired_lanes_match_engine_runs():
    """One lane batch gives the gaps of two engine runs per replication, bit for bit."""
    cfg = quick_cfg(trader_init_law="gaussian", lp_sigma_z=0.5, external_sigma0=0.02)
    sol = solve_mfg(cfg)
    policy = sol.policy.as_policy()

    def deviation(t, x):
        return np.clip(policy(t, x) + 0.5, cfg.trader_a_min, cfg.trader_a_max)

    def deviant(t, x):
        """Player 0 plays ``deviation``, the others ``policy``."""
        alpha = np.asarray(policy(t, x), dtype=float).copy()
        alpha[0] = deviation(t, x[0:1])[0]
        return alpha

    grid = time_grid(cfg)
    lp_path = np.linspace(0.5, -0.5, grid.steps)
    noise = make_noise(5, grid, 8)
    own = np.random.default_rng(1).standard_normal((3, grid.steps)) * np.sqrt(grid.dt)
    pilot = simulate(cfg, policy, lp_path, 5, noise=noise)
    gaps = harness._paired_gaps(cfg, pilot, policy, deviation, noise, own)
    for r in range(3):
        idio = noise.idiosyncratic.copy()
        idio[0] = own[r]
        bundle = replace(noise, idiosyncratic=idio)
        base = simulate(cfg, policy, lp_path, 5, noise=bundle)
        dev = simulate(cfg, deviant, lp_path, 5, noise=bundle)
        assert gaps[r] == dev.trader_objectives[0] - base.trader_objectives[0]
    assert np.any(gaps != 0.0)


def test_simulate_n_players_rejects_nonpositive():
    """An N-player deviation run needs at least one player."""
    cfg = quick_cfg()
    sol = solve_mfg(cfg)
    with pytest.raises(InvalidParameter):
        epsilon_nash_gap(cfg, n_players=0, seed=1, solution=sol)


def test_epsilon_nash_gap_rejects_solution_off_the_config_layer():
    """A solution on another inventory grid, step count or time step is
    refused, not paired with a deviation on the config's layer."""
    cfg = default_config(grid_steps=10, grid_control_points=5, harness_replications=4)
    sol = solve_mfg(default_config(grid_steps=10, grid_control_points=5, grid_x_points=21,
                                   harness_replications=4))
    with pytest.raises(InvalidParameter, match="inventory grid of 21 points.*101 points"):
        epsilon_nash_gap(cfg, 4, sol, 1)
    other_steps = solve_mfg(quick_cfg(grid_steps=20))
    with pytest.raises(InvalidParameter, match="step count 20, the config's 10"):
        epsilon_nash_gap(quick_cfg(), 4, other_steps, 1)
    # same step count on a longer horizon: every policy array matches, the dt does not
    other_horizon = solve_mfg(quick_cfg(grid_horizon=2.0, harness_replications=4))
    with pytest.raises(InvalidParameter, match="time step 0.2 is not the config's 0.1"):
        epsilon_nash_gap(quick_cfg(harness_replications=4), 4, other_horizon, 1)


def test_pilot_environment_reproduces_deterministic_env(monkeypatch):
    """On a noise-free pilot the deviation answers the solver's environment exactly."""
    cfg = quick_cfg(trader_sigma=0.0, external_sigma0=0.0, harness_replications=2)
    lp_path = np.full(cfg.grid_steps, 0.2)
    sol = solve_mfg(cfg, lp_path)
    seen = []

    def spy(config, env, **kw):
        seen.append(env)
        return best_response(config, env, **kw)

    monkeypatch.setattr(harness, "best_response", spy)
    epsilon_nash_gap(cfg, n_players=4, seed=3, solution=sol)
    (env_real,) = seen
    env_det = forward_environment(cfg, lp_path, env_real.mean_control_path)
    for f in fields(env_det):
        if getattr(env_det, f.name) is not None:  # the pilot also records its traders
            np.testing.assert_array_equal(getattr(env_real, f.name), getattr(env_det, f.name))


def test_epsilon_nash_gap_fields_and_determinism():
    cfg = quick_cfg(harness_replications=6)
    sol = solve_mfg(cfg)
    est = epsilon_nash_gap(cfg, n_players=8, seed=21, solution=sol)
    assert isinstance(est, DeviationEstimate)
    assert est.n_players == 8
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
    pol, grid = sol.policy.as_policy(), time_grid(cfg)
    baselines = [
        simulate(cfg, pol, sol.env.lp_control_path, seed=s,
                 noise=make_noise(s, grid, 8)).trader_objectives[0]
        for s in range(40, 48)
    ]
    assert np.std(est.paired_gaps) < 0.2 * np.std(baselines)


def test_convergence_study_report_shape():
    cfg = quick_cfg(harness_n_values=(4, 8), harness_replications=5)
    report = convergence_study(cfg, seed=17)
    assert isinstance(report, NashReport)
    assert tuple(report.n_values) == (4, 8)
    assert len(report.estimates) == 2
    np.testing.assert_array_equal(report.gaps, [e.gap for e in report.estimates])
    np.testing.assert_array_equal(report.stderrs, [e.stderr for e in report.estimates])
    assert np.isfinite(report.slope)
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
