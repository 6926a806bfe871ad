"""Finite-player simulation and deviation-gap estimation."""

from dataclasses import fields, replace

import numpy as np
import pytest
from conftest import small_config

from ammgame import harness, market
from ammgame.config import default_config, time_grid
from ammgame.engine import make_noise, simulate
from ammgame.errors import ConfigError, InvalidParameter
from ammgame.harness import (
    DeviationEstimate,
    NashReport,
    convergence_study,
    epsilon_nash_gap,
)
from ammgame.solver import best_response, forward_environment, solve_mfg


def _shifted(cfg, policy, shift=0.5):
    """A deviation: ``policy`` raised by ``shift``, kept in the control range."""
    def deviation(t, x):
        return np.clip(policy(t, x) + shift, cfg.trader_a_min, cfg.trader_a_max)
    return deviation


def _ladder(cfg, sol, n_values, reps):
    """One ``_paired_gaps`` group per N: a pilot of N players on its own
    noise, a deviation shifted by its own amount, and ``reps`` replications."""
    policy = sol.policy.as_policy()
    grid = time_grid(cfg)
    groups = []
    for k, n in enumerate(n_values):
        noise = make_noise(5 + k, grid, n)
        own = np.random.default_rng(k).standard_normal((reps, grid.steps)) * np.sqrt(grid.dt)
        pilot = simulate(cfg, policy, sol.env.lp_control_path, 5 + k, noise=noise)
        groups.append((pilot, _shifted(cfg, policy, 0.5 + 0.25 * k), noise, own))
    return policy, groups


@pytest.mark.parametrize("n_players", [1, 2, 8])
def test_paired_lanes_match_engine_runs(n_players):
    """One lane batch gives the gaps of two engine runs per replication, bit
    for bit, from a lone player (no crowd) to a crowd of seven."""
    cfg = small_config(trader_init_law="gaussian", lp_sigma_z=0.5, external_sigma0=0.02)
    sol = solve_mfg(cfg)
    policy = sol.policy.as_policy()
    deviation = _shifted(cfg, policy)

    def deviant(t, x):
        """Player 0 plays ``deviation``, the others ``policy``."""
        alpha = np.asarray(policy(t, x), dtype=float).copy()
        alpha[0] = deviation(t, x[0:1])[0]
        return alpha

    grid = time_grid(cfg)
    lp_path = np.linspace(0.5, -0.5, grid.steps)
    noise = make_noise(5, grid, n_players)
    own = np.random.default_rng(1).standard_normal((3, grid.steps)) * np.sqrt(grid.dt)
    pilot = simulate(cfg, policy, lp_path, 5, noise=noise)
    (gaps,) = harness._paired_gaps(cfg, policy, [(pilot, deviation, noise, own)])
    for r in range(3):
        idio = noise.idiosyncratic.copy()
        idio[0] = own[r]
        bundle = replace(noise, idiosyncratic=idio)
        base = simulate(cfg, policy, lp_path, 5, noise=bundle)
        dev = simulate(cfg, deviant, lp_path, 5, noise=bundle)
        assert gaps[r] == dev.trader_objectives[0] - base.trader_objectives[0]
    assert np.any(gaps != 0.0)


def test_ladder_lanes_match_one_group_batches():
    """A lane's numbers do not depend on the batch: each N's paired gaps from
    the ladder's one lane batch equal, bit for bit, a batch holding that N
    alone, with a lone player, random openings, LP noise and common noise."""
    cfg = small_config(trader_init_law="gaussian", lp_sigma_z=0.5, external_sigma0=0.02)
    policy, groups = _ladder(cfg, solve_mfg(cfg), (1, 5, 12), 3)
    ladder = harness._paired_gaps(cfg, policy, groups)
    assert ladder.shape == (3, 3)
    for group, gaps in zip(groups, ladder):
        (alone,) = harness._paired_gaps(cfg, policy, [group])
        np.testing.assert_array_equal(gaps, alone)
        assert np.any(gaps != 0.0)


def test_paired_lanes_step_only_the_deviator(monkeypatch):
    """Players 1..N-1 replay the pilot and every N steps in one batch: the
    crowd's controls are one ``policy`` table per pilot, and the ladder takes
    ``grid.steps`` market steps, each carrying player 0's (2R·len(n_values),
    1) stocks alone after one ``policy`` call on them; the gaps are
    unchanged."""
    cfg = small_config(trader_init_law="gaussian")
    sol = solve_mfg(cfg)
    grid = time_grid(cfg)
    policy, groups = _ladder(cfg, sol, (8, 3), 3)
    expected = harness._paired_gaps(cfg, policy, groups)

    shapes, asked = [], []
    step = market.step

    def spy(mk, s, *rest):
        shapes.append(s.trader_x.shape)
        return step(mk, s, *rest)

    def watched(t, x):
        asked.append(np.shape(x))
        return policy(t, x)

    monkeypatch.setattr(harness.market, "step", spy)
    gaps = harness._paired_gaps(cfg, watched, groups)
    lanes = 2 * 3 * 2
    assert shapes == [(lanes, 1)] * grid.steps
    assert asked == [(7, grid.steps), (2, grid.steps)] + [(lanes,)] * grid.steps
    np.testing.assert_array_equal(gaps, expected)


def test_simulate_n_players_rejects_nonpositive():
    """An N-player deviation run needs at least one player: the config
    refuses a population size of 0, naming the key."""
    with pytest.raises(ConfigError) as err:
        small_config(harness_n_values=(0, 8))
    assert err.value.key == "harness.n_values"


def test_epsilon_nash_gap_rejects_solution_off_the_config_layer():
    """A solution on another inventory grid, step count or time step is
    refused, not paired with a deviation on the config's layer."""
    ladder = {"harness_n_values": (4, 8), "harness_replications": 4}
    cfg = default_config(grid_steps=10, grid_control_points=5, **ladder)
    sol = solve_mfg(default_config(grid_steps=10, grid_control_points=5, grid_x_points=21,
                                   **ladder))
    with pytest.raises(InvalidParameter, match="inventory grid of 21 points.*101 points"):
        epsilon_nash_gap(cfg, sol, 1)
    other_steps = solve_mfg(small_config(grid_steps=20))
    with pytest.raises(InvalidParameter, match="step count 20, the config's 10"):
        epsilon_nash_gap(small_config(harness_n_values=(4, 8)), other_steps, 1)
    # same step count on a longer horizon: every policy array matches, the dt does not
    other_horizon = solve_mfg(small_config(grid_horizon=2.0, **ladder))
    with pytest.raises(InvalidParameter, match="time step 0.2 is not the config's 0.1"):
        epsilon_nash_gap(small_config(**ladder), other_horizon, 1)


def test_pilot_environment_reproduces_deterministic_env(monkeypatch):
    """On a noise-free pilot the deviation answers the solver's environment exactly."""
    cfg = small_config(trader_sigma=0.0, external_sigma0=0.0, harness_n_values=(4, 8),
                       harness_replications=2)
    lp_path = np.full(cfg.grid_steps, 0.2)
    sol = solve_mfg(cfg, lp_path)
    seen = []

    def spy(config, env, **kw):
        seen.append(env)
        return best_response(config, env, **kw)

    monkeypatch.setattr(harness, "best_response", spy)
    epsilon_nash_gap(cfg, seed=3, solution=sol)
    assert len(seen) == 2  # one deviation per N
    for env_real in seen:
        env_det = forward_environment(cfg, lp_path, env_real.mean_control_path)
        for f in fields(env_det):
            if getattr(env_det, f.name) is not None:  # the pilot also records its traders
                np.testing.assert_array_equal(getattr(env_real, f.name),
                                              getattr(env_det, f.name))


def test_epsilon_nash_gap_fields_and_determinism():
    cfg = small_config(harness_n_values=(8, 3), harness_replications=6)
    sol = solve_mfg(cfg)
    est, other = epsilon_nash_gap(cfg, seed=21, solution=sol)
    assert isinstance(est, DeviationEstimate)
    assert est.n_players == 8 and other.n_players == 3
    assert est.paired_gaps.shape == (6,)
    assert est.gap == pytest.approx(float(np.mean(est.paired_gaps)), rel=1e-15)
    expected_se = float(np.std(est.paired_gaps, ddof=1) / np.sqrt(6))
    assert est.stderr == pytest.approx(expected_se, rel=1e-12)
    again, _ = epsilon_nash_gap(cfg, seed=21, solution=sol)
    np.testing.assert_array_equal(again.paired_gaps, est.paired_gaps)


def test_epsilon_nash_gap_common_noise_pairing():
    """Pairing cancels shared randomness: gap spread is far below objective spread."""
    cfg = small_config(harness_n_values=(8, 16), harness_replications=8)
    sol = solve_mfg(cfg)
    est, _ = epsilon_nash_gap(cfg, seed=2, solution=sol)
    pol, grid = sol.policy.as_policy(), time_grid(cfg)
    baselines = [
        simulate(cfg, pol, sol.env.lp_control_path, seed=s,
                 noise=make_noise(s, grid, 8)).trader_objectives[0]
        for s in range(40, 48)
    ]
    assert np.std(est.paired_gaps) < 0.2 * np.std(baselines)


def test_convergence_study_report_shape():
    cfg = small_config(harness_n_values=(4, 8), harness_replications=5)
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
    cfg = small_config(harness_n_values=(4, 8), harness_replications=4)
    a = convergence_study(cfg, seed=9)
    b = convergence_study(cfg, seed=9)
    np.testing.assert_array_equal(a.gaps, b.gaps)
    assert a.slope == b.slope
