"""Simulator: seeding, one-step arithmetic, reductions, convergence, aborts.

The one-step expectations were computed in exact rational arithmetic for
x0 = y0 = 100, tau = 0.003, dt = 0.02, trader rate 0.4, LP rate 0.25, all
noise off, arbitrage on (drain rate 1 at the initial state) and frozen here.
"""

from dataclasses import replace

import numpy as np
import pytest

from ammgame.config import default_config, time_grid
from ammgame.engine import (
    TimeGrid,
    initial_trader_states,
    make_noise,
    simulate,
)
from ammgame.errors import DegenerateReserves, InvalidParameter


def one_step_config():
    return default_config(
        pool_x0=100.0, pool_y0=100.0, lp_z0=200.0,
        grid_horizon=0.02, grid_steps=1,
        trader_sigma=0.0, external_sigma0=0.0,
        engine_traders=2,
    )


def constant_policy(rate):
    return lambda t, x: np.full(np.shape(x), rate)


def test_time_grid_basics():
    grid = TimeGrid(1.0, 50)
    assert grid.dt == pytest.approx(0.02, rel=1e-15)
    assert len(grid.times()) == 51
    assert grid.times()[-1] == 1.0
    with pytest.raises(InvalidParameter):
        TimeGrid(1.0, 0)
    with pytest.raises(InvalidParameter):
        TimeGrid(-1.0, 5)


def test_noise_bundle_shapes_and_scaling():
    grid = TimeGrid(1.0, 50)
    noise = make_noise(7, grid, 40)
    assert noise.common.shape == (50,)
    assert noise.idiosyncratic.shape == (40, 50)
    assert noise.lp.shape == (3, 50)
    # increments are pre-scaled: sample variance near dt
    var = noise.idiosyncratic.var()
    assert var == pytest.approx(grid.dt, rel=0.15)


def test_noise_streams_depend_only_on_their_index():
    """Trader i's stream is the same no matter how many others are drawn."""
    grid = TimeGrid(1.0, 20)
    small = make_noise(7, grid, 3)
    big = make_noise(7, grid, 10)
    np.testing.assert_array_equal(small.idiosyncratic, big.idiosyncratic[:3])
    np.testing.assert_array_equal(small.common, big.common)
    different = make_noise(8, grid, 3)
    assert not np.array_equal(small.common, different.common)


def test_initial_trader_states_laws():
    cfg_point = default_config(trader_init_mean=0.3)
    assert np.all(initial_trader_states(cfg_point, 5, 1) == 0.3)
    cfg_gauss = default_config(trader_init_law="gaussian", trader_init_mean=0.0, trader_init_sd=0.5)
    draws = initial_trader_states(cfg_gauss, 4000, 1)
    assert draws.std() == pytest.approx(0.5, rel=0.1)
    np.testing.assert_array_equal(draws, initial_trader_states(cfg_gauss, 4000, 1))


def test_one_step_state_oracle():
    cfg = one_step_config()
    traj = simulate(cfg, constant_policy(0.4), [0.25], seed=1)
    assert traj.price_path[0] == 1.0
    assert traj.price_path[1] == pytest.approx(0.99966036000000003, rel=1e-14)
    assert traj.x_adj_path[1] == pytest.approx(100.005, rel=1e-15)
    assert traj.y_adj_path[1] == pytest.approx(100.005, rel=1e-15)
    assert traj.delta_path[1] == pytest.approx(0.012, rel=1e-13)
    assert traj.reserve_path[1] == pytest.approx(100.017, rel=1e-14)
    assert traj.lvr_rate_path[0] == pytest.approx(1.0, rel=1e-15)
    assert traj.lvr_cum_path[1] == pytest.approx(0.02, rel=1e-15)
    assert traj.invariant_path[0] == pytest.approx(10000.0, rel=1e-15)
    assert traj.invariant_path[1] == pytest.approx(10000.0035993894, rel=1e-12)
    assert traj.mean_control_path[0] == pytest.approx(0.4, rel=1e-15)


def test_one_step_trader_oracle():
    cfg = one_step_config()
    traj = simulate(cfg, constant_policy(0.4), [0.25], seed=1)
    assert traj.trader_reward[0, 0] == pytest.approx(0.39999820180541623, rel=1e-13)
    assert traj.trader_x[0, 1] == pytest.approx(0.008, rel=1e-15)
    assert traj.trader_y[0, 1] == pytest.approx(-0.0079680359638916749, rel=1e-13)
    assert traj.trader_objectives[0] == pytest.approx(0.0079359640361083249, rel=1e-12)
    np.testing.assert_array_equal(traj.trader_x[0], traj.trader_x[1])


def test_one_step_lp_oracle():
    cfg = one_step_config()
    traj = simulate(cfg, constant_policy(0.4), [0.25], seed=1)
    assert traj.lp_x_path[1] == pytest.approx(10.005, rel=1e-15)
    assert traj.lp_y_path[1] == pytest.approx(10.005, rel=1e-15)
    assert traj.lp_z_path[1] == pytest.approx(199.99, rel=1e-15)
    assert traj.x_adj_path[1] == pytest.approx(100.005, rel=1e-15)
    # reward = lp ETH stock times the mean-control-slot price drift
    assert traj.lp_reward_path[0] == pytest.approx(10.0 * -0.012988, rel=1e-13)


def test_same_seed_bitwise_reproducible():
    cfg = default_config(engine_traders=8)
    pol = constant_policy(0.1)
    lp = np.zeros(cfg.grid_steps)
    a = simulate(cfg, pol, lp, seed=99)
    b = simulate(cfg, pol, lp, seed=99)
    np.testing.assert_array_equal(a.price_path, b.price_path)
    np.testing.assert_array_equal(a.trader_x, b.trader_x)
    c = simulate(cfg, pol, lp, seed=100)
    assert not np.array_equal(a.trader_x, c.trader_x)


def test_explicit_noise_bundle_matches_seed_default():
    cfg = default_config(engine_traders=4)
    grid = time_grid(cfg)
    noise = make_noise(31, grid, 4)
    pol = constant_policy(-0.2)
    lp = np.zeros(grid.steps)
    a = simulate(cfg, pol, lp, seed=31)
    b = simulate(cfg, pol, lp, seed=31, noise=noise)
    np.testing.assert_array_equal(a.price_path, b.price_path)
    np.testing.assert_array_equal(a.trader_y, b.trader_y)


def test_step_zero_wealth_drift_identity():
    """At t=0 the state price equals the execution price, so the reward
    matches the marked wealth drift plus the slippage-adjusted notional."""
    cfg = default_config(
        pool_x0=100.0, pool_y0=100.0, lp_z0=200.0,
        model_flow_convention="display", arbitrage_enabled=False,
        trader_sigma=0.0, engine_traders=1,
        trader_init_mean=0.7, grid_steps=1, grid_horizon=0.02,
    )
    alpha = 0.4
    traj = simulate(cfg, constant_policy(alpha), [0.0], seed=1)
    p0 = traj.price_path[0]
    pd = (traj.price_path[1] - p0) / traj.market.dt
    phi = 1.0 - cfg.pool_tau
    wedge = (1 + phi * phi) / (2 * phi)
    slip = alpha / 100.0
    y_rate = -alpha * (1 - slip) * wedge * p0
    wealth_drift = y_rate + 0.7 * pd + alpha * p0
    offset = alpha * p0 * (1 - slip)
    assert traj.trader_reward[0, 0] - offset == pytest.approx(wealth_drift, rel=1e-12)


def test_cumulative_wealth_reconciliation():
    """Summed rewards minus the traded-notional offset track terminal wealth.

    Display convention with arbitrage off keeps the price equation and the
    reward on the same drift; the leftover is the O(dt^2) gap between the
    Euler price and the reserve-implied price.
    """
    cfg = default_config(
        model_flow_convention="display", arbitrage_enabled=False,
        trader_sigma=0.0, engine_traders=1, trader_init_mean=0.5,
    )
    alpha = 0.3
    lp = np.zeros(cfg.grid_steps)
    traj = simulate(cfg, constant_policy(alpha), lp, seed=2)
    dt = traj.market.dt
    wealth = traj.trader_y[0] + traj.trader_x[0] * traj.price_path
    slip = alpha / traj.reserve_path[:-1]
    offsets = alpha * (1.0 - slip) * traj.price_path[:-1]
    lhs = float(np.sum((traj.trader_reward[0] - offsets) * dt))
    # the discrete wealth change carries the cross term dx*dp the
    # continuous-time drift identity does not describe; remove it
    cross = float(np.sum(np.diff(traj.trader_x[0]) * np.diff(traj.price_path)))
    assert lhs == pytest.approx(wealth[-1] - wealth[0] - cross, abs=1e-6)


def test_price_path_first_order_in_dt():
    """Halving dt roughly halves the terminal-price discretization error."""

    def terminal_price(steps):
        cfg = default_config(
            grid_steps=steps, trader_sigma=0.0, engine_traders=1, external_sigma0=0.0
        )
        pol = lambda t, x: np.full(np.shape(x), 0.5 * np.sin(2 * np.pi * t / steps))
        return simulate(cfg, pol, np.zeros(steps), seed=3).price_path[-1]

    p1, p2, p4 = terminal_price(25), terminal_price(50), terminal_price(100)
    err_coarse = abs(p1 - p4)
    err_fine = abs(p2 - p4)
    assert err_fine < err_coarse
    assert err_coarse / err_fine > 1.5


def test_invariant_monotone_under_one_sided_flow():
    """With no traders the drain keeps delta rising, so k_t rises too."""
    cfg = default_config(external_sigma0=0.0)
    grid = time_grid(cfg)
    traj = simulate(cfg, constant_policy(0.0), np.zeros(cfg.grid_steps), seed=4,
                    noise=make_noise(4, grid, 0))
    assert np.all(np.diff(traj.delta_path) > 0)
    assert np.all(np.diff(traj.invariant_path) > 0)


def test_degenerate_reserves_aborts_with_step():
    cfg = default_config(engine_traders=1, trader_sigma=0.0)
    lp = np.full(cfg.grid_steps, -4000.0)  # drains the 1000-ETH pool mid-run
    with pytest.raises(DegenerateReserves) as err:
        simulate(cfg, constant_policy(0.0), lp, seed=6)
    assert err.value.step is not None
    assert err.value.step > 0


def test_lp_control_path_shape_validated():
    cfg = default_config()
    with pytest.raises(InvalidParameter):
        simulate(cfg, constant_policy(0.0), np.zeros(cfg.grid_steps + 1), seed=1)
    with pytest.raises(InvalidParameter):
        simulate(
            cfg, constant_policy(0.0), np.zeros(cfg.grid_steps), seed=1,
            noise=make_noise(1, TimeGrid(cfg.grid_horizon, cfg.grid_steps + 1), 2),
        )


def test_noise_bundle_short_in_steps_rejected():
    """Every stream of a given bundle must span the grid, not only the common one."""
    cfg = default_config()
    noise = make_noise(1, time_grid(cfg), 4)
    for short in (replace(noise, idiosyncratic=np.zeros((4, 10))),
                  replace(noise, lp=np.zeros((3, 10)))):
        with pytest.raises(InvalidParameter):
            simulate(cfg, constant_policy(0.0), np.zeros(cfg.grid_steps), seed=1, noise=short)


def test_noise_bundle_sets_population():
    """A bundle's idiosyncratic rows, not ``engine.traders``, count the traders."""
    cfg = default_config()
    assert cfg.engine_traders == 256
    grid = time_grid(cfg)
    pol, lp = constant_policy(0.1), np.zeros(grid.steps)
    traj = simulate(cfg, pol, lp, seed=5, noise=make_noise(5, grid, 8))
    assert traj.trader_x.shape == (8, grid.steps + 1)
    assert traj.trader_objectives.shape == (8,)
    eight = simulate(default_config(engine_traders=8), pol, lp, seed=5)
    np.testing.assert_array_equal(traj.trader_x, eight.trader_x)
    np.testing.assert_array_equal(traj.price_path, eight.price_path)
