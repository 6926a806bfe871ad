"""Best response, measure pushforward, fixed point, and the LP search."""

import ast
import itertools
import math
import weakref
from dataclasses import fields, replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from conftest import small_config

from ammgame import kernels, market, solver
from ammgame.config import default_config, time_grid
from ammgame.engine import simulate
from ammgame.errors import DegenerateReserves, InvalidParameter, NotConverged
from ammgame.solver import (
    FlowOfMeasures,
    best_response,
    forward_environment,
    induced_flows,
    initial_trader_law,
    lp_objective,
    lp_path_from_segments,
    solve_major_minor,
    solve_mfg,
    tabulate_rewards,
    trader_grids,
    trader_layer,
    wasserstein_grid,
)


small_cfg = partial(small_config, engine_traders=16)


# ---------------------------------------------------------------------------
# grids, laws, transport distance
# ---------------------------------------------------------------------------


def test_trader_grids_shapes():
    cfg = default_config()
    x_grid, atoms = trader_grids(cfg)
    assert len(x_grid) == cfg.grid_x_points
    assert len(atoms) == cfg.grid_control_points
    assert x_grid[0] == cfg.grid_x_min and x_grid[-1] == cfg.grid_x_max
    assert atoms[0] == cfg.trader_a_min and atoms[-1] == cfg.trader_a_max


def test_initial_law_point_on_node():
    cfg = default_config(trader_init_mean=0.0)
    x_grid, _ = trader_grids(cfg)
    mu0 = initial_trader_law(cfg, x_grid)
    assert mu0.sum() == pytest.approx(1.0, abs=1e-15)
    assert mu0[50] == pytest.approx(1.0, abs=1e-12)


def test_initial_law_point_between_nodes():
    cfg = default_config(trader_init_mean=0.01)  # between nodes at 0.0 and 0.04
    x_grid, _ = trader_grids(cfg)
    mu0 = initial_trader_law(cfg, x_grid)
    assert mu0[50] == pytest.approx(0.75, abs=1e-12)
    assert mu0[51] == pytest.approx(0.25, abs=1e-12)
    assert mu0.sum() == pytest.approx(1.0, abs=1e-15)


def test_initial_law_gaussian_normalized():
    cfg = default_config(trader_init_law="gaussian", trader_init_mean=0.2, trader_init_sd=0.3)
    x_grid, _ = trader_grids(cfg)
    mu0 = initial_trader_law(cfg, x_grid)
    assert mu0.sum() == pytest.approx(1.0, abs=1e-12)
    assert x_grid[np.argmax(mu0)] == pytest.approx(0.2, abs=0.04)


def test_wasserstein_point_mass_shift():
    """Moving a unit mass by two cells costs two spacings."""
    u = np.array([1.0, 0.0, 0.0, 0.0])
    v = np.array([0.0, 0.0, 1.0, 0.0])
    assert wasserstein_grid(u, v, 0.5) == pytest.approx(1.0, abs=1e-15)
    assert wasserstein_grid(v, u, 0.5) == pytest.approx(1.0, abs=1e-15)
    assert wasserstein_grid(u, u, 0.5) == 0.0


def test_wasserstein_split_mass():
    u = np.array([0.5, 0.5, 0.0])
    v = np.array([0.0, 0.0, 1.0])
    # half moves two cells, half moves one: 1.5 spacings
    assert wasserstein_grid(u, v, 1.0) == pytest.approx(1.5, abs=1e-15)


def test_wasserstein_stacked_rows_equal_row_by_row_calls():
    rng = np.random.default_rng(5)
    u, v = rng.random((7, 101)), rng.random((7, 101))
    rows = wasserstein_grid(u, v, 0.04)
    assert rows.shape == (7,)
    assert isinstance(wasserstein_grid(u[0], v[0], 0.04), float)
    np.testing.assert_array_equal(rows, [wasserstein_grid(a, b, 0.04) for a, b in zip(u, v)])


# ---------------------------------------------------------------------------
# deterministic environment
# ---------------------------------------------------------------------------


def test_forward_environment_matches_noise_free_engine():
    """Traders reach the market only through the mean control: the solver's
    trader-free lane records what a noise-free simulation at that mean records."""
    cfg = default_config(trader_sigma=0.0, external_sigma0=0.0, engine_traders=4)
    steps = cfg.grid_steps
    alpha = 0.3
    lp_path = np.linspace(0.5, -0.5, steps)
    qbar = np.full(steps, alpha)
    env = forward_environment(cfg, lp_path, qbar)
    traj = simulate(cfg, lambda t, x: np.full(np.shape(x), alpha), lp_path, seed=11)
    np.testing.assert_array_equal(traj.mean_control_path, qbar)
    for f in fields(env):
        if f.name.startswith("trader_"):
            assert getattr(env, f.name) is None
        else:
            np.testing.assert_array_equal(getattr(env, f.name), getattr(traj, f.name))
    for derived in ("reserve_path", "invariant_path", "lvr_cum_path"):
        np.testing.assert_array_equal(getattr(env, derived), getattr(traj, derived))


def test_forward_environment_rejects_bad_shapes_and_degeneracy():
    cfg = default_config()
    with pytest.raises(InvalidParameter):
        forward_environment(cfg, np.zeros(3), np.zeros(cfg.grid_steps))
    drain = np.full(default_config().grid_steps, -4000.0)
    with pytest.raises(DegenerateReserves):
        forward_environment(cfg, drain, np.zeros(cfg.grid_steps))


def test_tabulate_rewards_matches_agent_formula():
    """The reward table agrees with the market step's trader reward at sampled entries."""
    cfg = small_cfg()
    steps = cfg.grid_steps
    env = forward_environment(cfg, np.full(steps, 0.3), np.full(steps, 0.2))
    x_grid, atoms = trader_grids(cfg)
    table = tabulate_rewards(cfg, env, env.mean_control_path[:, None])
    assert table.shape == (steps, len(x_grid), len(atoms))
    mk = market.Market.from_config(cfg)
    for t, ix, ja in ((0, 0, 0), (3, 20, 2), (9, 40, 4)):
        state = market.MarketState(
            price=env.price_path[t], x_adj=env.x_adj_path[t], y_adj=cfg.pool_y0,
            delta=env.delta_path[t], lp_x=0.0, lp_y=0.0, lp_z=0.0,
            trader_x=np.array([x_grid[ix]]), trader_y=np.zeros(1),
        )
        _, flows = market.step(mk, state, t, np.array([atoms[ja]]), env.mean_control_path[t],
                               env.lp_control_path[t], 0, 0, (0, 0, 0))
        assert table[t, ix, ja] == pytest.approx(flows.trader_reward[0], rel=1e-12)


def test_tabulate_rewards_own_weight_continuity():
    """A vanishing own-control weight in the slot recovers the frozen-mean-field table."""
    cfg = small_cfg()
    steps = cfg.grid_steps
    env = forward_environment(cfg, np.zeros(steps), np.full(steps, 0.2))
    qbar = env.mean_control_path
    atoms = trader_layer(cfg).atoms
    base = tabulate_rewards(cfg, env, qbar[:, None])
    perturbed = tabulate_rewards(cfg, env, qbar[:, None] + 1e-12 * atoms[None, :])
    np.testing.assert_allclose(perturbed, base, rtol=1e-9, atol=1e-12)


def test_best_response_rejects_misshapen_slot():
    """A mean-control slot is (steps, 1) or (steps, atoms); any other shape is named."""
    cfg = small_cfg()
    steps = cfg.grid_steps
    env = forward_environment(cfg, np.zeros(steps), np.full(steps, 0.2))
    qbar = env.mean_control_path
    for slot in (qbar, np.zeros((steps, 3)), np.zeros((steps - 1, 1)), np.float64(0.5)):
        with pytest.raises(InvalidParameter, match="mean-control slot"):
            best_response(cfg, env, slot)
    full = qbar[:, None] + 0.0 * trader_layer(cfg).atoms[None, :]
    np.testing.assert_array_equal(best_response(cfg, env, full).policy_idx,
                                  best_response(cfg, env).policy_idx)


# ---------------------------------------------------------------------------
# backward DP
# ---------------------------------------------------------------------------


def test_best_response_bellman_residual():
    """At every (t, node) the value is the chosen atom's reward plus continuation."""
    cfg = small_cfg()
    steps = cfg.grid_steps
    env = forward_environment(cfg, np.zeros(steps), np.full(steps, 0.1))
    pol = best_response(cfg, env)
    x_grid, atoms = trader_grids(cfg)
    rewards = tabulate_rewards(cfg, env, env.mean_control_path[:, None])
    nodes, weights = kernels.gauss_hermite(cfg.grid_quad_points)
    grid = time_grid(cfg)
    sig = cfg.trader_sigma * np.sqrt(grid.dt)
    h = x_grid[1] - x_grid[0]
    ix = np.arange(len(x_grid))
    for t in range(steps):
        j = pol.policy_idx[t]
        samples = (x_grid + atoms[j] * grid.dt)[:, None] + sig * nodes[None, :]
        i0, frac = kernels.grid_cell(samples, x_grid[0], h, len(x_grid))
        nxt = pol.value[t + 1]
        cont = (nxt[i0] * (1.0 - frac) + nxt[i0 + 1] * frac) @ weights
        bellman = rewards[t, ix, j] * grid.dt + cont
        assert np.max(np.abs(bellman - pol.value[t])) <= 1e-10


def test_best_response_no_better_single_deviation():
    """No control atom improves on the chosen one at sampled nodes."""
    cfg = small_cfg()
    steps = cfg.grid_steps
    env = forward_environment(cfg, np.zeros(steps), np.full(steps, 0.1))
    pol = best_response(cfg, env)
    x_grid, atoms = trader_grids(cfg)
    rewards = tabulate_rewards(cfg, env, env.mean_control_path[:, None])
    grid = time_grid(cfg)
    nodes, weights = kernels.gauss_hermite(cfg.grid_quad_points)
    sig = cfg.trader_sigma * np.sqrt(grid.dt)
    h = x_grid[1] - x_grid[0]
    rng = np.random.default_rng(0)
    for _ in range(40):
        t = int(rng.integers(0, steps))
        i = int(rng.integers(0, len(x_grid)))
        chosen = pol.value[t, i]
        for j, a in enumerate(atoms):
            target = x_grid[i] + a * grid.dt
            if target < x_grid[0] or target > x_grid[-1]:
                continue
            i0, frac = kernels.grid_cell(target + sig * nodes, x_grid[0], h, len(x_grid))
            nxt = pol.value[t + 1]
            cont = (nxt[i0] * (1.0 - frac) + nxt[i0 + 1] * frac) @ weights
            assert rewards[t, i, j] * grid.dt + cont <= chosen + 1e-10


def test_best_response_terminal_value():
    cfg = small_cfg()
    env = forward_environment(cfg, np.zeros(cfg.grid_steps), np.zeros(cfg.grid_steps))
    pol = best_response(cfg, env)
    x_grid, _ = trader_grids(cfg)
    np.testing.assert_array_equal(pol.value[-1], -cfg.trader_terminal_weight * x_grid**2)


def test_dp_ties_break_to_lowest_index():
    """Identical candidate values must select the first admissible atom."""
    x_grid = np.linspace(-1.0, 1.0, 5)
    atoms = np.array([-0.5, 0.0, 0.5])
    reward = np.zeros((2, 5, 3))
    terminal = np.zeros(5)
    nodes, weights = kernels.gauss_hermite(3)
    value, policy, ok = kernels.dp_backward(
        reward, terminal, x_grid, atoms, 1.0, 0.0, nodes, weights
    )
    assert ok.all()
    # interior nodes admit every atom, so index 0 wins the tie
    np.testing.assert_array_equal(policy[:, 1:-1], 0)
    # the bottom node cannot move further down: first admissible is index 1
    assert policy[0, 0] == 1
    np.testing.assert_array_equal(value, 0.0)


def test_dp_matches_enumeration_on_exact_lattice():
    """sigma=0 with lattice-aligned moves: DP equals open-loop enumeration bitwise.

    One quadrature node carries weight exactly 1.0, so the continuation
    lookup is the bare node value and no rounding enters anywhere.
    """
    x_grid = np.linspace(-0.5, 0.5, 5)  # spacing 0.25, exactly representable
    atoms = np.array([-1.0, 0.0, 1.0])
    dt = 0.25
    steps = 2
    rng = np.random.default_rng(123)
    reward = rng.uniform(0.0, 1.0, size=(steps, 5, 3))
    terminal = rng.uniform(-1.0, 1.0, size=5)
    nodes, weights = kernels.gauss_hermite(1)
    value, policy, ok = kernels.dp_backward(
        reward, terminal, x_grid, atoms, dt, 0.0, nodes, weights
    )
    assert ok.all()
    for start in range(5):
        best = -np.inf
        for seq in itertools.product(range(3), repeat=steps):
            i = start
            feasible = True
            visited = []
            for t, j in enumerate(seq):
                target = x_grid[i] + atoms[j] * dt
                if target < x_grid[0] - 1e-15 or target > x_grid[-1] + 1e-15:
                    feasible = False
                    break
                visited.append((t, i, j))
                i = int(round((target - x_grid[0]) / 0.25))
            if not feasible:
                continue
            total = terminal[i]
            for t, ii, jj in reversed(visited):
                total = reward[t, ii, jj] * dt + total
            best = max(best, total)
        assert value[0, start] == best


# ---------------------------------------------------------------------------
# pushforward
# ---------------------------------------------------------------------------


def test_induced_flows_conserve_mass():
    cfg = small_cfg()
    env = forward_environment(cfg, np.zeros(cfg.grid_steps), np.full(cfg.grid_steps, 0.1))
    pol = best_response(cfg, env)
    x_grid, _ = trader_grids(cfg)
    flows = induced_flows(cfg, pol, initial_trader_law(cfg, x_grid))
    totals = flows.mu.sum(axis=1)
    np.testing.assert_allclose(totals, 1.0, atol=1e-12)
    np.testing.assert_allclose(flows.q.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_array_equal(flows.mu[0], initial_trader_law(cfg, x_grid))


def test_induced_flows_control_law_counts_mass_per_atom():
    """q[t][j] aggregates exactly the state mass assigned to atom j."""
    cfg = small_cfg(trader_sigma=0.0)
    env = forward_environment(cfg, np.zeros(cfg.grid_steps), np.zeros(cfg.grid_steps))
    pol = best_response(cfg, env)
    x_grid, atoms = trader_grids(cfg)
    mu0 = initial_trader_law(cfg, x_grid)
    flows = induced_flows(cfg, pol, mu0)
    for t in range(cfg.grid_steps):
        manual = np.zeros(len(atoms))
        for i, w in enumerate(flows.mu[t]):
            manual[pol.policy_idx[t, i]] += w
        np.testing.assert_allclose(flows.q[t], manual, atol=1e-15)


# ---------------------------------------------------------------------------
# fixed point
# ---------------------------------------------------------------------------


def test_solve_mfg_converges_on_small_instance():
    cfg = small_cfg()
    sol = solve_mfg(cfg)
    assert sol.converged
    assert sol.residual_history[-1] <= cfg.solver_tol
    assert sol.certificate_residual <= cfg.solver_tol
    assert sol.iterations == len(sol.residual_history)
    np.testing.assert_allclose(sol.flows.mu.sum(axis=1), 1.0, atol=1e-10)
    assert np.isfinite(sol.diagnostics["equilibrium_value"])


def test_solve_mfg_certificate_matches_stopping_residual():
    """A non-exact stop is certified by the residual of the map that stopped it,
    which one response map recomputed from the config reproduces bit for bit."""
    cfg = small_cfg(solver_tol=10.0)
    sol = solve_mfg(cfg)
    assert not sol.diagnostics["exact"]
    assert sol.diagnostics["maps"] == sol.iterations
    assert sol.certificate_residual <= cfg.solver_tol
    env = forward_environment(cfg, sol.env.lp_control_path, sol.flows.mean_controls())
    x_grid, atoms = trader_grids(cfg)
    image = induced_flows(cfg, best_response(cfg, env), initial_trader_law(cfg, x_grid))
    w_mu = wasserstein_grid(image.mu, sol.flows.mu, x_grid[1] - x_grid[0])
    w_q = wasserstein_grid(image.q, sol.flows.q, atoms[1] - atoms[0])
    assert sol.certificate_residual == max(w_mu[-1], (w_q + w_mu[:-1]).max())


def test_solve_mfg_honors_lp_path():
    cfg = small_cfg()
    lp_path = np.full(cfg.grid_steps, 0.25)
    sol = solve_mfg(cfg, lp_path)
    np.testing.assert_array_equal(sol.env.lp_control_path, lp_path)


def test_solve_mfg_not_converged_carries_history():
    cfg = small_cfg(solver_max_iter=1, solver_tol=1e-30)
    with pytest.raises(NotConverged) as err:
        solve_mfg(cfg)
    assert len(err.value.residual_history) == 1
    assert err.value.maps == 1


def test_solve_mfg_not_converged_says_that_it_cycles():
    """Strong trader impact on a small pool: damped Picard chatters between a
    few best responses, and the error says so with the lowest residual."""
    cfg = small_cfg(pool_x0=100.0, pool_y0=100.0, lp_x0=1.0, lp_y0=1.0, lp_z0=200.0,
                    solver_max_iter=200)
    with pytest.raises(NotConverged) as err:
        solve_mfg(cfg)
    history = err.value.residual_history
    assert len(history) == err.value.maps == 200
    assert history[-1] == pytest.approx(0.389, abs=5e-4)
    assert min(history) == pytest.approx(0.153, abs=5e-4)
    assert str(err.value) == (
        f"no fixed point within 200 iterations (last residual {history[-1]:.3e}, "
        f"lowest {min(history):.3e}; 9 distinct best-response policies in the last "
        f"50 maps)"
    )


def _same_solution(a, b):
    np.testing.assert_array_equal(a.flows.mu, b.flows.mu)
    np.testing.assert_array_equal(a.flows.q, b.flows.q)
    np.testing.assert_array_equal(a.policy.policy_idx, b.policy.policy_idx)
    np.testing.assert_array_equal(a.env.price_path, b.env.price_path)
    np.testing.assert_array_equal(a.env.lp_reward_path, b.env.lp_reward_path)
    assert a.certificate_residual == b.certificate_residual


def test_solve_mfg_warm_start_matches_cold():
    """Warm-started from another path's flows: same point and LP cost, bit for bit."""
    cfg = small_cfg(lp_segments=2)
    segments = np.array([1.5, -0.5])
    path = lp_path_from_segments(segments, cfg.grid_steps)
    other = solve_mfg(cfg, np.full(cfg.grid_steps, -2.0))
    cold = solve_mfg(cfg, path)
    warm = solve_mfg(cfg, path, start=other.flows)
    assert warm.diagnostics["exact"] and cold.diagnostics["exact"]
    assert warm.diagnostics["maps"] < cold.diagnostics["maps"]
    _same_solution(warm, cold)
    cost_cold, _ = lp_objective(cfg, segments)
    cost_warm, _ = lp_objective(cfg, segments, start=other.flows)
    assert cost_warm == cost_cold


def test_warm_solve_probes_its_first_image():
    """A warm solve maps its start, then probes that image at once: when the
    image is exact the solve spends 2 maps, though the first residual is far
    above tol, and returns the cold solve's point bit for bit."""
    cfg = small_cfg(grid_x_points=81, grid_control_points=9)
    path = np.full(cfg.grid_steps, 1.0)
    idle = solve_mfg(cfg)
    warm = solve_mfg(cfg, path, start=idle.flows)
    assert warm.diagnostics["maps"] == 2 and warm.diagnostics["exact"]
    assert warm.residual_history[0] > 1e4 * cfg.solver_tol
    assert warm.residual_history[1] == warm.certificate_residual == 0.0
    cold = solve_mfg(cfg, path)
    assert cold.diagnostics["maps"] > 2
    _same_solution(warm, cold)


def test_search_trace_objectives_are_cold_objectives():
    """At criterion 10's search config every trace row's objective, found by a
    warm-started solve, is what a cold solve at its segments gives, bit for bit."""
    cfg = small_cfg(seed=3, lp_segments=2, solver_budget=20, solver_step_tol=0.5)
    trace = solve_major_minor(cfg).search_trace
    assert len(trace) > 1 and all(row["status"] == "ok" for row in trace)
    for row in trace:
        cost, _ = lp_objective(replace(cfg), np.array(row["segments"]))
        assert cost == row["objective"], row


def test_solve_mfg_default_ends_on_exact_fixed_point():
    """The returned flows are their own image under the response map."""
    cfg = default_config()
    sol = solve_mfg(cfg)
    assert sol.diagnostics["exact"]
    assert sol.certificate_residual == 0.0
    assert sol.residual_history[-1] == 0.0
    assert sol.iterations == len(sol.residual_history) <= 23
    assert sol.diagnostics["maps"] == sol.iterations
    env = forward_environment(cfg, sol.env.lp_control_path, sol.flows.mean_controls())
    x_grid, _ = trader_grids(cfg)
    image = induced_flows(cfg, best_response(cfg, env), initial_trader_law(cfg, x_grid))
    np.testing.assert_array_equal(image.mu, sol.flows.mu)
    np.testing.assert_array_equal(image.q, sol.flows.q)


def test_solve_mfg_hostile_start_falls_back_to_cold():
    """A warm start that raises or runs out of maps gives the cold result."""
    cfg = small_cfg()
    cold = solve_mfg(cfg)
    x_grid, atoms = trader_grids(cfg)
    mu = np.tile(initial_trader_law(cfg, x_grid), (cfg.grid_steps + 1, 1))
    # a control law of mass 1e7 on the top atom degenerates the first map's market
    q = np.zeros((cfg.grid_steps, len(atoms)))
    q[:, -1] = 1e7
    degenerate = solve_mfg(cfg, start=FlowOfMeasures(x_grid, atoms, mu, q))
    _same_solution(degenerate, cold)
    assert degenerate.diagnostics["maps"] == cold.diagnostics["maps"] + 1
    # every trader on the lowest atom: the warm attempt runs out of maps
    budget = cold.iterations
    q = np.zeros((cfg.grid_steps, len(atoms)))
    q[:, 0] = 1.0
    tight = small_cfg(solver_max_iter=budget)
    slow = solve_mfg(tight, start=FlowOfMeasures(x_grid, atoms, mu, q))
    assert slow.diagnostics["maps"] == cold.diagnostics["maps"] + budget
    _same_solution(slow, solve_mfg(tight))
    # every trader on the atom below zero, at a loose tol: the warm attempt
    # stops on a damped iterate, not on an exact point
    q = np.zeros((cfg.grid_steps, len(atoms)))
    q[:, 1] = 1.0
    loose_cfg = small_cfg(solver_tol=0.5)
    loose = solve_mfg(loose_cfg, start=FlowOfMeasures(x_grid, atoms, mu, q))
    cold_loose = solve_mfg(loose_cfg)
    assert loose.diagnostics["maps"] > cold_loose.diagnostics["maps"]
    _same_solution(loose, cold_loose)


def test_solve_mfg_rejects_start_on_other_grid():
    cfg = small_cfg()
    other = solve_mfg(small_cfg(grid_x_points=21))
    with pytest.raises(InvalidParameter):
        solve_mfg(cfg, start=other.flows)


def test_policy_as_policy_nearest_node():
    cfg = small_cfg()
    sol = solve_mfg(cfg)
    pol = sol.policy.as_policy()
    x_grid = sol.policy.x_grid
    table = sol.policy.atoms[sol.policy.policy_idx]
    out = pol(0, np.array([x_grid[3] + 0.001, x_grid[3] - 0.001, -99.0, 99.0]))
    assert out[0] == table[0, 3]
    assert out[1] == table[0, 3]
    assert out[2] == table[0, 0]
    assert out[3] == table[0, -1]


# ---------------------------------------------------------------------------
# LP layer
# ---------------------------------------------------------------------------


def test_lp_path_from_segments_pattern():
    path = lp_path_from_segments([1.0, 2.0, 3.0, 4.0], 10)
    np.testing.assert_array_equal(path, [1, 1, 1, 2, 2, 3, 3, 3, 4, 4])
    np.testing.assert_array_equal(lp_path_from_segments([5.0], 4), [5, 5, 5, 5])


def test_lp_objective_formula():
    """Cost recomputed by hand from the returned equilibrium environment."""
    cfg = small_cfg(lp_segments=2)
    segments = np.array([0.5, -0.5])
    cost, sol = lp_objective(cfg, segments)
    grid = time_grid(cfg)
    path = lp_path_from_segments(segments, grid.steps)
    dt = grid.dt
    x_lp = cfg.lp_x0 + np.concatenate(([0.0], np.cumsum(path * dt)))
    price = sol.env.price_path[:-1]
    z_lp = cfg.lp_z0 - 2.0 * np.concatenate(([0.0], np.cumsum(path * price * dt)))
    phi = 1.0 - cfg.pool_tau
    pd_reward = market.price_drift(sol.env.x_adj_path[:-1], sol.env.delta_path[:-1], path,
                                   sol.env.mean_control_path, phi, cfg.pool_x0 * cfg.pool_y0)
    manual = (
        -float(np.sum(x_lp[:-1] * pd_reward) * dt)
        + cfg.lp_terminal_weight * (x_lp[-1] ** 2 + z_lp[-1] ** 2)
    )
    assert cost == pytest.approx(manual, rel=1e-12)


def test_solve_major_minor_local_optimum():
    cfg = small_cfg(
        lp_segments=2, solver_budget=60, solver_initial_step=1.0, solver_step_tol=0.25
    )
    sol = solve_major_minor(cfg)
    assert sol.lp_segments is not None
    assert np.all(sol.lp_segments >= cfg.lp_control_min)
    assert np.all(sol.lp_segments <= cfg.lp_control_max)
    assert sol.lp_objective is not None
    assert len(sol.search_trace) <= cfg.solver_budget
    cert = sol.diagnostics["neighbor_certificate"]
    assert len(cert) == 2 * cfg.lp_segments
    for n in cert:
        assert n["objective"] >= sol.lp_objective - 1e-12
    # the trace never recorded anything better than the returned optimum
    finite = [row["objective"] for row in sol.search_trace if row["status"] == "ok"]
    assert min(finite) == pytest.approx(sol.lp_objective, rel=1e-15)
    # every evaluation ends on an exact fixed point: at least a map and its probe
    assert all(row["exact"] for row in sol.search_trace)
    assert all(row["maps"] >= 2 for row in sol.search_trace)


def test_solve_major_minor_names_its_stop_reason():
    """18 evaluations finish the search: its last poll, at step 0.5, runs in
    full within the budget, and the step is solver.step_tol. With 17 that
    poll's last candidate is evaluated past the budget, only to certify the
    incumbent: a budget stop, at the same step 0.5."""
    full = solve_major_minor(small_cfg(lp_segments=2, solver_budget=18, solver_step_tol=0.5))
    assert full.diagnostics["stop_reason"] == "step_tol"
    cut = solve_major_minor(small_cfg(lp_segments=2, solver_budget=17, solver_step_tol=0.5))
    assert cut.diagnostics["stop_reason"] == "budget"
    assert cut.search_trace[16]["step"] == 0.5 and cut.diagnostics["final_step"] == 0.5


def test_budget_stop_is_a_trace_past_the_budget():
    """The search certifies with the poll that ended it. Over solver.budget
    1..44 a budget stop is exactly a trace longer than the budget, no row
    past the budget is accepted, and each feasible certificate entry scores
    what its segment vector's trace row does. When every candidate fails,
    nothing is evaluated past the budget: there is no incumbent to
    certify."""
    for budget in range(1, 45):
        sol = solve_major_minor(small_cfg(lp_segments=2, solver_step_tol=0.5,
                                          solver_budget=budget))
        trace = sol.search_trace
        assert (sol.diagnostics["stop_reason"] == "budget") == (len(trace) > budget)
        assert sol.lp_objective == min(row["objective"] for row in trace[:budget])
        scored = {tuple(row["segments"]): row["objective"] for row in trace}
        for n in sol.diagnostics["neighbor_certificate"]:
            if n["feasible"]:
                assert n["objective"] == scored[tuple(n["segments"])]
    with pytest.raises(NotConverged) as info:
        solve_major_minor(small_cfg(lp_segments=1, solver_max_iter=1, solver_budget=5))
    assert len(info.value.search_trace) == 5


def test_solve_major_minor_certifies_a_pattern_optimum():
    """With the LP's stocks near 0 the search ends on a pattern optimum: it
    stops on a full poll at solver.step_tol, all 2K neighbours are feasible,
    and each, re-solved cold, scores what the certificate says and no less
    than the returned cost. That is a coordinate-poll certificate, not a
    local minimum: cheaper points can lie off the poll's axes."""
    cfg = default_config(lp_x0=0.0, lp_z0=1.0, lp_segments=2)
    sol = solve_major_minor(cfg)
    assert sol.diagnostics["stop_reason"] == "step_tol"
    assert sol.diagnostics["final_step"] == cfg.solver_step_tol
    cert = sol.diagnostics["neighbor_certificate"]
    assert len(cert) == 4 and all(n["feasible"] for n in cert)
    for n in cert:
        cold, _ = lp_objective(cfg, np.array(n["segments"]))
        assert cold == pytest.approx(n["objective"], rel=1e-12, abs=0)
        assert cold >= sol.lp_objective


def test_solve_major_minor_builds_the_trader_layer_once(monkeypatch):
    """One transition stencil and one quadrature serve every response map of a
    search. The config is built first: its check builds the quadrature too."""
    cfg = small_cfg(lp_segments=1, solver_budget=6, solver_step_tol=0.5)
    calls = {"transition_operator": 0, "gauss_hermite": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(kernels, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(kernels, name, counted)
    sol = solve_major_minor(cfg)
    assert sum(row["maps"] for row in sol.search_trace) > 2
    assert calls == {"transition_operator": 1, "gauss_hermite": 1}


def test_trader_layer_lives_until_another_config_asks(monkeypatch):
    """Repeated calls on one config object share one layer. An equal copy of
    the config gets its own, built only after the previous layer is dropped,
    so the two transition laws are never alive together."""
    layers = []  # weak references to the layers built so far
    alive = []  # per transition_operator call: which of them still live
    build = kernels.transition_operator

    def counted(*args):
        alive.append([ref() is not None for ref in layers])
        return build(*args)

    monkeypatch.setattr(kernels, "transition_operator", counted)
    cfg = small_cfg()
    sol = solve_mfg(cfg)
    solve_mfg(cfg)
    best_response(cfg, sol.env)
    assert len(alive) == 1
    layers.append(weakref.ref(trader_layer(cfg)))
    copy = replace(cfg)
    assert copy == cfg and copy is not cfg
    fresh = trader_layer(copy)
    assert alive == [[], [False]]
    assert trader_layer(copy) is fresh


def test_trader_layer_stores_the_transition_law_as_one_stencil():
    """At the default config the layer's operator is one (w, na) stencil with
    w = 9 and lo = -4, under 1 KB: one law per atom, the same at every node,
    neither a per-node band nor the dense (nx*na, nx) matrix."""
    cfg = default_config()
    stencil, lo, admissible = trader_layer(cfg).operator
    nx, na = cfg.grid_x_points, cfg.grid_control_points
    assert stencil.shape == (9, na) and lo == -4
    assert stencil.nbytes < 1_000
    assert admissible.shape == (nx, na)


def test_no_function_takes_a_layer():
    """The config is the trader solver's one input: no function of the
    package has a ``layer`` parameter, and only ``trader_layer`` builds a
    ``TraderLayer``."""
    builders = []
    for path in sorted(Path(solver.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                assert "layer" not in [p.arg for p in params if p], (path.name, node.lineno)
        for top in tree.body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and "TraderLayer"
                        in (getattr(node.func, "id", None), getattr(node.func, "attr", None))):
                    builders.append((path.name, getattr(top, "name", "<module>")))
    assert builders == [("solver.py", "trader_layer")]


def _replay(cfg, lp_path, start=None):
    """``solve_mfg``'s fixed point with a fresh layer in every response map,
    read from a fresh copy of ``cfg``, so neither the map's reuse of its last
    result nor the pushforward memo can serve it. Returns (flows, policy,
    history, exact) and the maps."""
    maps = 0

    def response_map(flows):
        nonlocal maps
        maps += 1
        copy = replace(cfg)
        env = forward_environment(copy, lp_path, flows.mean_controls())
        policy = best_response(copy, env)
        return induced_flows(copy, policy, trader_layer(copy).mu0), policy, env

    if start is not None:
        flows, policy, _, history, _, exact = solver._picard(
            cfg, response_map, start, warm=True
        )
        assert exact  # the cold fallback is not replayed
        return (flows, policy, history, exact), maps
    x_grid, atoms = trader_grids(cfg)
    q = np.zeros((cfg.grid_steps, len(atoms)))
    q[:, np.argmin(np.abs(atoms))] = 1.0
    mu = np.tile(initial_trader_law(cfg, x_grid), (cfg.grid_steps + 1, 1))
    flows, policy, _, history, _, exact = solver._picard(
        cfg, response_map, FlowOfMeasures(x_grid, atoms, mu, q)
    )
    return (flows, policy, history, exact), maps


def test_memoized_maps_match_a_replay_without_memos():
    """One config's layer shared by a cold solve and two warm ones, where
    both memos serve maps, gives what fresh layers give, bit for bit."""
    cfg = small_cfg()
    idle, busy = np.zeros(cfg.grid_steps), np.full(cfg.grid_steps, 0.5)
    cold = solve_mfg(cfg, idle)
    runs = [(cold, idle, None),
            (solve_mfg(cfg, idle, start=cold.flows), idle, cold.flows),
            (solve_mfg(cfg, busy, start=cold.flows), busy, cold.flows)]
    for sol, lp_path, start in runs:
        (flows, policy, history, exact), maps = _replay(cfg, lp_path, start)
        np.testing.assert_array_equal(sol.policy.policy_idx, policy.policy_idx)
        np.testing.assert_array_equal(sol.flows.mu, flows.mu)
        np.testing.assert_array_equal(sol.flows.q, flows.q)
        assert sol.residual_history == history
        assert sol.diagnostics["maps"] == maps
        assert sol.diagnostics["exact"] == exact


def test_induced_flows_is_pure_and_the_solve_memo_spans_solves(monkeypatch):
    """``induced_flows`` pushes afresh on every call and leaves the layer
    alone; the response map's memo on the layer serves a later solve on the
    same config object, so a warm start at the fixed point pushes nothing."""
    cfg = small_cfg()
    layer = trader_layer(cfg)
    env = forward_environment(cfg, np.zeros(cfg.grid_steps), np.zeros(cfg.grid_steps))
    pol = best_response(cfg, env)
    first = induced_flows(cfg, pol, layer.mu0)
    again = induced_flows(cfg, pol, layer.mu0)
    assert again is not first and again.mu.flags.writeable and again.q.flags.writeable
    np.testing.assert_array_equal(again.mu, first.mu)
    np.testing.assert_array_equal(again.q, first.q)
    assert layer.pushed == [None, None]

    pushes = []
    push_forward = kernels.push_forward
    monkeypatch.setattr(kernels, "push_forward",
                        lambda *args: pushes.append(1) or push_forward(*args))
    cold = solve_mfg(cfg)
    assert cold.diagnostics["exact"] and 0 < len(pushes) < cold.diagnostics["maps"]
    assert layer.pushed[0] == cold.policy.policy_idx.tobytes()
    pushes.clear()
    warm = solve_mfg(cfg, start=cold.flows)
    assert pushes == [] and warm.diagnostics["exact"]
    _same_solution(warm, solve_mfg(replace(cfg), start=cold.flows))


def test_solve_major_minor_reuses_sweeps_and_pushforwards(monkeypatch):
    """Fewer DP sweeps and pushforwards run than the search counts maps."""
    calls = {"dp_backward": 0, "push_forward": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(kernels, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(kernels, name, counted)
    cfg = small_cfg(lp_segments=1, solver_budget=6, solver_step_tol=0.5)
    maps = sum(row["maps"] for row in solve_major_minor(cfg).search_trace)
    assert 0 < calls["push_forward"] < maps
    assert 0 < calls["dp_backward"] < maps


def test_induced_flows_rejects_policy_off_the_layer():
    cfg = small_cfg()
    env = forward_environment(cfg, np.zeros(cfg.grid_steps), np.zeros(cfg.grid_steps))
    pol = best_response(cfg, env)
    other = small_cfg(grid_x_points=21)
    with pytest.raises(InvalidParameter):
        induced_flows(other, pol, trader_layer(other).mu0)


def test_lp_search_scores_failed_candidates_inf():
    """On a small pool with the LP draining it, inner solves fail both ways:
    no fixed point within solver.max_iter, and reserves emptied. Each failed
    candidate is a trace row with objective inf and the maps it spent, the
    search goes on to the best ok row, and the certificate neighbour at +0.01,
    whose inner solve fails, scores inf."""
    cfg = small_cfg(lp_segments=1, pool_x0=8.0, pool_y0=8.0, lp_z0=2000.0,
                    lp_control_min=-5.0, lp_control_max=-2.0, solver_max_iter=30)
    sol = solve_major_minor(cfg)
    statuses = [row["status"] for row in sol.search_trace]
    assert statuses.count("ok") == 8 and statuses.count("degenerate") == 1
    assert statuses.count("inner_not_converged") == 4
    failed = [row for row in sol.search_trace if row["status"] != "ok"]
    assert all(row["objective"] == math.inf and row["maps"] > 0 for row in failed)
    assert sol.lp_objective == min(
        row["objective"] for row in sol.search_trace if row["status"] == "ok"
    )
    assert sol.diagnostics["stop_reason"] == "step_tol"
    assert sol.lp_segments.tolist() == [-2.28125]
    up, down = sol.diagnostics["neighbor_certificate"]
    assert up["segments"] == [-2.28125 + 0.01] and up["objective"] == math.inf
    assert sol.lp_objective < down["objective"] < math.inf


def test_solve_major_minor_k1_is_constant_path():
    cfg = small_cfg(lp_segments=1, solver_budget=30, solver_step_tol=0.5)
    sol = solve_major_minor(cfg)
    assert len(sol.lp_segments) == 1
    np.testing.assert_array_equal(
        sol.env.lp_control_path, np.full(cfg.grid_steps, sol.lp_segments[0])
    )
