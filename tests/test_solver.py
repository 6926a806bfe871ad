"""Best response, measure pushforward, fixed point, and the LP search."""

import itertools
from dataclasses import fields

import numpy as np
import pytest

from ammgame import kernels, market
from ammgame.config import default_config
from ammgame.engine import simulate
from ammgame.errors import (
    DegenerateReserves,
    GridOverflow,
    InvalidParameter,
    NotConverged,
)
from ammgame.solver import (
    FlowOfMeasures,
    PolicyGrid,
    TraderLayer,
    best_response,
    fixed_point_certificate,
    forward_environment,
    induced_flows,
    initial_trader_law,
    lp_objective,
    lp_path_from_segments,
    solve_major_minor,
    solve_mfg,
    tabulate_rewards,
    trader_grids,
    wasserstein_grid,
)
from ammgame.engine import TimeGrid


def small_cfg(**kw):
    base = dict(grid_steps=10, grid_x_points=41, grid_control_points=5, engine_traders=16)
    base.update(kw)
    return default_config(**base)


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
    # between two nodes (spacing 0.04) with sd 1e-4 every node density underflows to 0
    narrow = default_config(trader_init_law="gaussian", trader_init_mean=0.01,
                            trader_init_sd=1e-4)
    with pytest.raises(InvalidParameter, match="trader.init_sd"):
        initial_trader_law(narrow, x_grid)


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
    """Same recursions: the solver environment equals a noise-free simulation."""
    cfg = default_config(trader_sigma=0.0, external_sigma0=0.0, engine_traders=4)
    steps = cfg.grid_steps
    alpha = 0.3
    lp_path = np.linspace(0.5, -0.5, steps)
    qbar = np.full(steps, alpha)
    env = forward_environment(cfg, lp_path, qbar)
    traj = simulate(cfg, lambda t, x: np.full(np.shape(x), alpha), lp_path, seed=11)
    np.testing.assert_array_equal(traj.mean_control_path, qbar)
    np.testing.assert_array_equal(env.price, traj.price_path)
    np.testing.assert_array_equal(env.x_adj, traj.x_adj_path)
    np.testing.assert_array_equal(env.delta, traj.delta_path)
    np.testing.assert_array_equal(env.lvr_rate, traj.lvr_rate_path)
    np.testing.assert_array_equal(env.x_adj + env.delta, traj.reserve_path)
    np.testing.assert_array_equal(env.lp_x, traj.lp_x_path)
    np.testing.assert_array_equal(env.lp_z, traj.lp_z_path)
    np.testing.assert_array_equal(env.lp_reward, traj.lp_reward_path)


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
    table = tabulate_rewards(TraderLayer.from_config(cfg), env, 0.0, None)
    assert table.shape == (steps, len(x_grid), len(atoms))
    mk = market.Market.from_config(cfg)
    for t, ix, ja in ((0, 0, 0), (3, 20, 2), (9, 40, 4)):
        state = market.MarketState(
            price=env.price[t], x_adj=env.x_adj[t], y_adj=cfg.pool_y0, delta=env.delta[t],
            lp_x=0.0, lp_y=0.0, lp_z=0.0, lp_s=0.0,
            trader_x=np.array([x_grid[ix]]), trader_y=np.zeros(1),
        )
        _, flows = market.step(mk, state, t, np.array([atoms[ja]]), env.qbar[t],
                               env.lp_control[t])
        assert table[t, ix, ja] == pytest.approx(flows.trader_reward[0], rel=1e-12)


def test_tabulate_rewards_own_weight_continuity():
    """own_weight -> 0 recovers the frozen-mean-field table."""
    cfg = small_cfg()
    steps = cfg.grid_steps
    env = forward_environment(cfg, np.zeros(steps), np.full(steps, 0.2))
    layer = TraderLayer.from_config(cfg)
    base = tabulate_rewards(layer, env, 0.0, None)
    perturbed = tabulate_rewards(layer, env, own_weight=1e-12, qbar_others=env.qbar)
    np.testing.assert_allclose(perturbed, base, rtol=1e-9, atol=1e-12)


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
    rewards = tabulate_rewards(TraderLayer.from_config(cfg), env, 0.0, None)
    nodes, weights = kernels.gauss_hermite(cfg.grid_quad_points)
    grid = TimeGrid(cfg.grid_horizon, cfg.grid_steps)
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
    rewards = tabulate_rewards(TraderLayer.from_config(cfg), env, 0.0, None)
    grid = TimeGrid(cfg.grid_horizon, cfg.grid_steps)
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


def test_best_response_grid_overflow():
    """Bounds tighter than one deterministic move: every atom inadmissible."""
    cfg = default_config(
        grid_x_min=-0.001, grid_x_max=0.001, grid_x_points=3,
        trader_a_min=-1.0, trader_a_max=1.0, grid_control_points=2,
    )
    env = forward_environment(cfg, np.zeros(cfg.grid_steps), np.zeros(cfg.grid_steps))
    with np.errstate(invalid="ignore"):
        with pytest.raises(GridOverflow):
            best_response(cfg, env)


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


def test_push_forward_overflow_flag():
    """Mass on an edge node forced outward trips the overflow signal."""
    grid = TimeGrid(1.0, 1)
    x_grid = np.linspace(-1.0, 1.0, 5)
    atoms = np.array([0.0, 1.0])
    policy_idx = np.full((1, 5), 1, dtype=np.int64)  # always push up by 1.0
    pol = PolicyGrid(grid=grid, x_grid=x_grid, atoms=atoms,
                     policy_idx=policy_idx, value=np.zeros((2, 5)))
    cfg = default_config(grid_steps=1, grid_horizon=1.0, trader_sigma=0.0,
                         grid_x_min=-1.0, grid_x_max=1.0, grid_x_points=5,
                         trader_a_min=0.0, trader_a_max=1.0, grid_control_points=2)
    mu0 = np.zeros(5)
    mu0[4] = 1.0  # top node drifts to 2.0, outside the grid
    with pytest.raises(GridOverflow):
        induced_flows(cfg, pol, mu0)
    mu0 = np.zeros(5)
    mu0[0] = 1.0  # bottom node drifts to 0.0, the center: stays inside
    flows = induced_flows(cfg, pol, mu0)
    assert flows.mu[1, 2] == pytest.approx(1.0, abs=1e-15)


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
    """The from-scratch certificate recomputes the same deterministic map."""
    cfg = small_cfg()
    sol = solve_mfg(cfg)
    again = fixed_point_certificate(cfg, sol.env.lp_control, sol.flows,
                                    TraderLayer.from_config(cfg))
    assert again == pytest.approx(sol.certificate_residual, rel=1e-12, abs=1e-15)
    assert sol.certificate_residual == pytest.approx(sol.residual_history[-1], rel=1e-9)


def test_solve_mfg_honors_lp_path():
    cfg = small_cfg()
    lp_path = np.full(cfg.grid_steps, 0.25)
    sol = solve_mfg(cfg, lp_path)
    np.testing.assert_array_equal(sol.env.lp_control, lp_path)


def test_solve_mfg_not_converged_carries_history():
    cfg = small_cfg(solver_max_iter=1, solver_tol=1e-30)
    with pytest.raises(NotConverged) as err:
        solve_mfg(cfg)
    assert len(err.value.residual_history) == 1


def _same_solution(a, b):
    np.testing.assert_array_equal(a.flows.mu, b.flows.mu)
    np.testing.assert_array_equal(a.flows.q, b.flows.q)
    np.testing.assert_array_equal(a.policy.policy_idx, b.policy.policy_idx)
    np.testing.assert_array_equal(a.env.price, b.env.price)
    np.testing.assert_array_equal(a.env.lp_reward, b.env.lp_reward)
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


def test_solve_mfg_default_ends_on_exact_fixed_point():
    """The returned flows are their own image under the response map."""
    cfg = default_config()
    sol = solve_mfg(cfg)
    assert sol.diagnostics["exact"]
    assert sol.certificate_residual == 0.0
    assert sol.residual_history[-1] == 0.0
    assert sol.iterations == len(sol.residual_history) <= 23
    assert sol.diagnostics["maps"] == sol.iterations
    env = forward_environment(cfg, sol.env.lp_control, sol.flows.mean_controls())
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
    grid = TimeGrid(cfg.grid_horizon, cfg.grid_steps)
    path = lp_path_from_segments(segments, grid.steps)
    dt = grid.dt
    x_lp = cfg.lp_x0 + np.concatenate(([0.0], np.cumsum(path * dt)))
    z_lp = cfg.lp_z0 - 2.0 * np.concatenate(([0.0], np.cumsum(path * sol.env.price[:-1] * dt)))
    phi = 1.0 - cfg.pool_tau
    pd_reward = market.price_drift(sol.env.x_adj[:-1], sol.env.delta[:-1], path,
                                   sol.env.qbar, phi, cfg.pool_x0 * cfg.pool_y0)
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
    assert len(sol.search_trace) == sol.diagnostics["evaluations"]
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


def test_solve_major_minor_builds_the_trader_layer_once(monkeypatch):
    """One transition matrix and one quadrature serve every response map of a search."""
    calls = {"transition_operator": 0, "gauss_hermite": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(kernels, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(kernels, name, counted)
    cfg = small_cfg(lp_segments=1, solver_budget=6, solver_step_tol=0.5)
    sol = solve_major_minor(cfg)
    assert sum(row["maps"] for row in sol.search_trace) > 2
    assert calls == {"transition_operator": 1, "gauss_hermite": 1}


def test_passed_trader_layer_changes_no_number():
    """A prebuilt layer gives the arrays the config-built one gives, bit for bit."""
    cfg = small_cfg()
    layer = TraderLayer.from_config(cfg)
    lp_path = np.full(cfg.grid_steps, 0.25)
    qbar = np.full(cfg.grid_steps, 0.1)
    env = forward_environment(cfg, lp_path, qbar)
    env_l = forward_environment(cfg, lp_path, qbar, layer)
    for f in fields(env):
        np.testing.assert_array_equal(getattr(env_l, f.name), getattr(env, f.name))
    pol = best_response(cfg, env)
    pol_l = best_response(cfg, env, layer=layer)
    np.testing.assert_array_equal(pol_l.policy_idx, pol.policy_idx)
    np.testing.assert_array_equal(pol_l.value, pol.value)
    flows = induced_flows(cfg, pol, layer.mu0)
    flows_l = induced_flows(cfg, pol, layer.mu0, layer)
    np.testing.assert_array_equal(flows_l.mu, flows.mu)
    np.testing.assert_array_equal(flows_l.q, flows.q)
    _same_solution(solve_mfg(cfg, lp_path, layer=layer), solve_mfg(cfg, lp_path))


def test_induced_flows_rejects_policy_off_the_layer():
    cfg = small_cfg()
    env = forward_environment(cfg, np.zeros(cfg.grid_steps), np.zeros(cfg.grid_steps))
    pol = best_response(cfg, env)
    other = small_cfg(grid_x_points=21)
    with pytest.raises(InvalidParameter):
        induced_flows(other, pol, TraderLayer.from_config(other).mu0)


def test_solve_major_minor_k1_is_constant_path():
    cfg = small_cfg(lp_segments=1, solver_budget=30, solver_step_tol=0.5)
    sol = solve_major_minor(cfg)
    assert len(sol.lp_segments) == 1
    np.testing.assert_array_equal(
        sol.env.lp_control, np.full(cfg.grid_steps, sol.lp_segments[0])
    )
