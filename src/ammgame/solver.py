"""Equilibrium solvers for the trader population and the liquidity provider.

Three nested problems:

1. Best response: given the population flow of controls, the LP control path
   and the induced deterministic environment, a representative trader solves a
   finite-horizon control problem by backward dynamic programming on a uniform
   inventory grid with Gauss-Hermite quadrature for the idiosyncratic noise
   and linear value interpolation. Ties break to the lowest control index.

2. Consistency: the flow of control laws must equal the one induced by the
   best response. A damped Picard iteration on the (state law, control law)
   pair runs until the 1-d Wasserstein residual drops below tolerance. Once
   the best-response policy repeats (or the residual is already within
   tolerance) the iteration probes the undamped image: the image of one
   policy is a fixed point exactly when mapping it again reproduces it bit
   for bit, and then that image is returned with residual 0.0, the probe
   itself being the from-scratch certificate. Each policy is probed at most
   once; without an exact hit the damped iterate within tolerance is
   returned and its certificate is re-evaluated from scratch.

3. LP control: over piecewise-constant controls on K segments, a coordinate
   pattern search with shrinking step minimizes the LP cost (negated running
   reward plus quadratic terminal penalty), solving problem 2 at every
   candidate, warm-started from the incumbent's flows. A warm solve is kept
   only when it ends on an exact fixed point; otherwise it is redone cold.
   A candidate's cost and status therefore do not depend on the path the
   search took whenever its cold solve ends on the same exact point, as
   every candidate of the default search does. Inner non-convergence marks
   the candidate infeasible instead of aborting the search.

Everything the trader layer derives from the config alone, and that no LP
candidate or Picard iterate changes, lives in one frozen ``TraderLayer``: the
time grid, the inventory grid and control atoms, the initial law, the
terminal reward, the quadrature, the ``Market`` and the transition matrix T
with its admissibility mask. ``solve_major_minor``, ``solve_mfg`` and the
Nash harness build it once per call and pass it down to every response map,
so T is built once per solve, not twice per map. A layer that is passed must
come from the same config. ``tabulate_rewards``, ``fixed_point_certificate``
and ``harness.epsilon_nash_gap`` require it. The functions that take an
optional ``layer`` build it from the config when none is passed, each for a
caller outside the solve:

- ``forward_environment``, ``best_response`` and ``induced_flows``, because
  the benchmark's check of the LP search recomputes one response map from
  the config alone;
- ``lp_objective``, because the LP-search acceptance test re-scores the
  certificate's neighbours from the config alone;
- ``solve_mfg`` (with its idle-LP path and cold start) and
  ``harness.convergence_study``, because the CLI calls them with a config.

``kernels.push_forward`` takes the layer's (T, admissible) and nothing else;
``kernels.dp_backward`` is passed it too, but still builds its own T when
called without one, as the DP-versus-enumeration acceptance test calls it.

The solver runs in deterministic-flow mode: no common price noise enters the
fixed point; idiosyncratic trader noise is integrated exactly through the
quadrature. The environment is one noise-free lane of the market step the
engine runs, so it reuses the engine's left-point updates, and the DP reward
table and the LP cost read the drift, G and the LP's stocks from that same
step: DP rewards are tabulated on exactly the path a noise-free simulation
realizes.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels, market
from .engine import TimeGrid
from .errors import (
    DegenerateReserves,
    GridOverflow,
    InvalidParameter,
    NotConverged,
)

# what an inner solve raises on a hopeless instance; each carries ``maps``
_SOLVE_ERRORS = (DegenerateReserves, GridOverflow, NotConverged)


@dataclass(frozen=True)
class PolicyGrid:
    """Feedback policy and value function tabulated on (time, inventory)."""

    grid: TimeGrid
    x_grid: np.ndarray
    atoms: np.ndarray
    policy_idx: np.ndarray  # (steps, nx) indices into atoms
    value: np.ndarray       # (steps+1, nx)

    def as_policy(self):
        """Callable (step, inventory vector) -> control vector, nearest node."""
        x0 = self.x_grid[0]
        h = self.x_grid[1] - self.x_grid[0]
        top = len(self.x_grid) - 1

        def policy(t, x):
            ix = np.clip(np.rint((np.asarray(x) - x0) / h).astype(np.int64), 0, top)
            return self.atoms[self.policy_idx[t, ix]]

        return policy


@dataclass(frozen=True)
class FlowOfMeasures:
    """Time-indexed state law (on the inventory grid) and control law (on atoms)."""

    x_grid: np.ndarray
    atoms: np.ndarray
    mu: np.ndarray  # (steps+1, nx)
    q: np.ndarray   # (steps, n_atoms)

    def mean_controls(self):
        return self.q @ self.atoms


@dataclass
class MfgEnvironment:
    """Market path a representative trader optimizes against, with the LP's stocks."""

    x_adj: np.ndarray      # (steps+1,)
    delta: np.ndarray      # (steps+1,)
    price: np.ndarray      # (steps+1,)
    lvr_rate: np.ndarray   # (steps,)
    qbar: np.ndarray       # (steps,)
    lp_control: np.ndarray  # (steps,)
    lp_x: np.ndarray       # (steps+1,)
    lp_z: np.ndarray       # (steps+1,)
    lp_reward: np.ndarray  # (steps,)


@dataclass
class EquilibriumSolution:
    """Converged policy, flows, diagnostics, and (optionally) the LP layer."""

    policy: PolicyGrid
    flows: FlowOfMeasures
    env: MfgEnvironment
    residual_history: list
    certificate_residual: float
    converged: bool
    iterations: int
    lp_segments: np.ndarray | None = None
    lp_objective: float | None = None
    search_trace: list | None = None
    diagnostics: dict = field(default_factory=dict)


def trader_grids(config):
    x_grid = np.linspace(config.grid_x_min, config.grid_x_max, config.grid_x_points)
    atoms = np.linspace(config.trader_a_min, config.trader_a_max, config.grid_control_points)
    return x_grid, atoms


def initial_trader_law(config, x_grid):
    """Initial inventory law discretized on the grid.

    A point mass splits linearly between its two bracketing nodes; a gaussian
    law is the normalized density sampled at the nodes.
    """
    nx = len(x_grid)
    mu0 = np.zeros(nx)
    if config.trader_init_law == "point":
        h = x_grid[1] - x_grid[0]
        i0, frac = kernels.grid_cell(config.trader_init_mean, x_grid[0], h, nx)
        mu0[i0] = 1.0 - frac
        mu0[i0 + 1] += frac
    else:
        z = (x_grid - config.trader_init_mean) / config.trader_init_sd
        mu0 = np.exp(-0.5 * z * z)
        mass = mu0.sum()
        if not mass > 0:
            raise InvalidParameter(
                f"trader.init_sd = {config.trader_init_sd!r} puts no mass of the gaussian "
                "initial law on any inventory node"
            )
        mu0 /= mass
    return mu0


@dataclass(frozen=True)
class TraderLayer:
    """The trader layer's fixed discretization, built once from a config.

    ``operator`` is ``kernels.transition_operator``'s (T, admissible) on these
    grids, quadrature and sigma * sqrt(dt).
    """

    grid: TimeGrid
    x_grid: np.ndarray
    atoms: np.ndarray
    mu0: np.ndarray
    terminal: np.ndarray
    z_nodes: np.ndarray
    z_weights: np.ndarray
    sig_root_dt: float
    market: market.Market
    operator: tuple

    @classmethod
    def from_config(cls, config):
        grid = TimeGrid(config.grid_horizon, config.grid_steps)
        x_grid, atoms = trader_grids(config)
        nodes, weights = kernels.gauss_hermite(config.grid_quad_points)
        sig_root_dt = config.trader_sigma * math.sqrt(grid.dt)
        return cls(
            grid=grid,
            x_grid=x_grid,
            atoms=atoms,
            mu0=initial_trader_law(config, x_grid),
            terminal=-config.trader_terminal_weight * x_grid**2,
            z_nodes=nodes,
            z_weights=weights,
            sig_root_dt=sig_root_dt,
            market=market.Market.from_config(config),
            operator=kernels.transition_operator(
                x_grid, atoms, grid.dt, sig_root_dt, nodes, weights
            ),
        )


def wasserstein_grid(u, v, spacing):
    """W1 between weight vectors on a shared uniform grid, row by row.

    The weights run along the last axis; a pair of 1-d vectors gives a float.
    """
    diff = np.cumsum(np.subtract(u, v), axis=-1)
    w1 = spacing * np.abs(diff[..., :-1]).sum(axis=-1)
    return float(w1) if w1.ndim == 0 else w1


def forward_environment(config, lp_control_path, qbar, layer=None):
    """Advance the deterministic market path.

    One noise-free lane of the market step, with no traders and the mean
    control ``qbar`` given.
    """
    layer = layer or TraderLayer.from_config(config)
    n = layer.grid.steps
    lp_control_path = np.asarray(lp_control_path, dtype=float)
    qbar = np.asarray(qbar, dtype=float)
    if lp_control_path.shape != (n,) or qbar.shape != (n,):
        raise InvalidParameter("lp control and mean-control paths must cover every step")

    mk = layer.market
    x_adj = np.empty(n + 1)
    delta = np.empty(n + 1)
    price = np.empty(n + 1)
    lp_x = np.empty(n + 1)
    lp_z = np.empty(n + 1)
    lvr_rate = np.empty(n)
    lp_reward = np.empty(n)
    s = market.opening_state(config)
    for t in range(n + 1):
        x_adj[t], delta[t], price[t], lp_x[t], lp_z[t] = s.x_adj, s.delta, s.price, s.lp_x, s.lp_z
        if t == n:
            break
        s, flows = market.step(mk, s, t, None, qbar[t], lp_control_path[t])
        lvr_rate[t], lp_reward[t] = flows.lvr_rate, flows.lp_reward

    return MfgEnvironment(
        x_adj=x_adj,
        delta=delta,
        price=price,
        lvr_rate=lvr_rate,
        qbar=qbar,
        lp_control=lp_control_path,
        lp_x=lp_x,
        lp_z=lp_z,
        lp_reward=lp_reward,
    )


def tabulate_rewards(layer, env: MfgEnvironment, own_weight, qbar_others):
    """Running reward table R[t, ix, ja] for the representative trader.

    With ``own_weight`` = 1/N and ``qbar_others`` the frozen contribution of
    the other N-1 players to the population mean, the mean-control slot of
    the price drift becomes qbar_others + own_weight * a: the tabulated
    reward then matches what the finite-N engine pays a player whose control
    enters the empirical average, so a deviator can internalize its own
    impact. With own_weight = 0 the slot is the frozen mean field itself.
    The drift and the reward are the market step's, evaluated at the path's
    left points, so the table pays what the engine pays. ``qbar_others`` is
    read only when ``own_weight`` is nonzero.
    """
    mk, atoms = layer.market, layer.atoms
    xa = env.x_adj[:-1, None]
    dl = env.delta[:-1, None]
    if own_weight == 0.0:
        qslot = env.qbar[:, None]
    else:
        qslot = np.asarray(qbar_others, dtype=float)[:, None] + own_weight * atoms[None, :]
    pd = market.price_drift(xa, dl, env.lp_control[:, None], qslot, mk.phi, mk.k0)
    return market.trader_reward(
        mk, layer.x_grid[None, :, None], atoms, xa[:, None], dl[:, None], pd[:, None, :]
    )


def best_response(config, env: MfgEnvironment, own_weight=0.0, qbar_others=None,
                  layer=None):
    """Backward DP against a frozen environment.

    ``own_weight`` and ``qbar_others`` are as in ``tabulate_rewards``.
    """
    layer = layer or TraderLayer.from_config(config)
    grid, x_grid, atoms = layer.grid, layer.x_grid, layer.atoms
    rewards = tabulate_rewards(layer, env, own_weight, qbar_others)
    value, policy_idx, ok = kernels.dp_backward(
        rewards, layer.terminal, x_grid, atoms, grid.dt, layer.sig_root_dt,
        layer.z_nodes, layer.z_weights, layer.operator,
    )
    if not ok.all():
        t_bad, i_bad = np.argwhere(~ok)[0]
        raise GridOverflow(
            f"no admissible control at step {t_bad}, node x={x_grid[i_bad]}: "
            "every drift target exits the state grid (bounds too tight)"
        )
    return PolicyGrid(grid=grid, x_grid=x_grid, atoms=atoms, policy_idx=policy_idx, value=value)


def induced_flows(config, policy: PolicyGrid, initial_law, layer=None):
    """Push the initial law through the policy; collect the control law.

    The policy must live on the layer's time grid, inventory grid and atoms.
    """
    layer = layer or TraderLayer.from_config(config)
    if not (policy.grid == layer.grid and np.array_equal(policy.x_grid, layer.x_grid)
            and np.array_equal(policy.atoms, layer.atoms)):
        raise InvalidParameter(
            "the policy's time grid, inventory grid or control atoms differ from the config's"
        )
    mu, overflow = kernels.push_forward(
        policy.policy_idx, np.asarray(initial_law, dtype=float), layer.operator
    )
    if overflow:
        raise GridOverflow(
            "positive mass drifts outside the state grid (bounds too tight)"
        )
    steps, na = policy.policy_idx.shape[0], len(policy.atoms)
    slots = np.arange(steps)[:, None] * na + policy.policy_idx
    q = np.bincount(slots.ravel(), weights=mu[:-1].ravel(), minlength=steps * na)
    return FlowOfMeasures(
        x_grid=policy.x_grid, atoms=policy.atoms, mu=mu, q=q.reshape(steps, na)
    )


def _flow_residual(flows_a: FlowOfMeasures, flows_b: FlowOfMeasures):
    hx = flows_a.x_grid[1] - flows_a.x_grid[0]
    ha = flows_a.atoms[1] - flows_a.atoms[0] if len(flows_a.atoms) > 1 else 1.0
    w_mu = wasserstein_grid(flows_a.mu, flows_b.mu, hx)
    w_q = wasserstein_grid(flows_a.q, flows_b.q, ha)
    return max(float(w_mu[-1]), float((w_q + w_mu[:-1]).max()))


def _response_map(config, layer, lp_control_path, flows: FlowOfMeasures):
    env = forward_environment(config, lp_control_path, flows.mean_controls(), layer)
    policy = best_response(config, env, layer=layer)
    return induced_flows(config, policy, layer.mu0, layer), policy, env


def _picard(config, layer, lp_control_path, flows):
    """Damped Picard iteration from ``flows``, probing the undamped image.

    When a response map repeats the previous map's policy, or its residual is
    within ``tol``, the image itself is mapped once more (at most once per
    distinct policy). If that probe reproduces the image bit for bit, the
    image is an exact fixed point and is returned with residual 0.0 from the
    probe as its certificate. Otherwise the damped iterates, and the stop at
    ``residual <= tol``, are those of the plain iteration. Every map, probes
    included, is one entry of the residual history and counts toward
    ``max_iter``, so a probe that fails at the stop is the last entry. An
    error raised here carries ``maps``, the response maps attempted.
    """
    lam, tol, max_iter = config.solver_damping, config.solver_tol, config.solver_max_iter
    history = []
    probed = set()
    previous = None

    def solution(flows, policy, env, certificate, exact, maps):
        return EquilibriumSolution(
            policy=policy,
            flows=flows,
            env=env,
            residual_history=history,
            certificate_residual=certificate,
            converged=True,
            iterations=len(history),
            diagnostics={
                "equilibrium_value": float(layer.mu0 @ policy.value[0]),
                "maps": maps,
                "exact": exact,
            },
        )

    try:
        while len(history) < max_iter:
            image, policy, env = _response_map(config, layer, lp_control_path, flows)
            residual = _flow_residual(image, flows)
            history.append(residual)
            key = policy.policy_idx.tobytes()
            if ((residual <= tol or key == previous) and key not in probed
                    and len(history) < max_iter):
                probed.add(key)
                again, probe_policy, probe_env = _response_map(
                    config, layer, lp_control_path, image
                )
                history.append(_flow_residual(again, image))
                if np.array_equal(again.mu, image.mu) and np.array_equal(again.q, image.q):
                    return solution(image, probe_policy, probe_env, history[-1], True,
                                    len(history))
            if residual <= tol:
                certificate = fixed_point_certificate(config, lp_control_path, flows, layer)
                return solution(flows, policy, env, certificate, False, len(history) + 1)
            previous = key
            flows = FlowOfMeasures(
                x_grid=image.x_grid,
                atoms=image.atoms,
                mu=lam * image.mu + (1.0 - lam) * flows.mu,
                q=lam * image.q + (1.0 - lam) * flows.q,
            )
    except (DegenerateReserves, GridOverflow) as exc:
        exc.maps = len(history) + 1
        raise
    exc = NotConverged(
        f"no fixed point within {max_iter} iterations (last residual {history[-1]:.3e})",
        residual_history=history,
    )
    exc.maps = len(history)
    raise exc


def solve_mfg(config, lp_control_path=None, start=None, layer=None):
    """Damped Picard iteration to the consistency fixed point, with the
    config's ``solver.damping``, ``solver.tol`` and ``solver.max_iter``.

    Returns an exact fixed point (its own image, bit for bit) when a probe of
    the undamped image finds one; otherwise the flow iterate whose image
    under the response map is within tolerance. Either way the best response
    against the returned flows comes with it.

    ``start`` (a FlowOfMeasures on the solver grids) replaces the cold initial
    flows. A warm solve that raises, or ends without an exact fixed point, is
    redone cold, so the result is an exact fixed point or exactly what a cold
    call returns. ``diagnostics`` records ``maps`` (response maps spent,
    warm attempt and certificate included) and ``exact``; an error raised
    here carries ``maps`` as well.
    """
    layer = layer or TraderLayer.from_config(config)
    grid, x_grid, atoms, mu0 = layer.grid, layer.x_grid, layer.atoms, layer.mu0
    if lp_control_path is None:
        lp_control_path = np.zeros(grid.steps)
    lp_control_path = np.asarray(lp_control_path, dtype=float)

    j0 = int(np.argmin(np.abs(atoms)))
    q = np.zeros((grid.steps, len(atoms)))
    q[:, j0] = 1.0
    cold = FlowOfMeasures(
        x_grid=x_grid, atoms=atoms, mu=np.tile(mu0, (grid.steps + 1, 1)), q=q
    )

    spent = 0
    if start is not None:
        if start.mu.shape != cold.mu.shape or start.q.shape != cold.q.shape:
            raise InvalidParameter(
                f"start flows must have shapes {cold.mu.shape} and {cold.q.shape}, "
                f"got {start.mu.shape} and {start.q.shape}"
            )
        try:
            warm = _picard(config, layer, lp_control_path, start)
        except _SOLVE_ERRORS as exc:
            spent = exc.maps
        else:
            if warm.diagnostics["exact"]:
                return warm
            spent = warm.diagnostics["maps"]
    try:
        sol = _picard(config, layer, lp_control_path, cold)
    except _SOLVE_ERRORS as exc:
        exc.maps += spent
        raise
    sol.diagnostics["maps"] += spent
    return sol


def fixed_point_certificate(config, lp_control_path, flows: FlowOfMeasures, layer):
    """Residual of the response map at ``flows``, recomputed from scratch."""
    image, _, _ = _response_map(config, layer, lp_control_path, flows)
    return _flow_residual(image, flows)


# ---------------------------------------------------------------------------
# LP layer
# ---------------------------------------------------------------------------


def lp_path_from_segments(segments, steps):
    """Piecewise-constant per-step path from K segment values."""
    segments = np.asarray(segments, dtype=float)
    k = len(segments)
    return segments[(np.arange(steps) * k) // steps]


def lp_objective(config, segments, start=None, layer=None):
    """LP cost of a segment vector: negated running reward plus terminal penalty.

    Deterministic-flow evaluation: solves the inner fixed point, warm-started
    from ``start`` flows if given. The LP's reward and stocks are those the
    market step recorded along the solution's environment. Returns
    (cost, solution).
    """
    layer = layer or TraderLayer.from_config(config)
    solution = solve_mfg(
        config, lp_path_from_segments(segments, layer.grid.steps), start=start, layer=layer
    )
    env = solution.env
    running = float(np.sum(env.lp_reward) * layer.grid.dt)
    c = config.lp_terminal_weight
    cost = -running + c * (env.lp_x[-1] ** 2 + env.lp_z[-1] ** 2)
    return cost, solution


def solve_major_minor(config):
    """Coordinate pattern search over the LP's piecewise-constant control.

    Greedy first-improvement polling with step halving; every candidate runs
    the inner fixed point to tolerance, warm-started from the incumbent's
    flows. Returns the best candidate's full equilibrium with the search
    trace attached; each trace row records the response maps its inner solve
    spent and whether it ended on an exact fixed point.
    """
    k = config.lp_segments
    lo, hi = config.lp_control_min, config.lp_control_max
    budget = config.solver_budget
    step = config.solver_initial_step
    step_tol = config.solver_step_tol

    layer = TraderLayer.from_config(config)
    cache = {}
    trace = []
    best_sol = None

    def evaluate(u, respect_budget=True):
        key = u.tobytes()
        if key in cache:
            return cache[key]
        if respect_budget and len(trace) >= budget:
            return (math.inf, None, "budget")  # not cached: never actually evaluated
        start = None if best_sol is None else best_sol.flows
        try:
            cost, sol = lp_objective(config, u, start=start, layer=layer)
            result = (cost, sol, "ok")
            maps, exact = sol.diagnostics["maps"], sol.diagnostics["exact"]
        except NotConverged as exc:
            result = (math.inf, None, "inner_not_converged")
            maps, exact = exc.maps, False
        except DegenerateReserves as exc:
            result = (math.inf, None, "degenerate")
            maps, exact = exc.maps, False
        trace.append(
            {
                "eval": len(trace),
                "step": step,
                "segments": u.tolist(),
                "objective": result[0],
                "status": result[2],
                "maps": maps,
                "exact": exact,
            }
        )
        cache[key] = result
        return result

    def poll(u, step):
        """The 2K coordinate neighbours of ``u`` in polling order, with feasibility."""
        for i in range(k):
            for direction in (1.0, -1.0):
                cand = u.copy()
                cand[i] += direction * step
                yield cand, lo <= cand[i] <= hi

    u = np.clip(np.zeros(k), lo, hi)
    best_cost, best_sol, _ = evaluate(u)
    while step >= step_tol and len(trace) < budget:
        for cand, feasible in poll(u, step):
            if feasible:
                cost, sol, _ = evaluate(cand)
                if cost < best_cost:
                    u, best_cost, best_sol = cand, cost, sol
                    break
        else:
            step *= 0.5

    if best_sol is None:
        raise NotConverged(
            "no feasible LP control: every inner solve failed", residual_history=[]
        )

    # local-optimality certificate at the final step size
    neighbors = []
    final_step = max(step, step_tol)
    for cand, feasible in poll(u, final_step):
        cost = evaluate(cand, respect_budget=False)[0] if feasible else math.inf
        neighbors.append({"segments": cand.tolist(), "objective": cost, "feasible": feasible})

    best_sol.lp_segments = u
    best_sol.lp_objective = best_cost
    best_sol.search_trace = trace
    best_sol.diagnostics.update(
        {
            "final_step": final_step,
            "neighbor_certificate": neighbors,
            "evaluations": len(trace),
        }
    )
    return best_sol
