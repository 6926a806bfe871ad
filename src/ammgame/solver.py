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
   itself being the from-scratch certificate. A warm-started iteration
   probes the image of its first map at once, as a start near the answer
   usually maps straight onto it. Each policy is probed at most once;
   without an exact hit the damped iterate within tolerance is returned,
   its certificate being the residual of the map that stopped it.

3. LP control: over piecewise-constant controls on K segments, a coordinate
   pattern search minimizes the LP cost (negated running reward plus
   quadratic terminal penalty), halving its step down to solver.step_tol.
   The poll that ended the search is the certificate: a full poll without
   improvement at solver.step_tol, or the poll in which solver.budget ran
   out, whose candidates past the budget are evaluated but never accepted.
   It solves problem 2 at every candidate, warm-started from the
   incumbent's flows, so a candidate whose first image is exact costs two
   response maps: the map of the incumbent's flows and its probe. A warm
   solve is kept only when it ends on an exact fixed point; otherwise it is
   redone cold.
   A candidate's cost and status therefore do not depend on the path the
   search took whenever its cold solve ends on the same exact point, as
   every candidate of the default search does. Inner non-convergence marks
   the candidate infeasible instead of aborting the search. The search
   caches each candidate's cost alone, not its solution: a cached cost never
   beats the incumbent, so only the incumbent's solution is ever read.

Everything the trader layer derives from the config alone, and that no LP
candidate or Picard iterate changes, lives in one frozen ``TraderLayer``: the
time grid, the inventory grid and control atoms, the initial law (the
config's ``time_grid``, ``trader_grids`` and ``initial_trader_law``, which
its checks also build), the terminal reward, the quadrature, the ``Market``
and the one-step transition law, stored as one stencil per atom, with its
admissibility mask (``kernels.transition_operator``). The config guarantees
every inventory node an admissible atom, so the best response never picks a
blocked one and no mass leaves the grid along its drift.
No function takes a layer: each that needs one reads it through
``trader_layer(config)``, which keeps the layer of the last config object it
was asked for, so the stencil is built once per config, not once per map,
and a solve, an LP search or a check that recomputes one response map all
share it. The layer also holds the response map's one-entry memo of its
pushforward of ``mu0``, keyed on the policy: the pushed law is a function of
the policy, ``mu0`` and the stencil alone, and most response maps of a
search repeat the previous map's policy, also across LP candidates and
across solves on the same config. ``induced_flows`` itself is a pure
function. ``kernels.push_forward`` takes the layer's (stencil, lo,
admissible) and nothing else; ``kernels.dp_backward`` is passed it too, but
still builds its own when called without one, as the DP-versus-enumeration
acceptance test calls it.

The solver runs in deterministic-flow mode: no common price noise enters the
fixed point; idiosyncratic trader noise is integrated exactly through the
quadrature. The environment is a noise-free lane without traders recorded by
``market.record``, the recorder ``engine.simulate`` runs, and the reward table
and the LP cost read the drift, G and the LP's stocks from its step, so DP
rewards are tabulated on exactly the path a noise-free simulation realizes.
The solver imports nothing from the engine: the two are siblings on
``market`` and read one time grid from the config.
"""

import contextlib
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels, market
from .config import TimeGrid, initial_trader_law, time_grid, trader_grids
from .errors import ConfigError, DegenerateReserves, InvalidParameter, NotConverged

# what an inner solve raises on a hopeless instance; solve_mfg tags each with ``maps``
_SOLVE_ERRORS = (DegenerateReserves, NotConverged)
# maps whose policies a failed Picard iteration counts, to tell a cycle from a drift
_TAIL_MAPS = 50


@dataclass(frozen=True)
class PolicyGrid:
    """Feedback policy and value function tabulated on (time, inventory).

    Its time grid, inventory grid and atoms are those of the trader layer it
    was solved on; ``check_on_layer`` holds a policy to a config's layer.
    """

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
class EquilibriumSolution:
    """Converged policy, flows, diagnostics, and (optionally) the LP layer."""

    policy: PolicyGrid
    flows: FlowOfMeasures
    env: market.SystemTrajectory
    residual_history: list
    certificate_residual: float
    converged: bool
    iterations: int
    diagnostics: dict
    lp_segments: np.ndarray | None = None
    lp_objective: float | None = None
    search_trace: list | None = None


@dataclass(frozen=True)
class TraderLayer:
    """The trader layer's fixed discretization, built by ``trader_layer``.

    ``operator`` is ``kernels.transition_operator``'s (stencil, lo,
    admissible) on these grids, quadrature and sigma * sqrt(dt): one (w, na)
    stencil over the moves lo ... lo + w - 1 that hold mass (w = 9, lo = -4
    at the default config), applied at every node through the same clamped
    window nodes by the DP and the pushforward. ``pushed`` is
    ``solve_mfg``'s one-entry memo: the policy bytes and the flows of the last
    pushforward of ``mu0``, which later maps share.
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
    pushed: list


_cached_layer = [None, None]  # (config, TraderLayer) of the last trader_layer call


def trader_layer(config):
    """The config's ``TraderLayer``, kept until another config object asks.

    The one entry is keyed on the config object's identity. The layer it
    holds is dropped before the next one is built, so two transition
    laws are never alive at once on its account.
    """
    if _cached_layer[0] is not config:
        _cached_layer[:] = None, None
        grid = time_grid(config)
        x_grid, atoms = trader_grids(config)
        nodes, weights = kernels.gauss_hermite(config.grid_quad_points)
        sig_root_dt = config.trader_sigma * math.sqrt(grid.dt)
        _cached_layer[:] = config, TraderLayer(
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
            pushed=[None, None],
        )
    return _cached_layer[1]


def wasserstein_grid(u, v, spacing):
    """W1 between weight vectors on a shared uniform grid, row by row.

    The weights run along the last axis; a pair of 1-d vectors gives a float.
    """
    diff = np.cumsum(np.subtract(u, v), axis=-1)
    return spacing * np.abs(diff[..., :-1]).sum(axis=-1)


def forward_environment(config, lp_control_path, qbar):
    """The deterministic market path: one noise-free lane of the market step,
    with no traders and the mean control ``qbar`` given, recorded by
    ``market.record``. Its trader fields are None.
    """
    layer = trader_layer(config)
    n = layer.grid.steps
    lp_control_path = np.asarray(lp_control_path, dtype=float)
    qbar = np.asarray(qbar, dtype=float)
    if lp_control_path.shape != (n,) or qbar.shape != (n,):
        raise InvalidParameter("lp control and mean-control paths must cover every step")
    q = qbar.tolist()
    return market.record(layer.market, market.opening_state(config), lp_control_path,
                         lambda t, s: (None, q[t], 0, 0, (0, 0, 0)))


def tabulate_rewards(config, env: market.SystemTrajectory, qslot):
    """Running reward table R[t, ix, ja] for the representative trader.

    ``qslot`` fills the mean-control slot of the price drift, per step and
    per own control: shape (steps, 1) for the frozen mean field
    ``env.mean_control_path[:, None]``, or (steps, atoms) when the player's
    own control enters the average. The Nash harness passes qbar_others + a / N, with
    qbar_others the frozen contribution of the other N-1 players: the table
    then pays what the finite-N engine pays a player whose control enters
    the empirical mean, so a deviator can internalize its own impact. The
    drift and the reward are the market step's, evaluated at the path's left
    points, so the table pays what the engine pays.
    """
    layer = trader_layer(config)
    mk, atoms = layer.market, layer.atoms
    xa = env.x_adj_path[:-1, None]
    dl = env.delta_path[:-1, None]
    pd = market.price_drift(xa, dl, env.lp_control_path[:, None], qslot, mk.phi, mk.k0)
    return market.trader_reward(
        mk, layer.x_grid[None, :, None], atoms, xa[:, None], dl[:, None], pd[:, None, :]
    )


def best_response(config, env: market.SystemTrajectory, qslot=None):
    """Backward DP against a frozen environment.

    ``qslot`` is as in ``tabulate_rewards``; None means
    ``env.mean_control_path[:, None]``.
    """
    layer = trader_layer(config)
    grid, x_grid, atoms = layer.grid, layer.x_grid, layer.atoms
    qslot = env.mean_control_path[:, None] if qslot is None else np.asarray(qslot, dtype=float)
    if qslot.shape not in ((grid.steps, 1), (grid.steps, len(atoms))):
        raise InvalidParameter(
            f"mean-control slot must have shape ({grid.steps}, 1) or "
            f"({grid.steps}, {len(atoms)}), got {qslot.shape}"
        )
    rewards = tabulate_rewards(config, env, qslot)
    value, policy_idx, _ = kernels.dp_backward(
        rewards, layer.terminal, x_grid, atoms, grid.dt, layer.sig_root_dt,
        layer.z_nodes, layer.z_weights, layer.operator,
    )
    return PolicyGrid(x_grid=x_grid, atoms=atoms, policy_idx=policy_idx, value=value)


def check_on_layer(config, policy: PolicyGrid):
    """The config's ``TraderLayer``, once ``policy`` is found to live on it.

    The policy's step count, inventory grid and control atoms must be the
    layer's; otherwise ``InvalidParameter`` names each part that differs.
    """
    layer = trader_layer(config)

    def span(v):
        return f"{len(v)} points on [{v[0]:g}, {v[-1]:g}]"

    steps = policy.policy_idx.shape[0]
    differ = [] if steps == layer.grid.steps else [
        f"step count {steps}, the config's {layer.grid.steps}"
    ]
    for name, own, layer_own in (("inventory grid", policy.x_grid, layer.x_grid),
                                 ("control atoms", policy.atoms, layer.atoms)):
        if not np.array_equal(own, layer_own):
            differ.append(f"{name} of {span(own)}, the config's of {span(layer_own)}")
    if differ:
        raise InvalidParameter(
            "the policy is not on the config's trader layer: " + "; ".join(differ)
        )
    return layer


def induced_flows(config, policy: PolicyGrid, initial_law):
    """Push the initial law through the policy; collect the control law.

    The policy must live on the config's trader layer (``check_on_layer``).
    """
    layer = check_on_layer(config, policy)
    mu = kernels.push_forward(
        policy.policy_idx, np.asarray(initial_law, dtype=float), layer.operator
    )
    steps, na = policy.policy_idx.shape[0], len(policy.atoms)
    slots = np.arange(steps)[:, None] * na + policy.policy_idx
    q = np.bincount(slots.ravel(), weights=mu[:-1].ravel(), minlength=steps * na)
    return FlowOfMeasures(
        x_grid=policy.x_grid, atoms=policy.atoms, mu=mu, q=q.reshape(steps, na)
    )


def _flow_residual(flows_a: FlowOfMeasures, flows_b: FlowOfMeasures):
    hx = flows_a.x_grid[1] - flows_a.x_grid[0]
    ha = flows_a.atoms[1] - flows_a.atoms[0]
    w_mu = wasserstein_grid(flows_a.mu, flows_b.mu, hx)
    w_q = wasserstein_grid(flows_a.q, flows_b.q, ha)
    return max(float(w_mu[-1]), float((w_q + w_mu[:-1]).max()))


def _picard(config, response_map, flows, warm=False):
    """Damped Picard iteration from ``flows``, probing the undamped image.

    When a response map repeats the previous map's policy, or its residual is
    within ``tol``, or it is the first map of a ``warm`` iteration (one that
    starts near its answer), the image itself is mapped once more (at most
    once per distinct policy). If that probe reproduces the image bit for
    bit, the image is an exact fixed point and is returned with residual 0.0
    from the probe as its certificate. Otherwise the damped iterates, and the
    stop at ``residual <= tol``, are those of the plain iteration; the
    certificate is then the residual of the map that stopped it. Every map,
    probes included, is one entry of the residual history and counts toward
    ``max_iter``, so a probe that fails at the stop is the last entry.

    Returns (flows, policy, env, history, certificate, exact). ``NotConverged``
    says whether the iteration cycles: its message gives the lowest residual
    and how many distinct best-response policies the last ``_TAIL_MAPS`` maps
    produced, which are kept only once the budget is that close to its end.
    """
    lam, tol, max_iter = config.solver_damping, config.solver_tol, config.solver_max_iter
    history = []
    probed = set()
    previous = None
    tail = []  # the policy bytes of the last _TAIL_MAPS maps before max_iter

    def mapped(flows):
        image, policy, env = response_map(flows)
        if len(history) >= max_iter - _TAIL_MAPS:
            tail.append(policy.policy_idx.tobytes())
        return image, policy, env

    while len(history) < max_iter:
        image, policy, env = mapped(flows)
        residual = _flow_residual(image, flows)
        history.append(residual)
        key = policy.policy_idx.tobytes()
        if ((residual <= tol or key == previous or (warm and len(history) == 1))
                and key not in probed and len(history) < max_iter):
            probed.add(key)
            again, probe_policy, probe_env = mapped(image)
            history.append(_flow_residual(again, image))
            if np.array_equal(again.mu, image.mu) and np.array_equal(again.q, image.q):
                return image, probe_policy, probe_env, history, history[-1], True
        if residual <= tol:
            return flows, policy, env, history, residual, False
        previous = key
        flows = FlowOfMeasures(
            x_grid=image.x_grid,
            atoms=image.atoms,
            mu=lam * image.mu + (1.0 - lam) * flows.mu,
            q=lam * image.q + (1.0 - lam) * flows.q,
        )
    raise NotConverged(
        f"no fixed point within {max_iter} iterations (last residual {history[-1]:.3e}, "
        f"lowest {min(history):.3e}; {len(set(tail))} distinct best-response policies "
        f"in the last {len(tail)} maps)",
        history,
    )


def solve_mfg(config, lp_control_path=None, start=None):
    """Damped Picard iteration to the consistency fixed point, with the
    config's ``solver.damping``, ``solver.tol`` and ``solver.max_iter``.

    Returns an exact fixed point (its own image, bit for bit) when a probe of
    the undamped image finds one; otherwise the flow iterate whose image
    under the response map is within tolerance. Either way the best response
    against the returned flows comes with it.

    The response map reads its input only through the mean controls, and the
    LP path is fixed here, so a map whose input carries the last computed
    map's mean controls, bit for bit, returns that map's result; it still
    counts as a map. A probe of an image whose mean controls equal its
    input's is such a map.

    ``start`` (a FlowOfMeasures on the solver grids) replaces the cold initial
    flows, and the warm iteration probes its first image at once; the cold
    one waits for a repeated policy or a residual within tolerance. A warm
    solve that raises, or ends without an exact fixed point, is redone cold,
    so the result is an exact fixed point or exactly what a cold call
    returns. ``diagnostics`` records ``maps`` (response maps spent, a warm
    attempt included) and ``exact``; an error raised here carries ``maps``
    as well.
    """
    layer = trader_layer(config)
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
    if start is not None and (start.mu.shape != cold.mu.shape or start.q.shape != cold.q.shape):
        raise InvalidParameter(
            f"start flows must have shapes {cold.mu.shape} and {cold.q.shape}, "
            f"got {start.mu.shape} and {start.q.shape}"
        )

    maps = 0
    last = None  # (mean-control bytes, result) of the last map computed

    def response_map(flows):
        nonlocal maps, last
        maps += 1
        qbar = flows.mean_controls()
        key = qbar.tobytes()
        if last is None or last[0] != key:
            env = forward_environment(config, lp_control_path, qbar)
            policy = best_response(config, env)
            pushed = policy.policy_idx.tobytes()
            if layer.pushed[0] != pushed:
                layer.pushed[:] = pushed, induced_flows(config, policy, mu0)
            last = key, (layer.pushed[1], policy, env)
        return last[1]

    found = None
    try:
        if start is not None:
            with contextlib.suppress(*_SOLVE_ERRORS):
                found = _picard(config, response_map, start, warm=True)
        if found is None or not found[-1]:  # a warm solve is kept only when exact
            found = _picard(config, response_map, cold)
    except _SOLVE_ERRORS as exc:
        exc.maps = maps
        raise
    flows, policy, env, history, certificate, exact = found
    return EquilibriumSolution(
        policy=policy,
        flows=flows,
        env=env,
        residual_history=history,
        certificate_residual=certificate,
        converged=True,
        iterations=len(history),
        diagnostics={
            "equilibrium_value": float(mu0 @ policy.value[0]),
            "maps": maps,
            "exact": exact,
        },
    )


# ---------------------------------------------------------------------------
# LP layer
# ---------------------------------------------------------------------------


def lp_path_from_segments(segments, steps):
    """Piecewise-constant per-step path from K segment values."""
    segments = np.asarray(segments, dtype=float)
    k = len(segments)
    return segments[(np.arange(steps) * k) // steps]


def lp_objective(config, segments, start=None):
    """LP cost of a segment vector: negated running reward plus terminal penalty.

    Deterministic-flow evaluation: solves the inner fixed point, warm-started
    from ``start`` flows if given. The LP's reward and stocks are those the
    market step recorded along the solution's environment. Returns
    (cost, solution).
    """
    grid = trader_layer(config).grid
    solution = solve_mfg(config, lp_path_from_segments(segments, grid.steps), start=start)
    env = solution.env
    running = float(np.sum(env.lp_reward_path) * grid.dt)
    c = config.lp_terminal_weight
    cost = -running + c * (env.lp_x_path[-1] ** 2 + env.lp_z_path[-1] ** 2)
    return cost, solution


def check_lp_segments(config):
    """Raise ConfigError naming lp.segments unless every segment controls a
    step. ``lp_path_from_segments`` gives step t segment (t * K) // steps,
    which reaches every segment exactly when K <= steps; a segment that
    controls no step would still be polled, at the incumbent's cost."""
    if config.lp_segments > config.grid_steps:
        raise ConfigError(
            "lp.segments",
            f"{config.lp_segments} segments on grid.steps = {config.grid_steps} leave "
            f"{config.lp_segments - config.grid_steps} controlling no step; the LP "
            f"search needs lp.segments <= grid.steps",
        )


def solve_major_minor(config):
    """Coordinate pattern search over the LP's piecewise-constant control.

    Greedy first-improvement polling; a poll with no improvement halves the
    step, never below solver.step_tol. Every candidate runs the inner fixed
    point to tolerance, warm-started from the incumbent's flows, whose first
    image is probed at once (two maps when it is exact). Returns the
    best candidate's full equilibrium with the search trace attached; each
    trace row records the response maps its inner solve spent and whether it
    ended on an exact fixed point. The poll that ended the search is the
    certificate, ``diagnostics["neighbor_certificate"]``: one ``{"segments",
    "objective", "feasible"}`` entry per neighbour, in polling order. Past
    solver.budget evaluations a candidate is still evaluated if an incumbent
    exists to certify, but never accepted, so that poll ends the search.
    ``stop_reason`` is ``budget`` exactly when the trace holds more than
    solver.budget rows, and a certificate neighbour may then beat the
    returned point; else ``step_tol``, a full poll at solver.step_tol having
    found no improvement. When every candidate fails, the raised
    ``NotConverged`` carries the trace, at most solver.budget rows. A config
    whose segments do not all control a step is rejected first
    (``check_lp_segments``).
    """
    check_lp_segments(config)
    k = config.lp_segments
    lo, hi = config.lp_control_min, config.lp_control_max
    budget, step_tol = config.solver_budget, config.solver_step_tol
    step = max(config.solver_initial_step, step_tol)
    cache, trace, best_sol = {}, [], None

    def evaluate(u):
        key = u.tobytes()
        if key in cache:
            return cache[key], None  # a cached cost never beats the incumbent
        start = None if best_sol is None else best_sol.flows
        cost, sol = math.inf, None
        try:
            cost, sol = lp_objective(config, u, start=start)
            status, maps, exact = "ok", sol.diagnostics["maps"], sol.diagnostics["exact"]
        except NotConverged as exc:
            status, maps, exact = "inner_not_converged", exc.maps, False
        except DegenerateReserves as exc:
            status, maps, exact = "degenerate", exc.maps, False
        trace.append({"eval": len(trace), "step": step, "segments": u.tolist(),
                      "objective": cost, "status": status, "maps": maps, "exact": exact})
        cache[key] = cost
        return cost, sol

    u = np.clip(np.zeros(k), lo, hi)
    best_cost, best_sol = evaluate(u)
    while True:
        neighbors = []  # this poll, in polling order
        for i, direction in itertools.product(range(k), (1.0, -1.0)):
            cand = u.copy()
            cand[i] += direction * step
            feasible = lo <= cand[i] <= hi
            cost, sol = math.inf, None
            # past the budget only to certify an incumbent
            if feasible and (len(trace) < budget or best_sol is not None):
                cost, sol = evaluate(cand)
            neighbors.append({"segments": cand.tolist(), "objective": cost, "feasible": feasible})
            if cost < best_cost and len(trace) <= budget:
                u, best_cost, best_sol = cand, cost, sol
                break
        else:
            if len(trace) > budget or step == step_tol:
                break
            step = max(0.5 * step, step_tol)

    if best_sol is None:
        exc = NotConverged("no feasible LP control: every inner solve failed", [])
        exc.search_trace = trace
        raise exc
    best_sol.lp_segments = u
    best_sol.lp_objective = best_cost
    best_sol.search_trace = trace
    best_sol.diagnostics.update(
        stop_reason="budget" if len(trace) > budget else "step_tol",
        final_step=step, neighbor_certificate=neighbors,
    )
    return best_sol
