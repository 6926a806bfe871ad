"""Finite-population diagnostics for the mean-field equilibrium policy.

The equilibrium policy is computed in the infinite-population limit; here we
measure how much a single player can gain by deviating from it in a game with
N players. The deviation benchmark is built in two stages:

1. A pilot simulation with all N players on the candidate policy yields the
   empirical market environment (realized price, adjusted reserves, mean
   control). A backward DP against that frozen environment gives the best
   deviation a single player could mount if the crowd kept playing the
   candidate policy.

2. Paired replications estimate the value of that deviation. The other
   players stay frozen at their pilot noise (they are the fixed opponents the
   deviation answers), each replication redraws only the deviator's own
   idiosyncratic noise, and baseline and deviation runs share the bundle
   (common random numbers), so the pairwise difference isolates the
   deviator's edge plus the O(1/N) feedback of their control on the market.

The reported gap for each N is the mean paired difference in player 0's
realized objective; the convergence study fits a log-log slope across N.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .engine import NoiseBundle, TimeGrid, make_noise, simulate
from .errors import InvalidParameter
from .solver import (
    MfgEnvironment,
    best_response,
    solve_mfg,
)

GAP_FLOOR = 1e-12  # floor before taking logs in the slope fit


@dataclass(frozen=True)
class DeviationEstimate:
    """Paired-replication estimate of the best single-player deviation gain."""

    n_players: int
    gap: float
    stderr: float
    replications: int
    paired_gaps: np.ndarray


@dataclass
class NashReport:
    """Deviation gains across population sizes with a log-log slope fit."""

    n_values: list
    gaps: np.ndarray
    stderrs: np.ndarray
    replications: int
    seed: int
    slope: float
    intercept: float
    clipped: np.ndarray  # per N: gap raised to GAP_FLOOR before the fit
    estimates: list = field(default_factory=list)

    @property
    def n_clipped(self):
        return int(self.clipped.sum())


def _derived_seed(*entropy):
    return int(np.random.SeedSequence(entropy).generate_state(1, dtype=np.uint64)[0])


def simulate_n_players(config, trader_policy, lp_control_path, seed, n_players,
                       noise=None, deviant_policy=None):
    """N-player system run; wraps the simulator with an explicit population size."""
    if n_players < 1:
        raise InvalidParameter(f"need at least one player, got {n_players}")
    return simulate(
        config,
        trader_policy,
        lp_control_path,
        seed,
        noise=noise,
        n_traders=n_players,
        deviant_policy=deviant_policy,
    )


def environment_from_trajectory(config, traj, lp_control_path):
    """Empirical market environment extracted from a realized trajectory."""
    k0 = config.pool_x0 * config.pool_y0
    phi = 1.0 - config.pool_tau
    n = traj.grid.steps
    xa = traj.x_adj_path[:-1]
    dl = traj.delta_path[:-1]
    qbar = traj.mean_control_path
    a_fac = xa + phi * dl
    b_fac = xa + dl
    g = 1.0 / (a_fac * b_fac)
    a_lp = np.asarray(lp_control_path, dtype=float)
    pd_reward = -k0 * ((a_lp + phi * qbar) * b_fac + a_fac * (a_lp + qbar)) * g * g
    return MfgEnvironment(
        x_adj=traj.x_adj_path.copy(),
        delta=traj.delta_path.copy(),
        price=traj.price_path.copy(),
        lvr_rate=traj.lvr_rate_path.copy(),
        qbar=qbar.copy(),
        lp_control=a_lp.copy(),
        g=g,
        x_total=b_fac.copy(),
        pd_reward=pd_reward,
    )


def epsilon_nash_gap(config, n_players, replications=None, seed=None,
                     solution=None, lp_control_path=None):
    """Best-deviation gain for one player among ``n_players`` on the MFG policy."""
    grid = TimeGrid(config.grid_horizon, config.grid_steps)
    replications = config.harness_replications if replications is None else replications
    seed = config.seed if seed is None else seed
    if replications < 2:
        raise InvalidParameter("paired estimation needs at least 2 replications")
    if lp_control_path is None:
        lp_control_path = np.zeros(grid.steps)
    if solution is None:
        solution = solve_mfg(config, lp_control_path)
    policy = solution.policy.as_policy()

    pilot_seed = _derived_seed(seed, 0, n_players)
    pilot_noise = make_noise(pilot_seed, grid, n_players)
    pilot = simulate_n_players(
        config, policy, lp_control_path, pilot_seed, n_players, noise=pilot_noise
    )
    env = environment_from_trajectory(config, pilot, lp_control_path)
    # freeze the other players' pilot contribution to the empirical mean and
    # let the deviator's own control enter it with weight 1/N, mirroring how
    # the engine pays a finite-N player
    alpha0 = np.array(
        [policy(t, pilot.trader_x[0:1, t])[0] for t in range(grid.steps)]
    )
    qbar_others = pilot.mean_control_path - alpha0 / n_players
    deviation = best_response(
        config, env, own_weight=1.0 / n_players, qbar_others=qbar_others
    ).as_policy()

    # replications redraw only player 0's idiosyncratic noise; the other
    # players (and the common and LP streams) stay frozen at the pilot draw,
    # so baseline and deviation differ purely by player 0's policy
    root_dt = np.sqrt(grid.dt)
    gaps = np.empty(replications)
    for r in range(replications):
        own = np.random.default_rng(
            np.random.SeedSequence((seed, 2, n_players, r))
        ).standard_normal(grid.steps) * root_dt
        idio = pilot_noise.idiosyncratic.copy()
        idio[0] = own
        noise = replace(pilot_noise, idiosyncratic=idio)
        base = simulate_n_players(
            config, policy, lp_control_path, pilot_seed, n_players, noise=noise
        )
        dev = simulate_n_players(
            config, policy, lp_control_path, pilot_seed, n_players,
            noise=noise, deviant_policy=deviation,
        )
        gaps[r] = dev.trader_objectives[0] - base.trader_objectives[0]

    gap = float(gaps.mean())
    stderr = float(gaps.std(ddof=1) / np.sqrt(replications))
    return DeviationEstimate(
        n_players=n_players,
        gap=gap,
        stderr=stderr,
        replications=replications,
        paired_gaps=gaps,
    )


def convergence_study(config, n_values=None, replications=None, seed=None,
                      lp_control_path=None):
    """Deviation gains over a ladder of population sizes, with slope fit."""
    n_values = list(config.harness_n_values) if n_values is None else list(n_values)
    seed = config.seed if seed is None else seed
    if len(n_values) < 2:
        raise InvalidParameter("slope fit needs at least two population sizes")
    if any(n < 1 for n in n_values):
        raise InvalidParameter("population sizes must be positive")

    grid = TimeGrid(config.grid_horizon, config.grid_steps)
    if lp_control_path is None:
        lp_control_path = np.zeros(grid.steps)
    solution = solve_mfg(config, lp_control_path)

    estimates = []
    for n in n_values:
        estimates.append(
            epsilon_nash_gap(
                config, n,
                replications=replications,
                seed=seed,
                solution=solution,
                lp_control_path=lp_control_path,
            )
        )
    gaps = np.array([e.gap for e in estimates])
    stderrs = np.array([e.stderr for e in estimates])

    clipped = gaps < GAP_FLOOR
    floored = np.maximum(gaps, GAP_FLOOR)
    slope, intercept = np.polyfit(np.log(np.asarray(n_values, dtype=float)), np.log(floored), 1)
    return NashReport(
        n_values=n_values,
        gaps=gaps,
        stderrs=stderrs,
        replications=estimates[0].replications,
        seed=seed,
        slope=float(slope),
        intercept=float(intercept),
        clipped=clipped,
        estimates=estimates,
    )
