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
   All R replications run as one batch of 2R lanes of the market step
   (baseline and deviation lane per replication), which keeps only (lanes,
   N) stocks and player 0's per-step reward.

The reported gap for each N is the mean paired difference in player 0's
realized objective; the convergence study fits a log-log slope across N.
"""

from dataclasses import dataclass, field

import numpy as np

from . import market
from .engine import initial_trader_states, make_noise, simulate
from .errors import InvalidParameter
from .solver import (
    MfgEnvironment,
    TraderLayer,
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
    slope: float
    clipped: np.ndarray  # per N: gap raised to GAP_FLOOR before the fit
    estimates: list = field(default_factory=list)

    @property
    def n_clipped(self):
        return int(self.clipped.sum())


def _derived_seed(*entropy):
    return int(np.random.SeedSequence(entropy).generate_state(1, dtype=np.uint64)[0])


def _paired_gaps(config, policy, deviation, lp_control_path, seed, noise, own):
    """Player 0's objective gap, deviation minus baseline, for every replication.

    All replications run as one lane batch of the market step: lanes [0, R)
    play ``policy``, lanes [R, 2R) let player 0 play ``deviation``. Lanes r
    and R + r share every stream: the pilot ``noise`` for the common price,
    the LP and players 1..N-1, and ``own[r]`` for player 0. Only (lanes, N)
    stocks and player 0's per-step reward are kept.
    """
    reps, steps = own.shape
    m = noise.idiosyncratic.shape[0]
    mk = market.Market.from_config(config)
    s = market.opening_state(
        config, np.tile(initial_trader_states(config, m, seed), (2 * reps, 1))
    )
    dw = np.empty((2 * reps, m))
    reward0 = np.empty((2 * reps, steps))
    for t in range(steps):
        alpha = policy(t, s.trader_x)
        alpha[reps:, 0] = deviation(t, s.trader_x[reps:, 0])
        dw[:] = noise.idiosyncratic[:, t]
        dw[:reps, 0] = dw[reps:, 0] = own[:, t]
        s, flows = market.step(mk, s, t, alpha, alpha.mean(axis=1), lp_control_path[t],
                               noise.common[t], dw, noise.lp[:, t])
        reward0[:, t] = flows.trader_reward[:, 0]
    objective = market.trader_objective(
        reward0, s.trader_x[:, 0], mk.dt, config.trader_terminal_weight
    )
    return objective[reps:] - objective[:reps]


def epsilon_nash_gap(config, n_players, solution, seed, lp_control_path, layer):
    """Best-deviation gain for one player among ``n_players`` on the MFG
    ``solution``'s policy, from ``harness.replications`` paired replications.

    ``solution`` is the equilibrium against ``lp_control_path`` and ``layer``
    the config's ``TraderLayer``.
    """
    grid = layer.grid
    replications = config.harness_replications
    if n_players < 1:
        raise InvalidParameter(f"need at least one player, got {n_players}")
    lp_control_path = np.asarray(lp_control_path, dtype=float)
    policy = solution.policy.as_policy()

    pilot_seed = _derived_seed(seed, 0, n_players)
    pilot_noise = make_noise(pilot_seed, grid, n_players)
    pilot = simulate(
        config, policy, lp_control_path, pilot_seed, noise=pilot_noise, n_traders=n_players
    )
    # the pilot's realized market is the environment the deviation answers
    env = MfgEnvironment(
        x_adj=pilot.x_adj_path,
        delta=pilot.delta_path,
        price=pilot.price_path,
        lvr_rate=pilot.lvr_rate_path,
        qbar=pilot.mean_control_path,
        lp_control=lp_control_path,
        lp_x=pilot.lp_x_path,
        lp_z=pilot.lp_z_path,
        lp_reward=pilot.lp_reward_path,
    )
    # freeze the other players' pilot contribution to the empirical mean and
    # let the deviator's own control enter it with weight 1/N, mirroring how
    # the engine pays a finite-N player
    alpha0 = np.array(
        [policy(t, pilot.trader_x[0:1, t])[0] for t in range(grid.steps)]
    )
    qbar_others = pilot.mean_control_path - alpha0 / n_players
    deviation = best_response(
        config, env, own_weight=1.0 / n_players, qbar_others=qbar_others, layer=layer
    ).as_policy()

    # replications redraw only player 0's idiosyncratic noise; the other
    # players (and the common and LP streams) stay frozen at the pilot draw,
    # so baseline and deviation differ purely by player 0's policy
    own = np.stack([
        np.random.default_rng(
            np.random.SeedSequence((seed, 2, n_players, r))
        ).standard_normal(grid.steps)
        for r in range(replications)
    ]) * np.sqrt(grid.dt)
    gaps = _paired_gaps(config, policy, deviation, lp_control_path, pilot_seed,
                        pilot_noise, own)

    gap = float(gaps.mean())
    stderr = float(gaps.std(ddof=1) / np.sqrt(replications))
    return DeviationEstimate(
        n_players=n_players,
        gap=gap,
        stderr=stderr,
        replications=replications,
        paired_gaps=gaps,
    )


def convergence_study(config, seed=None):
    """Deviation gains over ``harness.n_values`` with the LP idle, and a
    log-log slope fit."""
    n_values = list(config.harness_n_values)
    seed = config.seed if seed is None else seed

    layer = TraderLayer.from_config(config)
    lp_control_path = np.zeros(config.grid_steps)
    solution = solve_mfg(config, lp_control_path, layer=layer)

    estimates = [
        epsilon_nash_gap(config, n, solution, seed, lp_control_path, layer) for n in n_values
    ]
    gaps = np.array([e.gap for e in estimates])
    stderrs = np.array([e.stderr for e in estimates])

    clipped = gaps < GAP_FLOOR
    floored = np.maximum(gaps, GAP_FLOOR)
    slope, _ = np.polyfit(np.log(np.asarray(n_values, dtype=float)), np.log(floored), 1)
    return NashReport(
        n_values=n_values,
        gaps=gaps,
        stderrs=stderrs,
        replications=estimates[0].replications,
        slope=float(slope),
        clipped=clipped,
        estimates=estimates,
    )
