"""Finite-population diagnostics for the mean-field equilibrium policy.

The equilibrium policy is computed in the infinite-population limit; here we
measure how much a single player can gain by deviating from it in a game with
N players. The deviation benchmark is built in two stages:

1. A pilot simulation with all N players on the candidate policy, seeded by
   the first opening word of stream N of the key (seed, 0) in ``streams``,
   records the empirical market path (realized price, adjusted reserves,
   mean control). A backward DP against that frozen record, read as the
   solver reads its environment, gives the best deviation a single player
   could mount if the crowd kept playing the candidate policy.

2. Paired replications estimate the value of that deviation. The other
   players stay frozen at their pilot noise (they are the fixed opponents the
   deviation answers), replication r redraws only the deviator's own
   idiosyncratic noise, from stream r of the key (seed, 2, N), and baseline
   and deviation runs share the bundle (common random numbers), so the
   pairwise difference isolates the deviator's edge plus the O(1/N) feedback
   of their control on the market.
   All R replications run as one batch of 2R lanes of the market step
   (baseline and deviation lane per replication) on the pilot's market and
   LP path. Every control is a feedback on the player's own inventory, so
   players 1..N-1, frozen at their pilot noise, walk the pilot's inventory
   path in every lane: the batch steps player 0 alone, from the pilot's
   opening inventory, with (lanes, 1) stocks, and reads the crowd's
   controls off the pilot's recorded inventories. It keeps player 0's
   per-step reward.

The reported gap for each N is the mean paired difference in player 0's
realized objective; the convergence study fits a log-log slope across N.
"""

from dataclasses import dataclass

import numpy as np

from . import market
from .engine import make_noise, simulate
from .errors import InvalidParameter
from .solver import best_response, check_on_layer, solve_mfg
from .streams import normals, opening_words

GAP_FLOOR = 1e-12  # floor before taking logs in the slope fit


@dataclass(frozen=True)
class DeviationEstimate:
    """Paired-replication estimate of the best single-player deviation gain."""

    n_players: int
    gap: float
    stderr: float
    paired_gaps: np.ndarray


@dataclass
class NashReport:
    """Deviation gains across population sizes with a log-log slope fit."""

    n_values: list
    gaps: np.ndarray
    stderrs: np.ndarray
    slope: float
    clipped: np.ndarray  # per N: gap raised to GAP_FLOOR before the fit
    estimates: list

    @property
    def n_clipped(self):
        return int(self.clipped.sum())


def _paired_gaps(config, pilot, policy, deviation, noise, own):
    """Player 0's objective gap, deviation minus baseline, for every replication.

    All replications run as one lane batch of the market step on the
    ``pilot``'s market and LP path: lanes [0, R) play ``policy``, lanes
    [R, 2R) let player 0 play ``deviation``. Lanes r and R + r share every
    stream: the pilot ``noise`` for the common price and the LP, and
    ``own[r]`` for player 0. ``policy`` is a feedback on each player's own
    inventory, so players 1..N-1, on their pilot noise, hold the pilot's
    inventories in every lane; the market steps only player 0's (2R, 1)
    stocks, from its pilot opening, and the crowd's controls at step t are
    ``policy`` at the pilot's recorded inventories. Each lane's mean control
    is taken over its full row of N controls. Only player 0's per-step
    reward is kept.
    """
    reps, steps = own.shape
    mk, lp_control_path, crowd_x = pilot.market, pilot.lp_control_path, pilot.trader_x[1:]
    s = market.opening_state(config, np.full((2 * reps, 1), pilot.trader_x[0, 0]))
    alpha = np.empty((2 * reps, pilot.trader_x.shape[0]))  # column 0 is the deviator
    dw = np.empty((2 * reps, 1))
    reward0 = np.empty((2 * reps, steps))
    for t in range(steps):
        x = s.trader_x[:, 0]
        alpha[:, 1:] = policy(t, crowd_x[:, t])
        alpha[:reps, 0] = policy(t, x[:reps])
        alpha[reps:, 0] = deviation(t, x[reps:])
        dw[:reps, 0] = dw[reps:, 0] = own[:, t]
        s, flows = market.step(mk, s, t, alpha[:, :1], alpha.mean(axis=1), lp_control_path[t],
                               noise.common[t], dw, noise.lp[:, t])
        reward0[:, t] = flows.trader_reward[:, 0]
    objective = market.trader_objective(
        reward0, s.trader_x[:, 0], mk.dt, config.trader_terminal_weight
    )
    return objective[reps:] - objective[:reps]


def epsilon_nash_gap(config, n_players, solution, seed):
    """Best-deviation gain for one player among ``n_players`` on the MFG
    ``solution``'s policy, from ``harness.replications`` paired replications.

    The pilot runs on the LP path the ``solution`` was solved against. The
    time grid and the atoms are those of ``trader_layer(config)``; a
    ``solution`` whose policy is not on that layer, or whose environment's
    time step is not the layer's, raises ``InvalidParameter``.
    """
    layer = check_on_layer(config, solution.policy)
    if solution.env.market.dt != layer.market.dt:
        raise InvalidParameter(
            f"the solution's time step {solution.env.market.dt:g} is not the "
            f"config's {layer.market.dt:g}"
        )
    grid, atoms = layer.grid, layer.atoms
    replications = config.harness_replications
    if n_players < 1:
        raise InvalidParameter(f"need at least one player, got {n_players}")
    policy = solution.policy.as_policy()

    pilot_seed = int(opening_words((seed, 0), [n_players])[0, 0])
    pilot_noise = make_noise(pilot_seed, grid, n_players)
    pilot = simulate(config, policy, solution.env.lp_control_path, pilot_seed, noise=pilot_noise)
    # freeze the other players' pilot contribution to the empirical mean and
    # let the deviator's own control enter it with weight 1/N, mirroring how
    # the engine pays a finite-N player
    alpha0 = policy(np.arange(grid.steps), pilot.trader_x[0, :-1])
    qbar_others = pilot.mean_control_path - alpha0 / n_players
    qslot = qbar_others[:, None] + (1.0 / n_players) * atoms[None, :]
    # the pilot's recorded market is the environment the deviation answers
    deviation = best_response(config, pilot, qslot=qslot).as_policy()

    # replications redraw only player 0's idiosyncratic noise; the other
    # players (and the common and LP streams) stay frozen at the pilot draw,
    # so baseline and deviation differ purely by player 0's policy
    own = normals((seed, 2, n_players), replications, grid.steps) * np.sqrt(grid.dt)
    gaps = _paired_gaps(config, pilot, policy, deviation, pilot_noise, own)

    gap = float(gaps.mean())
    stderr = float(gaps.std(ddof=1) / np.sqrt(replications))
    return DeviationEstimate(
        n_players=n_players,
        gap=gap,
        stderr=stderr,
        paired_gaps=gaps,
    )


def convergence_study(config, seed=None):
    """Deviation gains over ``harness.n_values`` with the LP idle, and a
    log-log slope fit."""
    n_values = list(config.harness_n_values)
    seed = config.seed if seed is None else seed

    solution = solve_mfg(config)
    estimates = [epsilon_nash_gap(config, n, solution, seed) for n in n_values]
    gaps = np.array([e.gap for e in estimates])
    stderrs = np.array([e.stderr for e in estimates])

    clipped = gaps < GAP_FLOOR
    floored = np.maximum(gaps, GAP_FLOOR)
    slope, _ = np.polyfit(np.log(np.asarray(n_values, dtype=float)), np.log(floored), 1)
    return NashReport(
        n_values=n_values,
        gaps=gaps,
        stderrs=stderrs,
        slope=float(slope),
        clipped=clipped,
        estimates=estimates,
    )
