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
   The R replications of every N in ``harness.n_values`` run as one batch
   of the market step, one N after another: each N owns 2R consecutive
   lanes, its R baselines and then its R deviations, each on its own
   pilot's common and LP noise. Every control is a feedback on the player's
   own inventory, so players 1..N-1, frozen at their pilot noise, walk the
   pilot's inventory path in every lane: the batch steps player 0 alone,
   from the pilot's opening inventory, with (lanes, 1) stocks, and reads the
   crowd's controls from one table per pilot, taken once on its recorded
   inventories. Each lane's mean control is the mean of its own N controls,
   so its numbers do not depend on the other N in the batch. It keeps
   player 0's per-step reward.

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


def _paired_gaps(config, policy, groups):
    """Player 0's objective gap, deviation minus baseline, for every replication
    of every group: a (groups, R) array, row g for group g.

    A group is a ``(pilot, deviation, noise, own)`` tuple: one population size
    N, its pilot run and that run's ``noise``, the ``deviation`` player 0
    plays against it, and ``own``, player 0's (R, steps) replication noise,
    one R for every group. The pilots share one market and LP path. Every
    group's replications run as one lane batch of the market step, group g
    on lanes [2Rg, 2R(g+1)): R lanes on ``policy``, then R on its
    ``deviation``. Lanes 2Rg + r and 2Rg + R + r share every stream: their
    pilot's ``noise`` for the common price and the LP, and row r of ``own``
    for player 0. ``policy`` is a feedback on each player's own inventory,
    so players 1..N-1, on their pilot noise, hold the pilot's inventories in
    every lane; the market steps only player 0's (lanes, 1) stocks, from its
    pilot opening, and the crowd's controls are ``policy`` tabulated once on
    each pilot's recorded inventories. A group's lanes are the rows of its
    (2R, N) block of controls, column 0 the deviator's, and each lane's mean
    control is the mean of its row, so a lane's numbers do not depend on the
    other groups in the batch. Only player 0's per-step reward is kept.
    """
    pilots, deviations, noises, owns = zip(*groups)
    n_groups, (reps, steps) = len(groups), owns[0].shape
    mk, lp_control_path = pilots[0].market, pilots[0].lp_control_path
    n_players = [p.trader_x.shape[0] for p in pilots]
    # players 1..N-1 of each pilot: their (N - 1, steps) controls
    crowds = [policy(np.arange(steps), p.trader_x[1:, :-1]) for p in pilots]

    lane_group = np.repeat(np.arange(n_groups), 2 * reps)
    lanes = len(lane_group)
    common = np.stack([n.common for n in noises], axis=1)  # (steps, groups)
    lp = np.stack([n.lp.T for n in noises], axis=2)  # (steps, 3, groups)
    opening = np.array([p.trader_x[0, 0] for p in pilots])[lane_group]
    s = market.opening_state(config, opening[:, None])
    buffer = np.empty(2 * reps * max(n_players))  # one C-contiguous block per group
    blocks = [buffer[:2 * reps * n].reshape(2 * reps, n) for n in n_players]
    alpha0, dw = np.empty((lanes, 1)), np.empty((lanes, 1))
    qbar, reward0 = np.empty(lanes), np.empty((lanes, steps))
    for t in range(steps):
        x = s.trader_x[:, 0]
        alpha0[:, 0] = policy(t, x)
        for g, (alpha, deviation, crowd, own) in enumerate(zip(blocks, deviations, crowds, owns)):
            lo, mid, hi = 2 * reps * g, (2 * g + 1) * reps, 2 * reps * (g + 1)
            alpha0[mid:hi, 0] = deviation(t, x[mid:hi])
            dw[lo:mid, 0] = dw[mid:hi, 0] = own[:, t]
            alpha[:, 0] = alpha0[lo:hi, 0]
            alpha[:, 1:] = crowd[:, t]
            qbar[lo:hi] = alpha.mean(axis=1)
        s, flows = market.step(mk, s, t, alpha0, qbar, lp_control_path[t],
                               common[t][lane_group], dw, lp[t][:, lane_group])
        reward0[:, t] = flows.trader_reward[:, 0]
    objective = market.trader_objective(
        reward0, s.trader_x[:, 0], mk.dt, config.trader_terminal_weight
    ).reshape(n_groups, 2, reps)
    return objective[:, 1] - objective[:, 0]


def epsilon_nash_gap(config, solution, seed):
    """Best-deviation gain for one player among N on the MFG ``solution``'s
    policy, from ``harness.replications`` paired replications: one
    ``DeviationEstimate`` per N of ``harness.n_values``, in order.

    Each N has its own pilot, deviation and replication noise; the
    replications of every N run as one lane batch, each N's 2R lanes in one
    block. A ``DegenerateReserves`` raised inside the batch names the first
    failing step and a quantity from one of that step's failing lanes. The
    pilots run on the LP path the ``solution`` was solved against. The time
    grid and the atoms are those of ``trader_layer(config)``; a ``solution``
    whose policy is not on that layer, or whose environment's time step is
    not the layer's, raises ``InvalidParameter``.
    """
    layer = check_on_layer(config, solution.policy)
    if solution.env.market.dt != layer.market.dt:
        raise InvalidParameter(
            f"the solution's time step {solution.env.market.dt:g} is not the "
            f"config's {layer.market.dt:g}"
        )
    grid, atoms = layer.grid, layer.atoms
    n_values = config.harness_n_values
    replications = config.harness_replications
    policy = solution.policy.as_policy()

    groups = []
    for n_players, words in zip(n_values, opening_words((seed, 0), n_values)):
        pilot_seed = int(words[0])
        pilot_noise = make_noise(pilot_seed, grid, n_players)
        pilot = simulate(config, policy, solution.env.lp_control_path, pilot_seed,
                         noise=pilot_noise)
        # freeze the other players' pilot contribution to the empirical mean and
        # let the deviator's own control enter it with weight 1/N, mirroring how
        # the engine pays a finite-N player
        alpha0 = policy(np.arange(grid.steps), pilot.trader_x[0, :-1])
        qbar_others = pilot.mean_control_path - alpha0 / n_players
        qslot = qbar_others[:, None] + (1.0 / n_players) * atoms[None, :]
        # the pilot's recorded market is the environment the deviation answers
        deviation = best_response(config, pilot, qslot=qslot).as_policy()
        # replications redraw only player 0's idiosyncratic noise; the other
        # players (and the common and LP streams) stay frozen at the pilot
        # draw, so baseline and deviation differ purely by player 0's policy
        own = normals((seed, 2, n_players), replications, grid.steps) * np.sqrt(grid.dt)
        groups.append((pilot, deviation, pilot_noise, own))

    return [
        DeviationEstimate(
            n_players=n_players,
            gap=float(gaps.mean()),
            stderr=float(gaps.std(ddof=1) / np.sqrt(replications)),
            paired_gaps=gaps,
        )
        for n_players, gaps in zip(n_values, _paired_gaps(config, policy, groups))
    ]


def convergence_study(config, seed=None):
    """Deviation gains over ``harness.n_values`` with the LP idle, and a
    log-log slope fit."""
    n_values = list(config.harness_n_values)
    seed = config.seed if seed is None else seed

    solution = solve_mfg(config)
    estimates = epsilon_nash_gap(config, solution, seed)
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
