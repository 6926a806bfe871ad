"""Seeded Euler-Maruyama simulation of the coupled market.

``simulate`` is one call of ``market.record``: at every grid time it reads the
trader controls from the policy, takes their mean, and lets the market step
advance the drain rate l(P), the price drift, the running rewards and every
stock (traders, LP, adjusted reserves, net flow, price) at left-point
coefficients, recorded with the traders' realized objectives. The price
carries an optional common noise sigma0 dW0; traders carry idiosyncratic
noise; the LP carries three own streams. Each is stream ``index`` of the key
(seed, stream kind) in ``streams``, so a bundle is a pure function of (seed,
grid, population size) and two runs with the same inputs are bit-identical.
The grid is the config's ``time_grid``; ``TimeGrid`` is re-exported from
``config``.

Reserve or price degeneracy aborts the run with the step index and offending
quantity attached to the exception; nothing is clamped.
"""

from dataclasses import dataclass

import numpy as np

from .config import TimeGrid, time_grid
from .errors import InvalidParameter
from .market import Market, opening_state, record, trader_objective
from .streams import normals


@dataclass(frozen=True)
class NoiseBundle:
    """Brownian increments, already scaled to N(0, dt), one row per stream."""

    common: np.ndarray        # (steps,) price noise W0
    idiosyncratic: np.ndarray  # (n_traders, steps)
    lp: np.ndarray             # (3, steps) for the LP's X, Y, Z legs


def make_noise(seed, grid: TimeGrid, n_traders):
    """Deterministic noise bundle; trader stream i depends only on (seed, i)."""
    if n_traders < 0:
        raise InvalidParameter(f"n_traders must be >= 0, got {n_traders}")
    root = np.sqrt(grid.dt)
    common = normals((seed, 0), 1, grid.steps)[0] * root
    lp = normals((seed, 1), 3, grid.steps) * root
    idio = normals((seed, 2), n_traders, grid.steps) * root
    return NoiseBundle(common=common, idiosyncratic=idio, lp=lp)


def initial_trader_states(config, n_traders, seed):
    """Initial ETH inventories drawn from the configured law."""
    if config.trader_init_law == "point":
        return np.full(n_traders, config.trader_init_mean)
    return config.trader_init_mean + config.trader_init_sd * normals((seed, 3), 1, n_traders)[0]


def simulate(config, trader_policy, lp_control_path, seed, noise=None):
    """Run the coupled system forward as one recorded lane of the market step.

    ``trader_policy`` maps (step index, inventory vector) to a control vector;
    ``lp_control_path`` is a per-step rate vector. A prebuilt ``noise`` bundle
    enables common-random-number comparisons and sets the population, one
    trader per idiosyncratic row; by default one is derived from ``seed`` for
    ``engine.traders`` traders.
    """
    grid = time_grid(config)
    lp_control_path = np.asarray(lp_control_path, dtype=float)
    if lp_control_path.shape != (grid.steps,):
        raise InvalidParameter(
            f"lp_control_path must have shape ({grid.steps},), got {lp_control_path.shape}"
        )
    if noise is None:
        noise = make_noise(seed, grid, config.engine_traders)
    m = noise.idiosyncratic.shape[0]
    shapes = (noise.common.shape, noise.lp.shape, noise.idiosyncratic.shape)
    if shapes != ((grid.steps,), (3, grid.steps), (m, grid.steps)):
        raise InvalidParameter(
            f"noise bundle shapes (common, lp, idiosyncratic) {shapes} do not fit "
            f"{grid.steps} steps"
        )

    # the lane's scalar noise as Python floats, like the LP rates in ``record``
    common, lp, idio = noise.common.tolist(), noise.lp.T.tolist(), noise.idiosyncratic

    def act(t, s):
        alpha = np.asarray(trader_policy(t, s.trader_x), dtype=float)
        qbar = float(alpha.mean()) if m > 0 else 0.0
        return alpha, qbar, common[t], idio[:, t], lp[t]

    traj = record(Market.from_config(config),
                  opening_state(config, initial_trader_states(config, m, seed)),
                  lp_control_path, act)
    traj.trader_objectives = trader_objective(
        traj.trader_reward, traj.trader_x[:, -1], grid.dt, config.trader_terminal_weight
    )
    return traj
