"""Seeded Euler-Maruyama simulation of the coupled market.

``simulate`` runs one lane of ``market.step``: at every grid time it reads
the trader controls from the policy, takes their mean, and lets the market
step advance the drain rate l(P), the price drift, the running rewards and
every stock (traders, LP, adjusted reserves, net flow, price) at left-point
coefficients. The price carries an optional common noise sigma0 dW0; traders
carry idiosyncratic noise; the LP carries three own streams. Every stream is
derived from (seed, stream kind, index), so a bundle is a pure function of
(seed, grid, population size) and any two runs with the same inputs are
bit-identical.

Reserve or price degeneracy aborts the run with the step index and offending
quantity attached to the exception; nothing is clamped.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter
from .market import Market, opening_state, step, trader_objective
from .pool import invariant_after


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, horizon] with ``steps`` intervals."""

    horizon: float
    steps: int

    def __post_init__(self):
        if self.steps < 1:
            raise InvalidParameter(f"steps must be >= 1, got {self.steps}")
        if not self.horizon > 0:
            raise InvalidParameter(f"horizon must be positive, got {self.horizon}")

    @property
    def dt(self):
        return self.horizon / self.steps

    def times(self):
        return np.linspace(0.0, self.horizon, self.steps + 1)


@dataclass(frozen=True)
class NoiseBundle:
    """Brownian increments, already scaled to N(0, dt), one row per stream."""

    common: np.ndarray        # (steps,) price noise W0
    idiosyncratic: np.ndarray  # (n_traders, steps)
    lp: np.ndarray             # (3, steps) for the LP's X, Y, Z legs
    dt: float


def make_noise(seed, grid: TimeGrid, n_traders):
    """Deterministic noise bundle; trader stream i depends only on (seed, i)."""
    if n_traders < 0:
        raise InvalidParameter(f"n_traders must be >= 0, got {n_traders}")
    root = np.sqrt(grid.dt)
    common = _stream(seed, 0, 0, grid.steps) * root
    lp = np.stack([_stream(seed, 1, j, grid.steps) for j in range(3)]) * root
    idio = np.empty((n_traders, grid.steps))
    for i in range(n_traders):
        idio[i] = _stream(seed, 2, i, grid.steps)
    idio *= root
    return NoiseBundle(common=common, idiosyncratic=idio, lp=lp, dt=grid.dt)


def _stream(seed, kind, index, n):
    rng = np.random.default_rng(np.random.SeedSequence((seed, kind, index)))
    return rng.standard_normal(n)


def initial_trader_states(config, n_traders, seed):
    """Initial ETH inventories drawn from the configured law."""
    if config.trader_init_law == "point":
        return np.full(n_traders, config.trader_init_mean)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 3, 0)))
    return config.trader_init_mean + config.trader_init_sd * rng.standard_normal(n_traders)


@dataclass
class SystemTrajectory:
    """Everything one simulation produced, sampled on the grid."""

    grid: TimeGrid
    price_path: np.ndarray
    x_adj_path: np.ndarray
    y_adj_path: np.ndarray
    delta_path: np.ndarray
    reserve_path: np.ndarray
    invariant_path: np.ndarray
    lvr_rate_path: np.ndarray
    lvr_cum_path: np.ndarray
    mean_control_path: np.ndarray
    trader_x: np.ndarray
    trader_y: np.ndarray
    trader_reward: np.ndarray
    trader_objectives: np.ndarray
    lp_x_path: np.ndarray
    lp_y_path: np.ndarray
    lp_z_path: np.ndarray
    lp_s_path: np.ndarray
    lp_reward_path: np.ndarray


def simulate(config, trader_policy, lp_control_path, seed, noise=None, n_traders=None):
    """Run the coupled system forward as one lane of the market step.

    ``trader_policy`` maps (step index, inventory vector) to a control vector;
    ``lp_control_path`` is a per-step rate vector. A prebuilt ``noise`` bundle
    enables common-random-number comparisons; by default one is derived from
    ``seed``.
    """
    grid = TimeGrid(config.grid_horizon, config.grid_steps)
    dt = grid.dt
    m = int(config.engine_traders if n_traders is None else n_traders)
    lp_control_path = np.asarray(lp_control_path, dtype=float)
    if lp_control_path.shape != (grid.steps,):
        raise InvalidParameter(
            f"lp_control_path must have shape ({grid.steps},), got {lp_control_path.shape}"
        )
    if noise is None:
        noise = make_noise(seed, grid, m)
    if noise.idiosyncratic.shape[0] < m or noise.common.shape[0] != grid.steps:
        raise InvalidParameter("noise bundle does not cover this run")

    mk = Market.from_config(config)
    n = grid.steps
    price = np.empty(n + 1)
    x_adj = np.empty(n + 1)
    y_adj = np.empty(n + 1)
    delta = np.empty(n + 1)
    lvr_rate = np.empty(n)
    qbar_path = np.empty(n)
    tr_x = np.empty((m, n + 1))
    tr_y = np.empty((m, n + 1))
    tr_f = np.empty((m, n))
    lp_x = np.empty(n + 1)
    lp_y = np.empty(n + 1)
    lp_z = np.empty(n + 1)
    lp_s = np.empty(n + 1)
    lp_f = np.empty(n)

    s = opening_state(config, initial_trader_states(config, m, seed))
    for t in range(n + 1):
        price[t], x_adj[t], y_adj[t], delta[t] = s.price, s.x_adj, s.y_adj, s.delta
        lp_x[t], lp_y[t], lp_z[t], lp_s[t] = s.lp_x, s.lp_y, s.lp_z, s.lp_s
        tr_x[:, t], tr_y[:, t] = s.trader_x, s.trader_y
        if t == n:
            break
        alpha = np.asarray(trader_policy(t, s.trader_x), dtype=float)
        qbar = float(alpha.mean()) if m > 0 else 0.0
        s, flows = step(mk, s, t, alpha, qbar, lp_control_path[t],
                        noise.common[t], noise.idiosyncratic[:m, t], noise.lp[:, t])
        lvr_rate[t], qbar_path[t] = flows.lvr_rate, qbar
        tr_f[:, t], lp_f[t] = flows.trader_reward, flows.lp_reward

    reserve = x_adj + delta
    lvr_cum = np.concatenate(([0.0], np.cumsum(lvr_rate * dt)))
    objectives = trader_objective(tr_f, tr_x[:, n], dt, config.trader_terminal_weight)

    return SystemTrajectory(
        grid=grid,
        price_path=price,
        x_adj_path=x_adj,
        y_adj_path=y_adj,
        delta_path=delta,
        reserve_path=reserve,
        invariant_path=invariant_after(mk.k0, x_adj, delta, mk.phi),
        lvr_rate_path=lvr_rate,
        lvr_cum_path=lvr_cum,
        mean_control_path=qbar_path,
        trader_x=tr_x,
        trader_y=tr_y,
        trader_reward=tr_f,
        trader_objectives=objectives,
        lp_x_path=lp_x,
        lp_y_path=lp_y,
        lp_z_path=lp_z,
        lp_s_path=lp_s,
        lp_reward_path=lp_f,
    )
