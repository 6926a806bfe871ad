"""One left-point step of the coupled market, written once over a lane axis.

Three kinds of agents act on the pool:

* small traders, each holding (X^i, Y^i), trading at rate alpha with a
  slippage discount S = alpha / X_total and a fee wedge (1 + phi^2)/(2 phi)
  on the USDT leg;
* one liquidity provider moving (X^LP, Y^LP) in and out at the pool price,
  whose pool-share value Z^LP drains at rate 2 * alpha^LP * P;
* arbitrageurs, present only through the drain rate l(P) of the lvr module.

They interact through one object, the price drift. With the accumulated net
trade flow delta (arbitrage drain minus mean control, left-point quadrature)
the execution price is k0 * G with G = 1 / ((x_adj + phi*delta)(x_adj + delta)),
and its time derivative along (x_adj, delta) rates is ``price_drift``. The
price moves with the drift whose rate slot is the net flow rate; the running
rewards use the slot filled by the mean control. The LP reward is its ETH
stock times that drift; the trader reward adds the traded notional alpha*k0*G
and a fee-and-slippage correction on top.

``step`` advances every lane at once. A lane is one market: its price,
reserves, net flow and LP stocks are scalars for a single lane or (lanes,)
arrays, and its traders are (m,) or (lanes, m) arrays, or None for a market
without traders. Everything is plain arithmetic, so the same code runs on
floats, on numpy arrays and on ``fractions.Fraction`` inputs, which is how the
exact oracles check the algebra. Nothing is clamped: a state below a reserve
floor raises ``DegenerateReserves`` with the step index attached.

``record`` steps one lane, given the market and the LP path, and keeps it as a
``SystemTrajectory``, the one record of a market path, which the solver and
the engine both return. A record holds no time grid of its own: its step is
the market's ``dt`` and its step count the length of its LP path.
"""

from dataclasses import dataclass, field

import numpy as np

from .config import time_grid
from .errors import DegenerateReserves, InvalidParameter
from .lvr import instantaneous_lvr
from .pool import EPS_RESERVE_FACTOR, invariant_after


@dataclass(frozen=True)
class Market:
    """Constants of the market: pool, fee, step size, flow sign and noise scales.

    ``sign`` is +1 under the definition flow convention and -1 under the
    display one; ``sigma`` is the external volatility behind l(P).
    """

    x0: float
    y0: float
    phi: float
    dt: float
    sign: float
    sigma: float
    arbitrage: bool
    slippage: bool
    trader_sigma: float
    sigma0: float
    lp_vols: tuple
    k0: float = field(init=False)
    wedge: float = field(init=False)

    def __post_init__(self):
        if not self.dt > 0:
            raise InvalidParameter(f"dt must be positive, got {self.dt}")
        object.__setattr__(self, "k0", self.x0 * self.y0)
        object.__setattr__(self, "wedge", (1 + self.phi * self.phi) / (2 * self.phi))

    @classmethod
    def from_config(cls, config):
        return cls(
            x0=config.pool_x0,
            y0=config.pool_y0,
            phi=1.0 - config.pool_tau,
            dt=time_grid(config).dt,
            sign=1.0 if config.model_flow_convention == "definition" else -1.0,
            sigma=config.external_sigma,
            arbitrage=config.arbitrage_enabled,
            slippage=config.trader_slippage,
            trader_sigma=config.trader_sigma,
            sigma0=config.external_sigma0,
            lp_vols=(config.lp_sigma_x, config.lp_sigma_y, config.lp_sigma_z),
        )


@dataclass
class MarketState:
    """Stocks of every lane at one grid time (shapes in the module docstring)."""

    price: object
    x_adj: object
    y_adj: object
    delta: object
    lp_x: object
    lp_y: object
    lp_z: object
    lp_s: object  # cumulative LP control
    trader_x: object
    trader_y: object


@dataclass
class StepFlows:
    """Per-lane rates at the left point of one step."""

    lvr_rate: object
    trader_reward: object  # None without traders
    lp_reward: object


def opening_state(config, trader_x=None):
    """The pool at (x0, y0), the LP at its configured stocks, traders at ``trader_x``."""
    return MarketState(
        price=config.pool_y0 / config.pool_x0,
        x_adj=config.pool_x0,
        y_adj=config.pool_y0,
        delta=0.0,
        lp_x=config.lp_x0,
        lp_y=config.lp_y0,
        lp_z=config.lp_z0,
        lp_s=0.0,
        trader_x=trader_x,
        trader_y=None if trader_x is None else np.zeros_like(trader_x),
    )


def g_factor(x_adj, delta, phi):
    """Reciprocal product of the two execution-price denominators.

    k0 * G is the price at which the net flow ``delta`` executes.
    """
    return 1 / ((x_adj + phi * delta) * (x_adj + delta))


def price_drift(x_adj, delta, alpha_lp, rate, phi, k0):
    """Time derivative of the execution price k0 * G.

    ``alpha_lp`` is the rate of x_adj and ``rate`` the rate of ``delta``. With
    A = x_adj + phi*delta and B = x_adj + delta the drift is
    -k0 (A'B + AB') / (AB)^2.
    """
    a = x_adj + phi * delta
    b = x_adj + delta
    ab = a * b
    return -k0 * ((alpha_lp + phi * rate) * b + a * (alpha_lp + rate)) / (ab * ab)


def slippage(mk: Market, alpha, x_total):
    """Slippage discount S = alpha / X_total of a trade at rate alpha (0 when off)."""
    return alpha / x_total if mk.slippage else 0 * alpha


def trader_reward(mk: Market, x, alpha, x_adj, delta, drift):
    """Running reward of a trader holding x ETH and trading at rate alpha.

    ``drift`` is the price drift with the mean control in its rate slot. The
    inventory earns x * drift; the trade earns its notional alpha * k0 * G
    plus the fee-and-slippage correction alpha * k0 * G * (1 - S) * (1 - wedge).
    The arguments broadcast against each other.
    """
    akg = alpha * (mk.k0 * g_factor(x_adj, delta, mk.phi))
    return x * drift + akg + akg * (1 - slippage(mk, alpha, x_adj + delta)) * (1 - mk.wedge)


def trader_objective(reward, x_terminal, dt, c_terminal):
    """Realized trader objective: summed running rewards minus c * X_T^2.

    ``reward`` holds one row of per-step rewards per trader.
    """
    return reward.sum(axis=-1) * dt - c_terminal * x_terminal**2


def _col(v):
    """A per-lane value as a column against the lanes' (.., m) trader arrays."""
    return np.asarray(v)[..., None]


def _all(cond):
    """Truth of a per-lane condition: a scalar or an array over lanes."""
    return cond.all() if isinstance(cond, np.ndarray) else bool(cond)


def check_state(mk: Market, s: MarketState, t):
    """Raise ``DegenerateReserves`` when a lane's state sits on a floor."""
    floor_x = EPS_RESERVE_FACTOR * mk.x0
    for what, value, floor in (
        ("price nonpositive", s.price, 0),
        ("adjusted ETH reserve exhausted", s.x_adj, floor_x),
        ("adjusted USDT reserve exhausted", s.y_adj, EPS_RESERVE_FACTOR * mk.y0),
        ("total ETH reserve exhausted", s.x_adj + s.delta, floor_x),
        ("fee-leg reserve exhausted", s.x_adj + mk.phi * s.delta, floor_x),
        ("LP withdrawals empty the pool (x0 + S)", mk.x0 + s.lp_s, floor_x),
    ):
        above = value > floor  # False for NaN
        if not _all(above):
            worst = np.asarray(value)[np.logical_not(above).astype(bool)].flat[0]
            raise DegenerateReserves(f"{what} at step {t}: {worst}", step=t, quantity=worst)


def step(mk: Market, s: MarketState, t, alpha, qbar, a_lp, dw0, dw_traders, dw_lp):
    """Advance every lane from grid index ``t`` to ``t + 1``.

    ``alpha`` holds the traders' controls (None without traders), ``qbar`` the
    mean control and ``a_lp`` the LP rate of each lane. ``dw0``, ``dw_traders``
    and ``dw_lp`` are Brownian increments already scaled to N(0, dt) for the
    price, the traders and the LP's three legs (integer zeros run a lane
    noise-free and keep ``Fraction`` arithmetic exact).
    All coefficients sit at the left point. Returns the new state, checked
    against the reserve floors (an opening state is valid by construction),
    and the step's rates.
    """
    p, xa, dl = s.price, s.x_adj, s.delta
    dt, phi, k0 = mk.dt, mk.phi, mk.k0
    ell = instantaneous_lvr(p, mk.sigma, k0) if mk.arbitrage else 0 * p
    d_rate = mk.sign * (ell - qbar)
    pd_price = price_drift(xa, dl, a_lp, d_rate, phi, k0)
    pd_reward = price_drift(xa, dl, a_lp, qbar, phi, k0)

    trader_x = trader_y = reward = None
    if s.trader_x is not None:
        reward = trader_reward(mk, s.trader_x, alpha, _col(xa), _col(dl), _col(pd_reward))
        slip = slippage(mk, alpha, _col(xa + dl))
        trader_x = s.trader_x + alpha * dt + mk.trader_sigma * dw_traders
        trader_y = s.trader_y - alpha * (1 - slip) * mk.wedge * _col(p) * dt

    vol_x, vol_y, vol_z = mk.lp_vols
    new = MarketState(
        price=p + pd_price * dt + mk.sigma0 * dw0,
        x_adj=xa + a_lp * dt,
        y_adj=s.y_adj + a_lp * p * dt,
        delta=dl + d_rate * dt,
        lp_x=s.lp_x + a_lp * dt + vol_x * dw_lp[0],
        lp_y=s.lp_y + a_lp * p * dt + vol_y * dw_lp[1],
        lp_z=s.lp_z - 2 * a_lp * p * dt + vol_z * dw_lp[2],
        lp_s=s.lp_s + a_lp * dt,
        trader_x=trader_x,
        trader_y=trader_y,
    )
    check_state(mk, new, t + 1)
    return new, StepFlows(
        lvr_rate=ell, trader_reward=reward, lp_reward=s.lp_x * pd_reward
    )


@dataclass
class SystemTrajectory:
    """One lane of the market: stocks at steps+1 times, rates per step.

    The step is ``market.dt`` and the step count ``len(lp_control_path)``.
    Trader fields hold a row per trader, None without traders; ``engine.simulate``
    sets ``trader_objectives``, as it knows the terminal weight.
    """

    market: Market
    price_path: np.ndarray
    x_adj_path: np.ndarray
    y_adj_path: np.ndarray
    delta_path: np.ndarray
    lvr_rate_path: np.ndarray
    mean_control_path: np.ndarray
    lp_control_path: np.ndarray
    trader_x: np.ndarray | None
    trader_y: np.ndarray | None
    trader_reward: np.ndarray | None
    lp_x_path: np.ndarray
    lp_y_path: np.ndarray
    lp_z_path: np.ndarray
    lp_s_path: np.ndarray
    lp_reward_path: np.ndarray
    trader_objectives: np.ndarray | None = None

    @property
    def reserve_path(self):
        return self.x_adj_path + self.delta_path

    @property
    def invariant_path(self):
        return invariant_after(self.market.k0, self.x_adj_path, self.delta_path, self.market.phi)

    @property
    def lvr_cum_path(self):
        """Accrued arbitrage drain, left-point sum of l(P) dt."""
        return np.concatenate(([0.0], np.cumsum(self.lvr_rate_path * self.market.dt)))


def _along(values):
    """Values over the grid, stacked with time on the last axis (None stays None)."""
    return None if values[0] is None else np.ascontiguousarray(np.array(values).T)


def record(mk: Market, s: MarketState, lp_control_path, act):
    """Step one lane from ``s`` at the LP rates ``lp_control_path`` and record it,
    one step of ``mk.dt`` per rate.

    ``act(t, s)`` returns step t's (alpha, qbar, dw0, dw_traders, dw_lp). The LP
    rates enter as Python floats, which step faster than numpy scalars, bit for bit.
    """
    states, rates = [s], []
    for t, a_lp in enumerate(lp_control_path.tolist()):
        alpha, qbar, dw0, dw_traders, dw_lp = act(t, s)
        s, f = step(mk, s, t, alpha, qbar, a_lp, dw0, dw_traders, dw_lp)
        states.append(s)
        rates.append((f.lvr_rate, qbar, f.trader_reward, f.lp_reward))
    lvr_rate, qbar, trader_reward, lp_reward = zip(*rates)

    def path(name):
        return _along([getattr(state, name) for state in states])

    return SystemTrajectory(
        market=mk,
        price_path=path("price"),
        x_adj_path=path("x_adj"),
        y_adj_path=path("y_adj"),
        delta_path=path("delta"),
        lvr_rate_path=_along(lvr_rate),
        mean_control_path=_along(qbar),
        lp_control_path=lp_control_path,
        trader_x=path("trader_x"),
        trader_y=path("trader_y"),
        trader_reward=_along(trader_reward),
        lp_x_path=path("lp_x"),
        lp_y_path=path("lp_y"),
        lp_z_path=path("lp_z"),
        lp_s_path=path("lp_s"),
        lp_reward_path=_along(lp_reward),
    )
