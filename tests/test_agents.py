"""The market step's drifts, rewards and stock updates against frozen values,
exact rational arithmetic, and each lane run alone."""

import math
from dataclasses import fields
from fractions import Fraction as F

import numpy as np
import pytest
from conftest import NO_NOISE, bare_market
from hypothesis import given, settings
from hypothesis import strategies as st

from ammgame.config import default_config
from ammgame.errors import DegenerateReserves, InvalidParameter
from ammgame.market import (
    Market,
    MarketState,
    check_state,
    g_factor,
    opening_state,
    price_drift,
    step,
)
from ammgame.pool import EPS_RESERVE_FACTOR
from ammgame.solver import FlowOfMeasures, forward_environment


def state(price=1.0, x_adj=100.0, y_adj=100.0, delta=0.0, lp=(0.0, 0.0, 0.0),
          trader_x=None, trader_y=None):
    if trader_x is not None and trader_y is None:
        trader_y = np.zeros_like(trader_x)
    lp_x, lp_y, lp_z = lp
    return MarketState(price=price, x_adj=x_adj, y_adj=y_adj, delta=delta, lp_x=lp_x,
                       lp_y=lp_y, lp_z=lp_z, trader_x=trader_x, trader_y=trader_y)


def test_trader_drift_fee_wedge():
    """phi=1, no slippage: dy = -alpha*p exactly; the wedge only bites for tau>0."""
    mk = bare_market(x0=100.0, y0=100.0, phi=1.0, dt=1.0, arbitrage=False, slippage=False)
    s, _ = step(mk, state(price=3.0, trader_x=np.zeros(1)), 0, np.array([2.0]), 0.0, 0.0,
                *NO_NOISE)
    assert (s.trader_x[0], s.trader_y[0]) == (2.0, -6.0)
    phi = 0.997
    wedge = (1 + phi * phi) / (2 * phi)
    mk = bare_market(x0=100.0, y0=100.0, phi=phi, dt=1.0, arbitrage=False)
    s, _ = step(mk, state(price=3.0, trader_x=np.zeros(1)), 0, np.array([2.0]), 0.0, 0.0,
                *NO_NOISE)
    assert s.trader_x[0] == 2.0
    assert s.trader_y[0] == pytest.approx(-2.0 * (1 - 0.02) * wedge * 3.0, rel=1e-15)
    assert wedge > 1.0


def test_price_drift_frozen_oracle():
    """x_adj=100, H=5, lp rate 0.3, flow rate 0.2, tau=0.003: exact rational value."""
    pd = price_drift(100.0, 5.0, 0.3, 0.2, 0.997, 10000.0)
    assert pd == pytest.approx(-0.0086350429117597587, rel=1e-14)


def test_price_drift_finite_difference():
    """The drift is d/dt of k0/((x+phi*H)(x+H)) along (x_adj, H) rates."""
    x_adj, h, phi, k0 = 100.0, 5.0, 0.997, 10000.0
    a_lp, h_rate = 0.3, 0.2
    eps = 1e-6

    def price_at(t):
        return k0 / ((x_adj + a_lp * t + phi * (h + h_rate * t)) * (x_adj + a_lp * t + h + h_rate * t))

    fd = (price_at(eps) - price_at(-eps)) / (2 * eps)
    assert price_drift(x_adj, h, a_lp, h_rate, phi, k0) == pytest.approx(fd, rel=1e-8)


def test_price_drift_degenerate():
    """A state whose price denominators vanish is rejected before any drift uses it."""
    mk = bare_market(x0=10.0, y0=100.0, phi=1.0, dt=1.0)
    with pytest.raises(DegenerateReserves) as err:
        check_state(mk, state(x_adj=10.0, delta=-10.0), 3)
    assert err.value.step == 3
    # the step checks the state it produces: a flow of 20 empties the 10-ETH pool
    with pytest.raises(DegenerateReserves) as err:
        step(bare_market(x0=10.0, y0=100.0, phi=1.0, dt=1.0, arbitrage=False),
             state(x_adj=10.0), 4, None, 20.0, 0.0, *NO_NOISE)
    assert err.value.step == 5


def test_g_factor_matches_denominators():
    g = g_factor(100.0, 5.0, 0.997)
    assert g == pytest.approx(9.0715907261128002e-05, rel=1e-14)
    with pytest.raises(DegenerateReserves):
        check_state(bare_market(x0=1.0, y0=1.0, phi=1.0, dt=1.0),
                    state(x_adj=1.0, delta=-2.0), 0)


def _floor_by_floor(mk, s, t):
    """``check_state`` as one comparison and one raise per floor, in its order."""
    floor_x = EPS_RESERVE_FACTOR * mk.x0
    for what, value, floor in (
        ("price nonpositive", s.price, 0),
        ("adjusted ETH reserve exhausted", s.x_adj, floor_x),
        ("adjusted USDT reserve exhausted", s.y_adj, EPS_RESERVE_FACTOR * mk.y0),
        ("total ETH reserve exhausted", s.x_adj + s.delta, floor_x),
    ):
        above = np.asarray(value > floor)
        if not above.all():
            worst = np.asarray(value)[~above].flat[0]
            raise DegenerateReserves(f"{what} at step {t}: {worst}", step=t, quantity=worst)


def _raised(check, mk, s):
    try:
        check(mk, s, 7)
    except DegenerateReserves as exc:
        return str(exc), exc.step, exc.quantity
    return None


@pytest.mark.parametrize("kind", ["float", "lanes", "fraction"])
def test_check_state_names_the_floor_the_per_floor_loop_names(kind):
    """Each of the four floors alone, two at once, NaN entries and a healthy
    state: ``check_state`` raises what a per-floor loop raises, or nothing."""
    num = F if kind == "fraction" else float
    mk = bare_market(x0=num(100), y0=num(100), phi=num(1) / 2, dt=num(1))
    healthy = dict(price=1, x_adj=100, y_adj=100, delta=0)
    broken = [{}, {"price": 0}, {"price": -3}, {"x_adj": 0, "delta": 50},
              {"y_adj": 0}, {"delta": -100}, {"y_adj": -1, "delta": -200}]
    if kind != "fraction":
        broken += [{"price": math.nan}, {"x_adj": math.nan}, {"y_adj": math.nan},
                   {"delta": math.nan}]
    for change in broken:
        values = {key: num(v) for key, v in {**healthy, **change}.items()}
        if kind == "lanes":  # the broken lane between two healthy ones
            values = {key: np.array([float(healthy[key]), v, float(healthy[key])])
                      for key, v in values.items()}
        s = state(**values)
        got, want = _raised(check_state, mk, s), _raised(_floor_by_floor, mk, s)
        assert (got is None) == (want is None) == (change == {}), change
        if want is not None:
            message, step_at, quantity = got
            assert (message, step_at) == want[:2], change
            assert quantity == want[2] or (quantity != quantity and want[2] != want[2])
            assert type(quantity) is type(want[2]), change


def reward_point(**kw):
    """One trader holding 1.5 and trading 0.4 at x_adj=100, H=5, LP rate 0.3, mean 0.2."""
    mk = bare_market(x0=100.0, y0=100.0, phi=0.997, dt=0.02, arbitrage=False, **kw)
    return step(mk, state(delta=5.0, trader_x=np.array([1.5])), 0, np.array([0.4]), 0.2, 0.3,
                *NO_NOISE)


def test_trader_running_reward_frozen_oracle():
    """Full reward at a worked rational point (values frozen from Fractions)."""
    _, flows = reward_point()
    assert flows.trader_reward[0] == pytest.approx(0.34990943311637956, rel=1e-13)


def test_trader_reward_trade_terms_vanish_without_fee_and_slippage():
    """phi=1 and no slippage: wedge=1 so the correction term is zero."""
    mk = bare_market(x0=100.0, y0=100.0, phi=1.0, dt=0.02, arbitrage=False, slippage=False)
    _, flows = step(mk, state(trader_x=np.zeros(1)), 0, np.array([0.7]), 0.0, 0.0, *NO_NOISE)
    assert flows.trader_reward[0] == pytest.approx(0.7 * 10000.0 / 10000.0, rel=1e-15)


def test_lp_reward_is_position_times_price_drift():
    """Structural identity: the LP reward is its ETH stock times the price drift."""
    mk = bare_market(x0=100.0, y0=100.0, phi=0.997, dt=0.02, arbitrage=False)
    pd = price_drift(100.0, 5.0, 0.3, 0.2, 0.997, 10000.0)
    _, flows = step(mk, state(delta=5.0, lp=(7.0, 0.0, 0.0)), 0, None, 0.2, 0.3,
                    *NO_NOISE)
    assert flows.lp_reward == 7.0 * pd
    _, flows = step(mk, state(delta=5.0), 0, None, 0.2, 0.3, *NO_NOISE)
    assert flows.lp_reward == 0.0


def test_lp_state_step_deterministic():
    mk = bare_market(x0=100.0, y0=100.0, phi=1.0, dt=0.02, arbitrage=False)
    s, _ = step(mk, state(lp=(1.0, 2.0, 200.0)), 0, None, 0.0, 0.25, *NO_NOISE)
    assert s.lp_x == pytest.approx(1.005, rel=1e-15)
    assert s.lp_y == pytest.approx(2.005, rel=1e-15)
    assert s.lp_z == pytest.approx(199.99, rel=1e-15)
    assert s.x_adj == pytest.approx(100.005, rel=1e-15)


def test_lp_state_step_noise_and_floor():
    mk = bare_market(x0=100.0, y0=100.0, phi=1.0, dt=1.0, arbitrage=False,
                     lp_vols=(2.0, 2.0, 3.0))
    s, _ = step(mk, state(), 0, None, 0.0, 0.0, 0, 0, (0.5, -0.5, 1.0))
    assert s.lp_x == 1.0
    assert s.lp_y == -1.0
    assert s.lp_z == 3.0
    with pytest.raises(DegenerateReserves):
        step(mk, state(), 0, None, 0.0, -101.0, *NO_NOISE)
    with pytest.raises(InvalidParameter):
        bare_market(x0=100.0, y0=100.0, phi=1.0, dt=0.0)


@pytest.mark.parametrize("phi", [0.0, 2.0, math.nan])
def test_market_rejects_phi_outside_unit_interval(phi):
    with pytest.raises(InvalidParameter, match="phi"):
        bare_market(x0=100.0, y0=100.0, phi=phi, dt=1.0)


finite = st.floats(allow_nan=False, allow_infinity=False)


@given(x=finite, delta=finite, phi=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
       exact=st.tuples(st.fractions(), st.fractions(), st.fractions(0, 1).filter(bool)))
@settings(max_examples=300, deadline=None)
def test_fee_leg_never_below_the_checked_legs(x, delta, phi, exact):
    """For phi in (0, 1] the fee leg x + phi*delta, rounded as the step rounds
    it, is never below min(x, x + delta), so ``check_state`` needs no floor
    for it: on floats, where rounding is monotone, and on Fractions."""
    assert x + phi * delta >= min(x, x + delta)
    fx, fdelta, fphi = exact
    assert fx + fphi * fdelta >= min(fx, fx + fdelta)


def test_cumulative_flow_impact_left_point():
    """The net flow H is the left-point sum of (drain rate - mean control) * dt."""
    steps = 10
    qbar = np.linspace(-0.5, 0.8, steps)
    for convention, sign in (("definition", 1.0), ("display", -1.0)):
        cfg = default_config(grid_steps=steps, model_flow_convention=convention)
        env = forward_environment(cfg, np.full(steps, 0.5), qbar)
        dt = cfg.grid_horizon / steps
        h = np.concatenate(([0.0], np.cumsum(sign * (env.lvr_rate_path - qbar) * dt)))
        np.testing.assert_array_equal(env.delta_path, h)
        assert env.delta_path[0] == 0.0


def test_mean_field_aggregates_quadrature():
    """The mean control of a control law, and H and the drift at a step's left point."""
    atoms = np.array([0.0, 1.0])
    q = np.array([[0.0, 1.0], [0.5, 0.5]])
    flows = FlowOfMeasures(x_grid=np.zeros(2), atoms=atoms, mu=np.zeros((3, 2)), q=q)
    np.testing.assert_array_equal(flows.mean_controls(), [1.0, 0.5])
    mk = bare_market(x0=F(100), y0=F(100), phi=F(1), dt=F(1, 10), arbitrage=False)
    s = state(price=F(1), x_adj=F(100), y_adj=F(100), delta=F(0),
              lp=(F(1), F(0), F(0)))
    s, first = step(mk, s, 0, None, F(1), F(0), *NO_NOISE)
    assert first.lp_reward == -F(10000) * 2 * 100 / 100**4
    _, second = step(mk, s, 1, None, F(1, 2), F(0), *NO_NOISE)
    h = -F(1) * F(1, 10)  # only the first step's mean control enters H at t=1
    assert s.delta == h
    assert g_factor(s.x_adj, s.delta, 1) == 1 / ((100 + h) * (100 + h))
    assert second.lp_reward == -F(10000) * 2 * (100 + h) * F(1, 2) / (100 + h) ** 4


def test_reward_exactness_on_fractions():
    """The market step run on Fractions equals the reward and stock algebra exactly."""
    phi = F(997, 1000)
    k0 = F(10000)
    xa = F(100)
    h = F(5)
    alpha = F(2, 5)
    mean_c = F(1, 5)
    a_lp = F(3, 10)
    trx = F(3, 2)
    p = F(101, 100)
    dt = F(1, 50)
    A = xa + phi * h
    B = xa + h
    pd = -k0 * ((a_lp + phi * mean_c) * B + A * (a_lp + mean_c)) / (A * B) ** 2
    g = 1 / (A * B)
    wedge = (1 + phi * phi) / (2 * phi)
    slip = alpha / B
    akg = alpha * k0 * g
    exact = trx * pd + akg + akg * (1 - slip) * (1 - wedge)

    mk = bare_market(x0=F(100), y0=F(100), phi=phi, dt=dt, arbitrage=False)
    s = state(price=p, x_adj=xa, y_adj=F(100), delta=h, lp=(F(7), F(2), F(200)),
              trader_x=np.array([trx], dtype=object))
    new, flows = step(mk, s, 0, np.array([alpha], dtype=object), mean_c, a_lp, *NO_NOISE)
    assert flows.trader_reward[0] == exact
    assert flows.lp_reward == 7 * pd
    assert new.trader_x[0] == trx + alpha * dt
    assert new.trader_y[0] == -alpha * (1 - slip) * wedge * p * dt
    assert new.delta == h - mean_c * dt
    pd_price = -k0 * ((a_lp - phi * mean_c) * B + A * (a_lp - mean_c)) / (A * B) ** 2
    assert new.price == p + pd_price * dt
    assert (new.lp_x, new.lp_z) == (7 + a_lp * dt, 200 - 2 * a_lp * p * dt)


def _run(mk, s, alpha, qbar, a_lp, dw0, dw, dw_lp):
    """Steps of the market from ``s``, recording every state and rate."""
    out = []
    for t in range(a_lp.shape[-1]):
        control = alpha(t, s.trader_x)
        s, flows = step(mk, s, t, control, qbar(control), a_lp[..., t], dw0[..., t],
                        dw[..., t], dw_lp[..., t])
        out.append((s, flows))
    return out


@given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 4), m=st.integers(1, 3),
       steps=st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_lanes_are_independent(seed, k, m, steps):
    """k random lanes in one call of the step give each lane's solo run bit for bit."""
    cfg = default_config(external_sigma0=0.05, lp_sigma_x=0.3, lp_sigma_y=0.2,
                         lp_sigma_z=0.4, trader_sigma=0.3)
    mk = Market.from_config(cfg)
    rng = np.random.default_rng(seed)
    slope = rng.uniform(-2.0, 2.0, size=(k, 1))
    shift = rng.uniform(-1.0, 1.0, size=(k, steps))
    a_lp = rng.uniform(-5.0, 5.0, size=(k, steps))
    root = math.sqrt(mk.dt)
    dw0 = rng.standard_normal((k, steps)) * root
    dw = rng.standard_normal((k, m, steps)) * root
    dw_lp = rng.standard_normal((3, k, steps)) * root
    x0 = rng.uniform(-1.0, 1.0, size=(k, m))

    def policy(lanes):
        return lambda t, x: np.tanh(slope[lanes] * x + shift[lanes, t][..., None])

    batch = _run(mk, opening_state(cfg, x0), policy(slice(None)),
                 lambda a: a.mean(axis=1), a_lp, dw0, dw, dw_lp)
    for lane in range(k):
        solo = _run(mk, opening_state(cfg, x0[lane]), policy(lane), lambda a: a.mean(),
                    a_lp[lane], dw0[lane], dw[lane], dw_lp[:, lane])
        for (bs, bf), (ss, sf) in zip(batch, solo):
            for batched, alone in ((bs, ss), (bf, sf)):
                for f in fields(alone):
                    # a lane-uniform value (the opening price at t=0) stays a scalar
                    value = np.asarray(getattr(batched, f.name))
                    np.testing.assert_array_equal(value[lane] if value.ndim else value,
                                                  getattr(alone, f.name))
