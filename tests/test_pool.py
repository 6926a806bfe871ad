"""Pool mechanics and the market step's reserves against exact rational arithmetic.

The pool functions and the market step are plain scalar expressions, so running them on
``fractions.Fraction`` inputs reproduces the algebra with no rounding at all.
Expected values below were computed that way and frozen.
"""

import math
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest
from conftest import NO_NOISE, bare_market
from hypothesis import given, settings
from hypothesis import strategies as st

from ammgame.errors import DegenerateReserves, InvalidParameter
from ammgame.market import MarketState, check_state, g_factor, step
from ammgame.pool import (
    EPS_RESERVE_FACTOR,
    make_pool,
    quote_trade,
)

finite_pos = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False)


def test_make_pool_spot_price():
    """Reserves (100, 400) at fee 0.003: invariant 40000, fee-credit factor 0.997."""
    pool = make_pool(100.0, 400.0, 0.003)
    assert (pool.x_reserve, pool.y_reserve, pool.fee_tau) == (100.0, 400.0, 0.003)
    assert pool.invariant_k == 40000.0
    assert pool.phi == 0.997


def test_pool_state_rejects_bad_inputs():
    with pytest.raises(InvalidParameter):
        make_pool(-1.0, 100.0, 0.0)
    with pytest.raises(InvalidParameter):
        make_pool(100.0, 0.0, 0.0)
    with pytest.raises(InvalidParameter):
        make_pool(100.0, 100.0, 1.0)


def test_quote_trade_no_fee_exact_fraction():
    """tau=0, square 100/100 pool, buy 10 ETH worth: dy = 100/11 exactly."""
    pool = make_pool(F(100), F(100), F(0))
    dy, k_new = quote_trade(pool, F(100), F(100), F(10))
    assert dy == F(100, 11)
    assert k_new == F(10000)


def test_quote_trade_with_fee_exact_fraction():
    """tau=0.003: dy = 99700/10997 and the invariant inflates to 1.1e8/10997."""
    pool = make_pool(F(100), F(100), F(3, 1000))
    dy, k_new = quote_trade(pool, F(100), F(100), F(10))
    assert dy == F(99700, 10997)
    assert k_new == F(110000000, 10997)


def test_quote_trade_float_matches_frozen_oracle():
    pool = make_pool(100.0, 100.0, 0.003)
    dy, k_new = quote_trade(pool, 100.0, 100.0, 10.0)
    assert dy == pytest.approx(9.0661089388014915, rel=1e-14)
    assert k_new == pytest.approx(10002.728016731837, rel=1e-14)


def test_quote_trade_zero_fee_keeps_invariant_bitwise():
    """At tau = 0 the two stages coincide and k must not move at all."""
    pool = make_pool(250.0, 400.0, 0.0)
    for dx in (-100.0, -1.0, 0.5, 50.0, 200.0):
        _, k_new = quote_trade(pool, 250.0, 400.0, dx)
        assert k_new == pool.invariant_k


@pytest.mark.parametrize("x_adj, y_adj, delta_x, name", [
    (math.nan, 100.0, 1.0, "x_adj"), (-1.0, 100.0, 1.0, "x_adj"), (0.0, 100.0, 1.0, "x_adj"),
    (math.inf, 100.0, 1.0, "x_adj"), (F(0), F(100), F(1), "x_adj"),
    (100.0, math.nan, 1.0, "y_adj"), (100.0, 0.0, 1.0, "y_adj"), (100.0, math.inf, 1.0, "y_adj"),
    (100.0, 100.0, math.nan, "delta_x"), (100.0, 100.0, math.inf, "delta_x"),
    (100.0, 100.0, -math.inf, "delta_x"),
])
def test_quote_trade_rejects_bad_inputs_naming_the_argument(x_adj, y_adj, delta_x, name):
    pool = make_pool(100.0, 100.0, 0.003)
    with pytest.raises(InvalidParameter) as err:
        quote_trade(pool, x_adj, y_adj, delta_x)
    assert str(err.value).startswith(name)


def test_quote_trade_overdraw_raises():
    pool = make_pool(100.0, 100.0, 0.003)
    with pytest.raises(DegenerateReserves):
        quote_trade(pool, 100.0, 100.0, -100.0)


def test_execution_price_matches_two_stage_product():
    """P(dx) = k0 * G = k0 / ((x+phi dx)(x+dx)), checked on a rational point."""
    exact = F(10000) / (F(10997, 100) * F(110))
    assert F(10000) * g_factor(F(100), F(10), F(997, 1000)) == exact
    assert 10000.0 * g_factor(100.0, 10.0, 0.997) == pytest.approx(float(exact), rel=1e-15)
    with pytest.raises(DegenerateReserves):
        check_state(lp_market(F(100), F(100), 1.0), reserves(100.0, 100.0, delta=-100.0), 0)


@given(
    x=finite_pos,
    y=finite_pos,
    tau=st.floats(min_value=0.0, max_value=0.2),
    frac=st.floats(min_value=-0.49, max_value=3.0),
)
@settings(max_examples=150, deadline=None)
def test_stage_one_invariant_preserved(x, y, tau, frac):
    """(x + phi dx)(y - dy) returns exactly to k0, up to float rounding."""
    pool = make_pool(x, y, tau)
    dx = frac * x
    dy, _ = quote_trade(pool, x, y, dx)
    k0 = pool.invariant_k
    assert abs((x + pool.phi * dx) * (y - dy) - k0) <= 1e-9 * k0


@given(
    x=finite_pos,
    y=finite_pos,
    tau=st.floats(min_value=1e-4, max_value=0.2),
    f1=st.floats(min_value=-0.4, max_value=2.0),
    f2=st.floats(min_value=-0.4, max_value=2.0),
)
@settings(max_examples=150, deadline=None)
def test_invariant_direction_and_monotonicity(x, y, tau, f1, f2):
    """k_new carries the sign of dx and grows with it when tau > 0."""
    pool = make_pool(x, y, tau)
    lo, hi = sorted((f1 * x, f2 * x))
    _, k_lo = quote_trade(pool, x, y, lo)
    _, k_hi = quote_trade(pool, x, y, hi)
    if hi - lo > 1e-9 * x:
        assert k_hi > k_lo
    for dx, k_new in ((lo, k_lo), (hi, k_hi)):
        # strict sign only for trades large enough to move the float ratio
        if dx > 1e-9 * x:
            assert k_new > pool.invariant_k
        elif dx < -1e-9 * x:
            assert k_new < pool.invariant_k
        else:
            # below the threshold k moves by at most ~tau * 1e-9 relative
            assert k_new == pytest.approx(pool.invariant_k, rel=1e-9)


@given(
    x=st.floats(min_value=1e-2, max_value=1e6),
    y=st.floats(min_value=1e-2, max_value=1e6),
    tau=st.floats(min_value=0.0, max_value=0.3),
    sizes=st.lists(st.floats(min_value=-0.9, max_value=10.0), min_size=2, max_size=6),
)
@settings(max_examples=200, deadline=None)
def test_invariant_nondecreasing_in_trade_size(x, y, tau, sizes):
    """On the exact values of the drawn floats the post-trade invariant never
    falls as the trade grows, and rises strictly when tau > 0; in floats it
    stays within 1e-12 of that and equals k0 bit for bit at tau = 0.

    The float quotes alone are not monotone at tau of about 1e-13 or less (a
    probe of 3,000 ladders found none at 1e-12 to 1e-10, 2 at 1e-13, and
    decreases on most ladders at 2.2e-16): there the fee moves the ratio by
    less than the rounding of the reserve factors.
    """
    trades = sorted(set(f * x for f in sizes))
    exact_pool = make_pool(F(x), F(y), F(tau))
    exact = [quote_trade(exact_pool, F(x), F(y), F(d))[1] for d in trades]
    for lo, hi in zip(exact, exact[1:]):
        assert hi > lo if tau > 0 else hi == lo
    pool = make_pool(x, y, tau)
    for d, k_exact in zip(trades, exact):
        _, k_new = quote_trade(pool, x, y, d)
        if tau == 0.0:
            assert k_new == pool.invariant_k
        assert k_new == pytest.approx(float(k_exact), rel=1e-12)


def test_slippage_values_and_errors():
    """The step's slippage discount alpha / (x_adj + delta) on the traders' USDT leg.

    phi = 1 makes the fee wedge 1, so one step of a trader at rate alpha
    moves its USDT by -alpha * (1 - slip) * p * dt: the discount carries the
    sign of alpha, vanishes exactly with slippage off, and a nonpositive or
    NaN depth is caught by the step's floor check.
    """

    def usdt_leg(alpha, delta=F(0), slippage=True):
        mk = bare_market(x0=F(100), y0=F(100), phi=F(1), dt=F(1), arbitrage=False,
                         slippage=slippage)
        s = replace(reserves(F(100), F(100), delta),
                    trader_x=np.array([F(0)], dtype=object),
                    trader_y=np.array([F(0)], dtype=object))
        new, _ = step(mk, s, 0, np.array([alpha], dtype=object), 0, 0, *NO_NOISE)
        return new.trader_y[0]

    assert usdt_leg(F(5)) == -5 * (1 - F(1, 20))  # slip = 5/100
    assert usdt_leg(F(-5)) == 5 * (1 + F(1, 20))
    assert usdt_leg(F(5), delta=F(60)) == -5 * (1 - F(5, 160))  # depth x_adj + delta
    assert usdt_leg(F(3), slippage=False) == -3
    with pytest.raises(DegenerateReserves, match="total ETH reserve exhausted at step 1"):
        usdt_leg(F(1), delta=F(-150))
    with pytest.raises(DegenerateReserves, match="at step 1"):
        usdt_leg(1.0, delta=float("nan"))


def lp_market(x0, y0, dt):
    return bare_market(x0=x0, y0=y0, phi=1, dt=dt, arbitrage=False)


def reserves(x, y, delta=0):
    return MarketState(price=y / x, x_adj=x, y_adj=y, delta=delta,
                       lp_x=0, lp_y=0, lp_z=0, trader_x=None, trader_y=None)


def lp_reserves(mk, s, lp, prices):
    """Market steps under LP rates ``lp``, with the pool price set to ``prices``."""
    path = [s]
    for t, (a, p) in enumerate(zip(lp, prices)):
        s, _ = step(mk, replace(s, price=p), t, None, 0, a, *NO_NOISE)
        path.append(s)
    return path


def test_adjusted_reserves_left_point_rule():
    """Deposits count only from steps strictly before the sample index."""
    lp = [2.0, -1.0, 4.0]
    prices = [1.0, 2.0, 0.5]
    path = lp_reserves(lp_market(100.0, 100.0, 0.1), reserves(100.0, 100.0), lp, prices)
    assert (path[0].x_adj, path[0].y_adj) == (100.0, 100.0)
    assert path[2].x_adj == pytest.approx(100.0 + (2.0 - 1.0) * 0.1, rel=1e-15)
    assert path[2].y_adj == pytest.approx(100.0 + (2.0 * 1.0 - 1.0 * 2.0) * 0.1, rel=1e-15)


def test_adjusted_reserves_price_neutrality():
    """LP action at the spot ratio never moves the quoted price."""
    x, y = 100.0, 250.0
    p0 = y / x
    mk = lp_market(x, y, 0.05)
    rng = np.random.default_rng(7)
    s = reserves(x, y)
    for t, a in enumerate(rng.uniform(-5.0, 5.0, size=40)):
        s, _ = step(mk, replace(s, price=s.y_adj / s.x_adj), t, None, 0.0, a, *NO_NOISE)
    assert s.y_adj / s.x_adj == pytest.approx(p0, rel=1e-12)


def test_adjusted_reserves_drain_raises():
    mk = lp_market(100.0, 100.0, 1.0)
    with pytest.raises(DegenerateReserves) as err:
        lp_reserves(mk, reserves(100.0, 100.0), [-60.0, -60.0], [1.0, 1.0])
    assert err.value.step == 2
    with pytest.raises(InvalidParameter):
        lp_market(100.0, 100.0, -1.0)


def test_adjusted_reserves_exact_on_fractions():
    lp = [F(1, 2), F(-1, 4)]
    prices = [F(2), F(3)]
    path = lp_reserves(lp_market(F(10), F(20), F(1, 10)), reserves(F(10), F(20)), lp, prices)
    assert path[2].x_adj == F(10) + (F(1, 2) - F(1, 4)) * F(1, 10)
    assert path[2].y_adj == F(20) + (F(1) - F(3, 4)) * F(1, 10)


def test_adjusted_reserve_is_x0_plus_cumulative_control():
    """x_adj - x0 is the LP's cumulative control S = sum of a_lp * dt, exactly,
    at every time of a path that deposits and withdraws."""
    x0, dt = F(10), F(1, 20)
    lp = [F(3), F(-7, 2), F(1, 3), F(0), F(-5), F(9, 4)]
    prices = [F(2), F(5, 2), F(3, 2), F(2), F(7, 4), F(9, 5)]
    path = lp_reserves(lp_market(x0, F(20), dt), reserves(x0, F(20)), lp, prices)
    for t, s in enumerate(path):
        assert s.x_adj - x0 == sum(a * dt for a in lp[:t])


def test_total_eth_reserves_decomposition():
    """The running ETH reserve is the adjusted stock plus arbitrage minus trader flow."""
    mk = bare_market(x0=F(100), y0=F(100), phi=1, dt=1, arbitrage=False)
    s, _ = step(mk, reserves(F(100), F(100), delta=F(3)), 0, None, F(3, 2), 0, *NO_NOISE)
    assert s.x_adj + s.delta == F(203, 2)
    with pytest.raises(DegenerateReserves) as err:
        step(mk, reserves(F(1), F(1)), 0, None, F(2), 0, *NO_NOISE)
    assert "total ETH reserve" in str(err.value)


def test_reserve_floor_scales_with_pool():
    """The degeneracy floor is relative to the initial reserve."""
    pool = make_pool(1e6, 1e6, 0.0)
    dy, _ = quote_trade(pool, 1e6, 1e6, -(1e6) * (1 - 2 * EPS_RESERVE_FACTOR))
    assert math.isfinite(dy)
    with pytest.raises(DegenerateReserves):
        quote_trade(pool, 1e6, 1e6, -(1e6) * (1 - 0.5 * EPS_RESERVE_FACTOR))
    # off the opening reserves the floor stays 1e-9 * x_reserve = 1e-6, not 1e-9 * x_adj
    pool = make_pool(1000.0, 1000.0, 0.0)
    with pytest.raises(DegenerateReserves):
        quote_trade(pool, 1.0, 1.0, -(1 - 5e-7))
    dy, _ = quote_trade(pool, 1.0, 1.0, -(1 - 2e-6))
    assert math.isfinite(dy)
