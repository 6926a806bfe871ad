"""Closed-form arbitrage against the grid/golden-section oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ammgame.arbitrage import (
    INACTIVE,
    best_arbitrage,
    brute_force_arbitrage,
    optimal_arbitrage,
)
from ammgame.errors import InvalidParameter

reserve = st.floats(min_value=10.0, max_value=1000.0)


def test_no_fee_square_pool_oracle():
    """100/100 pool, outside price 4, no fee: take 50 ETH for 100 USDT, profit 100."""
    sol = optimal_arbitrage(100.0, 100.0, 10000.0, 4.0, 1.0)
    assert sol.direction == "buy_eth"
    assert sol.delta_alpha == pytest.approx(50.0, abs=1e-12)
    assert sol.delta_beta == pytest.approx(100.0, abs=1e-12)
    assert sol.profit == pytest.approx(100.0, abs=1e-12)


def test_fee_case_frozen_oracle():
    """Same pool with tau = 0.003; values frozen from 50-digit arithmetic."""
    sol = optimal_arbitrage(100.0, 100.0, 10000.0, 4.0, 0.997)
    assert sol.delta_alpha == pytest.approx(49.924830827014581, rel=1e-15)
    assert sol.delta_beta == pytest.approx(99.999773983817306, rel=1e-15)
    assert sol.profit == pytest.approx(99.699549324241005, rel=1e-14)


def test_inactive_inside_band():
    """Pool already at the outside price: no profitable trade either way."""
    sol = best_arbitrage(100.0, 400.0, 40000.0, 4.0, 0.997)
    assert sol == INACTIVE


def test_activation_boundary():
    """The buy side switches on exactly where phi*m_p crosses the pool ratio."""
    r_alpha, r_beta, phi = 100.0, 400.0, 0.997
    k = r_alpha * r_beta
    ratio = r_beta / r_alpha
    below = optimal_arbitrage(r_alpha, r_beta, k, ratio / phi * (1 - 1e-9), phi)
    above = optimal_arbitrage(r_alpha, r_beta, k, ratio / phi * (1 + 1e-6), phi)
    assert below.direction == "none"
    assert above.direction == "buy_eth"
    assert above.delta_alpha > 0


def test_sell_side_is_mirror_of_buy_side():
    """ETH-in direction equals the role-swapped problem at price 1/m_p."""
    r_alpha, r_beta, phi = 200.0, 100.0, 0.99
    k = r_alpha * r_beta
    m_p = 0.2  # pool ratio 0.5, so selling ETH to the pool is profitable
    sol = best_arbitrage(r_alpha, r_beta, k, m_p, phi)
    mirror = optimal_arbitrage(r_beta, r_alpha, k, 1.0 / m_p, phi)
    assert sol.direction == "sell_eth"
    assert sol.delta_alpha == mirror.delta_beta
    assert sol.delta_beta == mirror.delta_alpha
    assert sol.profit == pytest.approx(mirror.profit * m_p, rel=1e-15)


def test_post_trade_price_lands_on_band_edge():
    """After the optimal trade the pool quotes exactly phi*m_p (buy side)."""
    r_alpha, r_beta, phi = 100.0, 100.0, 0.997
    k = r_alpha * r_beta
    m_p = 4.0
    sol = optimal_arbitrage(r_alpha, r_beta, k, m_p, phi)
    spot_post = k / (r_alpha - sol.delta_alpha) ** 2
    assert spot_post == pytest.approx(phi * m_p, rel=1e-12)


@given(
    r_alpha=reserve,
    r_beta=reserve,
    mult=st.floats(min_value=0.5, max_value=2.0),
    tau=st.floats(min_value=0.0, max_value=0.05),
)
@settings(max_examples=60, deadline=None)
def test_closed_form_beats_or_matches_oracle(r_alpha, r_beta, mult, tau):
    """Closed-form profit within 1e-6 of the numeric optimum, both directions."""
    phi = 1.0 - tau
    k = r_alpha * r_beta
    m_p = (r_beta / r_alpha) * mult
    sol = best_arbitrage(r_alpha, r_beta, k, m_p, phi)
    buy = brute_force_arbitrage(r_alpha, r_beta, k, m_p, phi)
    sell = brute_force_arbitrage(r_beta, r_alpha, k, 1.0 / m_p, phi)
    oracle = max(0.0, buy.profit, sell.profit * m_p)
    assert abs(sol.profit - oracle) <= 1e-6 * (1.0 + abs(oracle))


@given(r_alpha=reserve, r_beta=reserve, mult=st.floats(min_value=1.05, max_value=3.0))
@settings(max_examples=60, deadline=None)
def test_profit_nonnegative_and_legs_consistent(r_alpha, r_beta, mult):
    """Active solutions satisfy the stage-1 invariant with the fee-credited leg."""
    phi = 0.997
    k = r_alpha * r_beta
    m_p = (r_beta / r_alpha) * mult
    sol = optimal_arbitrage(r_alpha, r_beta, k, m_p, phi)
    if sol.direction == "none":
        return
    assert sol.profit >= 0
    lhs = (r_alpha - sol.delta_alpha) * (r_beta + phi * sol.delta_beta)
    assert lhs == pytest.approx(k, rel=1e-10)


@given(
    r_alpha=st.floats(min_value=1e-2, max_value=1e6),
    r_beta=st.floats(min_value=1e-2, max_value=1e6),
    ratio=st.floats(min_value=1e-2, max_value=1e2),
    tau=st.floats(min_value=0.0, max_value=0.3),
)
@settings(max_examples=300, deadline=None)
def test_best_arbitrage_leaves_spot_in_no_trade_band(r_alpha, r_beta, ratio, tau):
    """Profit is nonnegative; with no trade the spot price lies in
    [phi*m_p, m_p/phi], and a trade moves the fee-credited reserves' price
    onto the edge it crossed.

    The inactive check allows 8 ulps at the edges: on a draw sitting at an
    activation threshold, rounding can leave the spot price 2 ulps outside
    with no trade (seen on band-edge draws).
    """
    phi = 1.0 - tau
    k = r_alpha * r_beta
    spot = r_beta / r_alpha
    m_p = spot * ratio
    sol = best_arbitrage(r_alpha, r_beta, k, m_p, phi)
    assert sol.profit >= 0
    if sol.direction == "none":
        ulps = 8 * np.finfo(float).eps
        assert phi * m_p * (1 - ulps) <= spot <= m_p / phi * (1 + ulps)
    elif sol.direction == "buy_eth":
        post = (r_beta + phi * sol.delta_beta) / (r_alpha - sol.delta_alpha)
        assert post == pytest.approx(phi * m_p, rel=1e-8)
    else:
        post = (r_beta - sol.delta_beta) / (r_alpha + phi * sol.delta_alpha)
        assert post == pytest.approx(m_p / phi, rel=1e-8)


def test_brute_force_rejects_bad_inputs():
    with pytest.raises(InvalidParameter):
        brute_force_arbitrage(-1.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(InvalidParameter):
        optimal_arbitrage(1.0, 1.0, 1.0, math.inf, 1.0)
    with pytest.raises(InvalidParameter):
        optimal_arbitrage(1.0, 1.0, 1.0, 1.0, 1.5)


def test_profit_increases_with_mispricing():
    """Wider external premium never shrinks the arbitrage take."""
    r_alpha = r_beta = 100.0
    k = 10000.0
    last = 0.0
    for mult in np.linspace(1.1, 5.0, 15):
        sol = optimal_arbitrage(r_alpha, r_beta, k, mult, 0.997)
        assert sol.profit >= last
        last = sol.profit
