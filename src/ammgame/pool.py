"""Constant-product pool mechanics.

A pool holds reserves (X, Y) with invariant k = X*Y and quotes the spot price
Y/X. Trades run in two stages: the invariant is enforced against the
fee-credited leg phi*dx (phi = 1 - tau), then the full dx enters the reserve,
which inflates the invariant. The market step (``market.step``) builds on
this: it quotes the price against the LP-adjusted reserves and tracks the
running ETH reserve as adjusted reserve plus the net flow of arbitrage and
mean trader impact.

Everything here is plain scalar arithmetic (no numpy), deliberately: the same
functions run on ``fractions.Fraction`` inputs, which is how the test oracles
verify the algebra exactly. The market step keeps that property.
"""

import math
from dataclasses import dataclass

from .errors import DegenerateReserves, InvalidParameter

# Reserve floor, relative to the initial reserve: below this a state is
# treated as degenerate rather than clamped.
EPS_RESERVE_FACTOR = 1e-9


@dataclass(frozen=True)
class PoolState:
    """Constant-product pool snapshot: reserves and fee.

    The invariant x*y and the fee-credit factor phi = 1 - tau are derived
    from them, so they cannot disagree with the stored values.
    """

    x_reserve: float
    y_reserve: float
    fee_tau: float

    def __post_init__(self):
        if not self.x_reserve > 0:
            raise InvalidParameter(f"x_reserve must be positive, got {self.x_reserve}")
        if not self.y_reserve > 0:
            raise InvalidParameter(f"y_reserve must be positive, got {self.y_reserve}")
        if not (0 <= self.fee_tau < 1):
            raise InvalidParameter(f"fee_tau must lie in [0, 1), got {self.fee_tau}")

    @property
    def invariant_k(self):
        return self.x_reserve * self.y_reserve

    @property
    def phi(self):
        return 1 - self.fee_tau


def make_pool(x0, y0, tau):
    """Open a pool with reserves (x0, y0) and fee tau."""
    return PoolState(x_reserve=x0, y_reserve=y0, fee_tau=tau)


def quote_trade(pool: PoolState, x_adj, y_adj, delta_x):
    """USDT leg and post-trade invariant for a signed ETH trade.

    Stage 1 prices the trade on the fee-credited leg:
        delta_y = y_adj - k0 / (x_adj + phi*delta_x)
    Stage 2 admits the full delta_x, so the invariant becomes
        k_new = k0 * (x_adj + delta_x) / (x_adj + phi*delta_x),
    equal to k0 at tau = 0 (bit for bit in floats). In exact arithmetic k_new
    is strictly increasing in delta_x whenever tau > 0; in floats it can fall
    as the trade grows at tau of about 1e-13 or less, where the fee moves the
    ratio by less than the rounding of its two factors.
    ``test_pool::test_invariant_nondecreasing_in_trade_size`` checks the
    exact values.

    Returns (delta_y, new_invariant). delta_y > 0 means USDT leaves the pool.
    Raises InvalidParameter unless x_adj and y_adj are finite and positive and
    delta_x is finite, and DegenerateReserves when x_adj + delta_x is not above
    the reserve floor. The fee leg x_adj + phi*delta_x needs no floor of its
    own: for phi in (0, 1] it is never below min(x_adj, x_adj + delta_x).
    """
    if not 0 < x_adj < math.inf:
        raise InvalidParameter(f"x_adj must be finite and positive, got {x_adj}")
    if not 0 < y_adj < math.inf:
        raise InvalidParameter(f"y_adj must be finite and positive, got {y_adj}")
    if not -math.inf < delta_x < math.inf:
        raise InvalidParameter(f"delta_x must be finite, got {delta_x}")
    k0 = pool.invariant_k
    phi = pool.phi
    b = x_adj + delta_x
    if not b > EPS_RESERVE_FACTOR * x_adj:
        raise DegenerateReserves(
            f"trade of {delta_x} would empty the pool (x_adj + delta_x = {b})"
        )
    delta_y = y_adj - k0 / (x_adj + phi * delta_x)
    return delta_y, invariant_after(k0, x_adj, delta_x, phi)


def invariant_after(k0, x_adj, delta_x, phi):
    """Invariant k0 * (x_adj + delta_x) / (x_adj + phi*delta_x) once delta_x is admitted."""
    # ratio first: at phi == 1 this is exactly 1.0 and the result is k0 bit for bit
    return k0 * ((x_adj + delta_x) / (x_adj + phi * delta_x))
