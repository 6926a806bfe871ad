"""Arbitrage against an external reference price.

An arbitrageur facing pool reserves (R_alpha ETH, R_beta USDT) and an outside
price m_p solves

    maximize  m_p * d_alpha - d_beta
    s.t.      (R_alpha - d_alpha) * (R_beta + phi * d_beta) = k,
              d_alpha >= 0, d_beta >= 0,

taking ETH out of the pool when the pool quotes it below the fee-adjusted
outside price. First-order conditions give the closed form

    d_alpha* = R_alpha - sqrt(k / (phi * m_p)),
    d_beta*  = (1/phi) * (sqrt(phi * m_p * k) - R_beta),

active exactly when phi*m_p exceeds the pool ratio R_beta/R_alpha; negative
candidates collapse to the inactive (0, 0, 0) solution. The opposite direction
(ETH in, USDT out) is the same problem with token roles swapped and price
1/m_p. Between the two activation thresholds no trade is profitable: the pool
ratio R_beta/R_alpha lies in the band [phi*m_p, m_p/phi].

``brute_force_arbitrage`` solves the unconstrained-direction problem by grid
search plus golden-section refinement and is the oracle the closed form is
tested against.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_TOL = 1e-12  # relative bracket width at which golden section stops
_GOLDEN_MAX_ITER = 200
_GRID_POINTS = 10001  # grid of the brute-force oracle before refinement


@dataclass(frozen=True)
class ArbSolution:
    """One-shot arbitrage trade: ETH leg, USDT leg, profit, direction.

    ``direction`` is "buy_eth" (ETH out of the pool, profit in USDT is
    m_p*delta_alpha - delta_beta), "sell_eth" (ETH into the pool, profit is
    delta_beta - m_p*delta_alpha), or "none". Both legs are nonnegative
    magnitudes.
    """

    delta_alpha: float
    delta_beta: float
    profit: float
    direction: str


INACTIVE = ArbSolution(0.0, 0.0, 0.0, "none")


def _check_inputs(r_alpha, r_beta, k, m_p, phi):
    for name, v in (("r_alpha", r_alpha), ("r_beta", r_beta), ("k", k), ("m_p", m_p)):
        if not v > 0 or not math.isfinite(v):
            raise InvalidParameter(f"{name} must be positive and finite, got {v}")
    if not (0 < phi <= 1):
        raise InvalidParameter(f"phi must lie in (0, 1], got {phi}")


def optimal_arbitrage(r_alpha, r_beta, k, m_p, phi):
    """Closed-form optimum for the ETH-out direction.

    Returns the inactive solution when the pool already quotes ETH at or above
    phi*m_p.
    """
    _check_inputs(r_alpha, r_beta, k, m_p, phi)
    d_alpha = r_alpha - math.sqrt(k / (phi * m_p))
    d_beta = (math.sqrt(phi * m_p * k) - r_beta) / phi
    if d_alpha <= 0 or d_beta <= 0:
        return INACTIVE
    profit = m_p * d_alpha - d_beta
    if profit < 0:
        # can occur only by rounding at the activation boundary
        return INACTIVE
    return ArbSolution(d_alpha, d_beta, profit, "buy_eth")


def best_arbitrage(r_alpha, r_beta, k, m_p, phi):
    """Most profitable direction, by symmetry of the two one-sided problems."""
    buy = optimal_arbitrage(r_alpha, r_beta, k, m_p, phi)
    mirror = optimal_arbitrage(r_beta, r_alpha, k, 1.0 / m_p, phi)
    if mirror.direction == "none":
        return buy
    if buy.direction == "none" or mirror.profit * m_p > buy.profit:
        # mirror profit is in ETH; convert at m_p for comparison and report
        # legs as (ETH leg, USDT leg)
        return ArbSolution(
            delta_alpha=mirror.delta_beta,
            delta_beta=mirror.delta_alpha,
            profit=mirror.profit * m_p,
            direction="sell_eth",
        )
    return buy


def _golden_max(f, lo, hi):
    """Golden-section maximization of a unimodal f on [lo, hi]."""
    a, b = lo, hi
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(_GOLDEN_MAX_ITER):
        if b - a <= _GOLDEN_TOL * (1.0 + abs(a) + abs(b)):
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = f(d)
    x = (a + b) / 2.0
    return x, f(x)


def brute_force_arbitrage(r_alpha, r_beta, k, m_p, phi):
    """Grid + golden-section oracle for the ETH-out direction.

    Maximizes m_p*d - (1/phi)*(k/(r_alpha - d) - r_beta) over d in
    [0, r_alpha); the objective is strictly concave, so the grid bracket
    (``_GRID_POINTS`` points) plus golden-section refinement is within
    O(1/_GRID_POINTS^2) of the optimum.
    """
    _check_inputs(r_alpha, r_beta, k, m_p, phi)

    hi = r_alpha * (1.0 - 1e-9)

    def objective(d):
        return m_p * d - (k / (r_alpha - d) - r_beta) / phi

    grid = np.linspace(0.0, hi, _GRID_POINTS)
    best_i = int(np.argmax(objective(grid)))
    step = hi / (_GRID_POINTS - 1)
    lo = max(0.0, (best_i - 1) * step)
    up = min(hi, (best_i + 1) * step)
    d_star, v_star = _golden_max(objective, lo, up)
    if v_star <= 0.0 or d_star <= 0.0:
        return INACTIVE
    d_beta = (k / (r_alpha - d_star) - r_beta) / phi
    if d_beta <= 0.0:
        return INACTIVE
    return ArbSolution(d_star, d_beta, m_p * d_star - d_beta, "buy_eth")
