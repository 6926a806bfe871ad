"""Pool value, rebalancing replication, and the arbitrage drain rate.

Marking a constant-product pool to an external price P gives the value
V(P) = 2*sqrt(k*P), the minimum of P*x + y over x*y = k, attained at
x*(P) = sqrt(k/P). A self-financing portfolio holding x*(P_t) replicates the
pool's first-order exposure; the gap grows at the deterministic rate

    l(P) = -(sigma^2 P^2 / 2) * V''(P) = sigma^2 * sqrt(k*P) / 4

under a driftless geometric Brownian external price with volatility sigma.
Cumulatively, V(P_T) = R_T - LVR_T: whatever the pool underperforms the
rebalancing portfolio is exactly what arbitrageurs extract, so the experiment
checks ARB_T = V(P_0) + int x* dP - V(P_T) against LVR_T = int l(P) dt
path by path.

Monte Carlo paths use exact log-normal price increments and left-point (Ito)
evaluation of the integrand; each path owns a stream seeded by
(master seed, path index) and the reduction order is fixed, so results are
bit-reproducible.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import InvalidParameter

# paths per kernel batch; bounds the noise buffer at ~32 MB for dt = 1e-4
_CHUNK_TARGET = 4_000_000


def pool_value(p, k):
    """Mark-to-market pool value 2*sqrt(k*p) at external price p."""
    if not np.all(np.asarray(p) > 0) or not np.all(np.asarray(k) > 0):
        raise InvalidParameter("pool_value needs positive price and invariant")
    return 2.0 * np.sqrt(np.asarray(k, dtype=float) * p)


def rebalancing_position(p, k):
    """ETH holding sqrt(k/p) of the replicating portfolio (argmin of P*x + k/x)."""
    if not np.all(np.asarray(p) > 0) or not np.all(np.asarray(k) > 0):
        raise InvalidParameter("rebalancing_position needs positive price and invariant")
    return np.sqrt(np.asarray(k, dtype=float) / p)


def instantaneous_lvr(p, sigma, k):
    """Drain rate sigma^2 * sqrt(k*p) / 4, in USDT per unit time."""
    if not np.all(np.asarray(p) > 0) or not np.all(np.asarray(k) > 0):
        raise InvalidParameter("instantaneous_lvr needs positive price and invariant")
    if np.any(np.asarray(sigma) < 0):
        raise InvalidParameter("volatility must be nonnegative")
    return 0.25 * sigma * sigma * np.sqrt(np.asarray(k, dtype=float) * p)


def replication_increment(p_prev, p_next, k):
    """One Ito step of the rebalancing portfolio: x*(p_prev) * (p_next - p_prev)."""
    return rebalancing_position(p_prev, k) * (np.asarray(p_next, dtype=float) - p_prev)


@dataclass
class LvrAccount:
    """Result of one drain-vs-replication experiment.

    Path-level arrays describe the first simulated path; the ``terminal_*``
    arrays hold per-path terminal quantities for all paths; the residual is
    ARB_T - LVR_T.
    """

    dt: float
    n_paths: int
    sigma: float
    seed: int
    pool_value_path: np.ndarray
    replication_path: np.ndarray
    lvr_path: np.ndarray
    arb_gain: float
    terminal_arb: np.ndarray
    terminal_lvr: np.ndarray
    terminal_replication: np.ndarray
    terminal_pool_value: np.ndarray
    mean_abs_residual: float
    mean_residual: float
    stderr_residual: float


def _path_noise(seed, first, count, n_steps):
    """Standard-normal increments for paths [first, first+count), one row each."""
    out = np.empty((count, n_steps))
    for i in range(count):
        rng = np.random.default_rng(np.random.SeedSequence((seed, first + i)))
        out[i] = rng.standard_normal(n_steps)
    return out


def run_lvr_experiment(config, dt=None, n_paths=None, seed=None):
    """Simulate the drain identity on GBM external prices.

    Pool parameters, volatility, horizon, path count and seed default to the
    supplied config; ``dt`` defaults to the first configured step size.
    """
    sigma = config.external_sigma
    horizon = config.grid_horizon
    k = config.pool_x0 * config.pool_y0
    p0 = config.pool_y0 / config.pool_x0
    if dt is None:
        dt = config.lvr_dt_values[0]
    if n_paths is None:
        n_paths = config.lvr_paths
    if seed is None:
        seed = config.seed
    if dt <= 0 or horizon <= 0:
        raise InvalidParameter("dt and horizon must be positive")
    if n_paths < 1:
        raise InvalidParameter("need at least one path")
    n_steps = int(round(horizon / dt))

    terminal = np.empty((n_paths, 4))
    chunk = max(1, min(n_paths, _CHUNK_TARGET // max(1, n_steps)))
    for first in range(0, n_paths, chunk):
        count = min(chunk, n_paths - first)
        z = _path_noise(seed, first, count, n_steps)
        terminal[first : first + count] = kernels.lvr_paths(z, p0, sigma, dt, k)

    residual = terminal[:, 0] - terminal[:, 1]
    mean_abs = float(np.mean(np.abs(residual)))
    mean_res = float(np.mean(residual))
    stderr = float(np.std(residual, ddof=1) / np.sqrt(n_paths)) if n_paths > 1 else 0.0

    v_path, r_path, l_path = _replay_path(seed, 0, n_steps, p0, sigma, dt, k)
    return LvrAccount(
        dt=float(dt),
        n_paths=int(n_paths),
        sigma=float(sigma),
        seed=int(seed),
        pool_value_path=v_path,
        replication_path=r_path,
        lvr_path=l_path,
        arb_gain=float(terminal[0, 0]),
        terminal_arb=terminal[:, 0].copy(),
        terminal_lvr=terminal[:, 1].copy(),
        terminal_replication=terminal[:, 2].copy(),
        terminal_pool_value=terminal[:, 3].copy(),
        mean_abs_residual=mean_abs,
        mean_residual=mean_res,
        stderr_residual=stderr,
    )


def _replay_path(seed, index, n_steps, p0, sigma, dt, k):
    """Full sampled paths (V, R, LVR) for one path index, for reporting."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, index)))
    z = rng.standard_normal(n_steps)
    p = np.empty(n_steps + 1)
    p[0] = p0
    root = np.sqrt(dt)
    for t in range(n_steps):  # sequential, same association as the kernel
        p[t + 1] = p[t] * np.exp((-0.5 * sigma * sigma) * dt + sigma * root * z[t])

    v_path = pool_value(p, k)
    increments = replication_increment(p[:-1], p[1:], k)
    r_path = np.empty(n_steps + 1)
    r_path[0] = v_path[0]
    r_path[1:] = v_path[0] + np.cumsum(increments)
    l_path = np.empty(n_steps + 1)
    l_path[0] = 0.0
    l_path[1:] = np.cumsum(instantaneous_lvr(p[:-1], sigma, k) * dt)
    return v_path, r_path, l_path
