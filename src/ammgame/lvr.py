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

All paths advance together, one block of up to 256 steps at a time: every
stream draws its next block into a small (128 paths, block) tile, the tiles
are copied into one (block, paths) buffer, and ``kernels.lvr_paths`` steps
every path over that buffer's rows. Since consecutive draws from a generator
equal one long draw, no number depends on the block or tile size.

A dt ladder seeds its streams once (``path_streams``) and each experiment
rewinds them to their opening states before it draws, so every dt sees the
same draws as streams seeded afresh. Memory is the buffer, block * paths * 8
bytes (20 MB at 10^4 paths), plus the generators, about 1.3 kB a path
(SeedSequence 743 B, PCG64 348 B, Generator 236 B: 13 MB at 10^4 paths),
whatever dt is.
"""

import math
import mmap
from dataclasses import dataclass

import numpy as np

from . import kernels
from .config import divides
from .errors import InvalidParameter

# steps per noise block: the (steps, paths) buffer is 2 MB per 1,000 paths
_BLOCK = 256
# paths per transpose tile: a (tile, block) row buffer stays in cache
_TILE = 128
# low 64 bits of a 128-bit PCG64 word
_WORD = (1 << 64) - 1


def _check_args(p, k, sigma=0.0):
    """Raise unless p > 0, k > 0 and sigma >= 0 everywhere (NaN fails), tested in
    one pass; the failing argument is looked for only then, to name it.
    """
    if (np.greater(p, 0) & np.greater(k, 0) & np.greater_equal(sigma, 0)).all():
        return
    for name, value in (("price", p), ("invariant", k)):
        if not np.all(np.greater(value, 0)):
            raise InvalidParameter(f"{name} must be positive")
    raise InvalidParameter("volatility must be nonnegative")


def pool_value(p, k):
    """Mark-to-market pool value 2*sqrt(k*p) at external price p."""
    _check_args(p, k)
    return 2.0 * np.sqrt(np.asarray(k, dtype=float) * p)


def instantaneous_lvr(p, sigma, k):
    """Drain rate sigma^2 * sqrt(k*p) / 4, in USDT per unit time.

    Valid Python and numpy floats (a NaN fails the comparisons) take
    ``math.sqrt``, which rounds as ``np.sqrt`` does: a lane of floats stays one.
    """
    if (isinstance(p, float) and isinstance(k, float) and isinstance(sigma, float)
            and p > 0 and k > 0 and sigma >= 0):
        return kernels._drain_rate(math.sqrt(k * p), sigma)
    _check_args(p, k, sigma)
    return kernels._drain_rate(np.sqrt(np.asarray(k, dtype=float) * p), sigma)


@dataclass
class LvrAccount:
    """Result of one drain-vs-replication experiment.

    The ``terminal_*`` arrays hold per-path terminal quantities for all paths;
    the residual is ARB_T - LVR_T.
    """

    dt: float
    n_paths: int
    terminal_arb: np.ndarray
    terminal_lvr: np.ndarray
    terminal_replication: np.ndarray
    terminal_pool_value: np.ndarray
    mean_abs_residual: float
    mean_residual: float
    stderr_residual: float


@dataclass
class PathStreams:
    """One generator per path, seeded once and rewound for each experiment.

    ``starts`` packs every generator's opening PCG64 state into four uint64
    words, (state high, state low, increment high, increment low), so the
    openings cost 32 bytes a path beside the generators themselves.
    """

    seed: int
    generators: list
    starts: np.ndarray

    def rewind(self):
        """Put every generator back on its first draw."""
        for g, words in zip(self.generators, self.starts):
            state_hi, state_lo, inc_hi, inc_lo = words.tolist()
            g.bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state_hi << 64 | state_lo, "inc": inc_hi << 64 | inc_lo},
                "has_uint32": 0,
                "uinteger": 0,
            }


def path_streams(config):
    """Seed path i's generator from (config.seed, i), for each of lvr.paths paths."""
    seed = config.seed
    generators = [
        np.random.default_rng(np.random.SeedSequence((seed, i))) for i in range(config.lvr_paths)
    ]
    starts = np.empty((len(generators), 4), dtype=np.uint64)
    for words, g in zip(starts, generators):
        opening = g.bit_generator.state["state"]
        words[:] = (opening["state"] >> 64, opening["state"] & _WORD,
                    opening["inc"] >> 64, opening["inc"] & _WORD)
    return PathStreams(seed, generators, starts)


def _fill(generators, z, tile):
    """Draw the next len(z) normals of every path's stream into z (steps, paths).

    Each path draws one contiguous row of ``tile``; a full tile is then copied
    into its columns of z. The row views are made once per block and serve
    every tile.
    """
    block = tile[:, : len(z)]
    rows = list(block)
    for first in range(0, len(generators), _TILE):
        width = min(_TILE, len(generators) - first)
        for g, row in zip(generators[first : first + width], rows):
            g.standard_normal(out=row)
        z[:, first : first + width] = block[:width].T


def run_lvr_experiment(config, dt, streams=None):
    """Simulate the drain identity on GBM external prices.

    Pool parameters, volatility, horizon, path count and seed come from the
    config; ``dt`` must cut the horizon into whole steps. ``streams`` are
    ``path_streams`` of a config with the same path count and seed, seeded
    here when not given. Given streams are rewound before they draw, so a dt
    ladder seeds them once and passes them to every step size.
    """
    sigma = config.external_sigma
    horizon = config.grid_horizon
    n_paths = config.lvr_paths
    seed = config.seed
    k = config.pool_x0 * config.pool_y0
    p0 = config.pool_y0 / config.pool_x0
    n_steps = divides(dt, horizon)
    if n_steps == 0:
        raise InvalidParameter(
            f"dt = {dt} does not cut grid.horizon = {horizon} into whole steps"
        )

    if streams is None:
        streams = path_streams(config)
    elif len(streams.generators) != n_paths:
        raise InvalidParameter(
            f"streams hold {len(streams.generators)} paths, but lvr.paths = {n_paths}"
        )
    elif streams.seed != seed:
        raise InvalidParameter(f"streams were seeded from seed = {streams.seed}, not {seed}")
    else:
        streams.rewind()

    block = min(_BLOCK, n_steps)
    # An anonymous mapping of its own, so freeing z unmaps it. A buffer this
    # size from malloc is mmapped the first time, but freeing it raises
    # glibc's mmap threshold; the next call's buffer then comes from the brk
    # heap, which small allocations landing in its freed hole can grow by
    # several MB, making peak memory depend on allocation timing.
    z = np.frombuffer(mmap.mmap(-1, block * n_paths * 8), dtype=float).reshape(block, n_paths)
    tile = np.empty((min(_TILE, n_paths), block))
    state = np.zeros((3, n_paths))  # price, hedge gain, accrued drain
    state[0] = p0
    for start in range(0, n_steps, block):
        rows = z[: min(block, n_steps - start)]
        _fill(streams.generators, rows, tile)
        kernels.lvr_paths(rows, state, sigma, dt, k)

    pool_t = pool_value(state[0], k)
    replication_t = pool_value(p0, k) + state[1]
    drain_t = state[2]
    arb_t = replication_t - pool_t
    residual = arb_t - drain_t
    mean_abs = float(np.mean(np.abs(residual)))
    mean_res = float(np.mean(residual))
    stderr = float(np.std(residual, ddof=1) / np.sqrt(n_paths))

    return LvrAccount(
        dt=float(dt),
        n_paths=int(n_paths),
        terminal_arb=arb_t,
        terminal_lvr=drain_t,
        terminal_replication=replication_t,
        terminal_pool_value=pool_t,
        mean_abs_residual=mean_abs,
        mean_residual=mean_res,
        stderr_residual=stderr,
    )
