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
evaluation of the integrand; path i owns stream i of the key (seed,) in
``streams`` and the reduction order is fixed, so results are bit-reproducible.

Paths run in groups of up to 5,000, whose streams ``streams.generators`` opens
in one pass. The group's paths advance together, one block of up to 256 steps
at a time: every stream draws its next block into a small (128 paths, block)
tile, the tiles are copied into one (block, group) buffer, and
``kernels.lvr_paths`` steps every path over that buffer's rows. Since
consecutive draws from a generator equal one long draw and the kernel treats
each path alone, no number depends on the block, tile or group size.

A ladder of step sizes shares the streams: at n_j steps, level j takes the
first n_j normals of each path's stream, a prefix of what the finest level
draws. ``ladder_terminals`` therefore seeds each group once per ladder,
draws each stream once, up to the largest n_j, and advances every level's
own (3, group) state over the leading rows of each block its steps reach
into. The numbers are those of running each level alone.

The paths run in shares, one per CPU this process may run on (at most one
per path): contiguous ranges of path indices, each advanced by the group loop
above in its own process. The caller's process forks one child per share
after the first, runs the first share itself and reaps every child before it
returns; no child outlives the call. Every level's (3, paths) state lives in
one shared anonymous mapping, of which each share writes only its own
columns. Where the platform cannot fork, one share runs the same loop without
a fork. A path's numbers depend only on its stream and the kernel, which
treats each path alone, so no number depends on the share count either.

Memory per process is one group's buffer, block * group * 8 bytes (10 MB),
plus one group's generators, about 0.6 kB a path (PCG64 348 B, Generator
236 B: 3 MB), whatever lvr.paths and the step sizes are; beside them only the
shared per-path states and the results grow with lvr.paths, one (3, paths)
state per step size. A child starts as a copy-on-write image of its parent,
so each share adds its own buffer and generators to what the parent holds.
"""

import math
import mmap
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import kernels, streams
from .config import divides
from .errors import InvalidParameter, ShareFailed

# steps per noise block: the (steps, paths) buffer is 2 MB per 1,000 paths
_BLOCK = 256
# paths per transpose tile: a (tile, block) row buffer stays in cache
_TILE = 128
# paths per group: one group's generators and (block, group) buffer are live
# at a time, 10 MB of buffer at most
_GROUP = 5000


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

    ``terminal_arb`` and ``terminal_lvr`` hold every path's ARB_T and LVR_T;
    the residual is ARB_T - LVR_T. The pool value and the replicating
    portfolio behind ARB_T are derived from the ``ladder_terminals`` state
    and not kept.
    """

    dt: float
    n_paths: int
    terminal_arb: np.ndarray
    terminal_lvr: np.ndarray
    mean_abs_residual: float
    mean_residual: float
    stderr_residual: float


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


def _advance(config, ladder, state, first, stop):
    """Advance paths first..stop-1 of every level's (3, paths) row of ``state``
    over the ladder's (dt, n_steps) levels, a group of paths at a time."""
    sigma = config.external_sigma
    k = config.pool_x0 * config.pool_y0
    longest = max(n_steps for _, n_steps in ladder)
    block = min(_BLOCK, longest)
    group = min(_GROUP, stop - first)
    # An anonymous mapping of its own, so freeing it unmaps it. A buffer this
    # size from malloc is mmapped the first time, but freeing it raises
    # glibc's mmap threshold; the next call's buffer then comes from the brk
    # heap, which small allocations landing in its freed hole can grow by
    # several MB, making peak memory depend on allocation timing. It is mapped
    # after the fork, so each share's buffer is its own.
    buffer = np.frombuffer(mmap.mmap(-1, block * group * 8), dtype=float)
    tile = np.empty((min(_TILE, group), block))
    for lo in range(first, stop, group):
        paths = np.arange(lo, min(lo + group, stop))
        z = buffer[: block * len(paths)].reshape(block, len(paths))
        generators = streams.generators((config.seed,), paths)
        for start in range(0, longest, block):
            rows = z[: min(block, longest - start)]
            _fill(generators, rows, tile)
            for (dt, n_steps), level in zip(ladder, state):
                if start < n_steps:
                    kernels.lvr_paths(rows[: n_steps - start],
                                      level[:, lo : lo + len(paths)], sigma, dt, k)
        del generators  # freed before the next group's are built


def _shares(n_paths):
    """How many processes run the paths: one per CPU this process may run on,
    at most one per path, and one where the platform cannot fork or cannot
    say which CPUs it may use."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return min(len(os.sched_getaffinity(0)), n_paths)


def ladder_terminals(config, dt_values):
    """Terminal (3, paths) state of every path at each step size in
    ``dt_values``, in that order: price, hedge gain and accrued drain.

    Pool parameters, volatility, horizon, path count and seed come from the
    config; every dt must cut the horizon into whole steps. Level j takes the
    first n_j normals of each path's stream, so one pass over each group draws
    the streams once, up to the largest n_j, and every block advances each
    level whose steps reach into it over that level's leading rows.

    The paths split into ``_shares(paths)`` contiguous ranges. This process
    forks one child per range after the first, runs the first itself, then
    reaps every child; a child writes its columns of the shared state and
    leaves through ``os._exit``. If this process's own range raises, the
    children are killed before they are reaped; a child that exits other than
    with status 0 raises ``ShareFailed``.
    """
    horizon = config.grid_horizon
    n_paths = config.lvr_paths
    p0 = config.pool_y0 / config.pool_x0
    ladder = []
    for dt in dt_values:
        n_steps = divides(dt, horizon)
        if n_steps == 0:
            raise InvalidParameter(
                f"dt = {dt} does not cut grid.horizon = {horizon} into whole steps"
            )
        ladder.append((dt, n_steps))
    # price, hedge gain and accrued drain of every level, in a MAP_SHARED
    # mapping (mmap's default), so what a forked share writes is seen here
    state = np.frombuffer(mmap.mmap(-1, len(ladder) * 3 * n_paths * 8), dtype=float)
    state = state.reshape(len(ladder), 3, n_paths)
    state[:, 0] = p0

    shares = _shares(n_paths)
    bounds = [n_paths * share // shares for share in range(shares + 1)]
    children = []
    try:
        for share in range(1, shares):
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    _advance(config, ladder, state, bounds[share], bounds[share + 1])
                    status = 0
                except BaseException:  # the child never returns to its caller
                    sys.excepthook(*sys.exc_info())
                    sys.stderr.flush()
                finally:
                    os._exit(status)
            children.append(pid)
        _advance(config, ladder, state, bounds[0], bounds[1])
    except BaseException:
        import signal  # kept out of import time: only a failure here needs it

        for pid in children:
            os.kill(pid, signal.SIGTERM)
        raise
    finally:
        statuses = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in children]
    for share, status in enumerate(statuses, 1):
        if status != 0:
            raise ShareFailed(
                f"the lvr paths {bounds[share]}..{bounds[share + 1] - 1} (share {share} "
                f"of {shares}) ended with exit status {status}"
            )
    return list(state)


def run_lvr_experiment(config, dt, terminal=None):
    """The drain identity at step size ``dt``, reduced to an LvrAccount.

    ``terminal`` is this dt's state from ``ladder_terminals`` on the same
    config; without it the one-level ladder ``(dt,)`` runs here.
    """
    if terminal is None:
        (terminal,) = ladder_terminals(config, (dt,))
    k = config.pool_x0 * config.pool_y0
    p0 = config.pool_y0 / config.pool_x0
    n_paths = config.lvr_paths

    pool_t = pool_value(terminal[0], k)
    replication_t = pool_value(p0, k) + terminal[1]
    drain_t = terminal[2]
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
        mean_abs_residual=mean_abs,
        mean_residual=mean_res,
        stderr_residual=stderr,
    )
