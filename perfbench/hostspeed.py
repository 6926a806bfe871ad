"""Host-speed reference: a frozen loop sampled before, during and after every operation.

The benchmark host is shared. Its speed drifts by up to 2x in phases that
last minutes, and process CPU time equals wall time throughout, so the
slowdown comes from the machine, not from the scheduler. Best-of-k does not
help, because every call in a window falls inside the same phase.

What does help is timing a fixed piece of reference work next to the
operation and dividing by it. The host switches between a fast and a slow
mode (about 1.6x apart) every 50-100 ms, so the slice is short and sampled
often. It has two halves of about equal length, because the slow mode hurts
array code and interpreter-bound code by different amounts: the backward
DP's interpolation pass at its default size (floor, clip, gather, a small
matrix-vector product and argmax on 101 x 11 x 7 points), and a scalar
market-step loop like ``engine.simulate``'s (nearest-node policy lookup for
64 traders, scalar LVR rate, price-drift update). Sampled every 25 ms inside
operations for 4 minutes, in blocks of 10 operations, dividing by the array
half alone, the scalar half alone and both cut the coefficient of variation
of simulate, solve-mfg and LVR-kernel times from 0.11, 0.09 and 0.07 to
0.054, 0.030 and 0.024 (array), 0.043, 0.028 and 0.038 (scalar), and 0.041,
0.022 and 0.027 (both). The inputs are fixed and do not depend on any seed.
Do not change this file between two commits that are being compared:
``NOMINAL_SLICE_S`` is the slice time in the fast mode of the reference
host, and it turns the ratio back into seconds.

``HostSpeed`` runs one slice before and after each operation and one slice
every ``INTERVAL_S`` seconds inside it, from a SIGALRM handler that fires
between bytecodes. The slices' own time is subtracted from the operation's
wall time, and the operation is scaled by ``NOMINAL_SLICE_S / mean slice``
over its window.
"""

import signal
import time
from typing import NamedTuple

import numpy as np

NOMINAL_SLICE_S = 0.0010
INTERVAL_S = 0.05

# Set-up runs in child processes, where no slice can run, and the slice does
# not track process start-up: a cold interpreter start spends its time in the
# loader and the import system. Its reference is therefore a cold start of an
# interpreter that imports numpy and nothing of ammgame, interleaved with the
# timed set-ups; numpy's import is about half of ammgame's set-up time.
REFERENCE_START = ("-c", "import numpy")
NOMINAL_START_S = 0.19

_NX, _NA, _M = 101, 11, 7
_PASSES = 4
_TRADERS, _STEPS = 64, 20


class _Reference:
    def __init__(self):
        rng = np.random.default_rng(20240517)
        self.values = rng.standard_normal(_NX)
        self.pos = rng.uniform(-1.0, _NX, _NX * _NA * _M)
        self.weights = np.full(_M, 1.0 / _M)
        self.table = rng.uniform(-1.0, 1.0, (_STEPS, _NX))
        self.x0 = rng.uniform(-1.0, 1.0, _TRADERS)

    def run(self):
        for _ in range(_PASSES):
            i0 = np.floor(self.pos).astype(np.int64)
            np.clip(i0, 0, _NX - 2, out=i0)
            frac = np.clip(self.pos - i0, 0.0, 1.0)
            interp = self.values[i0] * (1.0 - frac) + self.values[i0 + 1] * frac
            np.argmax(interp.reshape(_NX, _NA, _M) @ self.weights, axis=1)
        x = self.x0.copy()
        p = 1.0
        for t in range(_STEPS):
            ix = np.clip(np.rint((x + 2.0) / 0.04).astype(np.int64), 0, _NX - 1)
            alpha = self.table[t, ix]
            qbar = float(alpha.mean())
            if not np.all(np.asarray(p) > 0):
                raise ValueError("reference price must stay positive")
            ell = float(0.01 * np.sqrt(np.asarray(1e6, dtype=float) * p))
            a = 1000.0 + 0.997 * qbar
            b = 1000.0 + qbar
            g = 1.0 / (a * b)
            p += -1e6 * (qbar * b + a * (ell - qbar)) * g * g * 1e-6
            x = x + alpha * 0.02
        return p


class Timing(NamedTuple):
    result: object
    raw_s: float  # wall time of the call, in-call slices included
    net_s: float  # the same without the in-call slices
    scaled_s: float  # net time in reference-host seconds
    slice_s: float  # mean slice time over the call's window
    slices: list  # (start, duration) of the window's slices


class HostSpeed:
    """Samples the reference slice around and inside timed operations."""

    def __init__(self):
        self.reference = _Reference()
        self.slices = []  # (start, duration) of every slice run
        self._busy = False
        self._previous = None

    def sample(self):
        """Run one slice now and return its duration."""
        t0 = time.perf_counter()
        self.reference.run()
        dur = time.perf_counter() - t0
        self.slices.append((t0, dur))
        return dur

    def _on_alarm(self, signum, frame):
        if not self._busy:
            self._busy = True
            try:
                self.sample()
            finally:
                self._busy = False

    def timed(self, fn):
        """Call ``fn`` with slices around and inside it."""
        first = len(self.slices)
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            t1 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        window = self.slices[first:]
        raw = t1 - t0
        net = raw - sum(d for s, d in window if t0 <= s < t1)
        mean = sum(d for _, d in window) / len(window)
        return Timing(result, raw, net, net * NOMINAL_SLICE_S / mean, mean, window)
