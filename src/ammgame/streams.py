"""Numbered random streams, opened as numpy's SeedSequence would open them.

Stream i of a key (k_1, ..., k_m) is the generator that
``SeedSequence((k_1, ..., k_m, i))`` seeds; every draw in the package comes
from one. A batch of streams of one key opens without building a SeedSequence:
its hash runs once over the batch, one uint32 lane per stream, and the words
it ends on seed each PCG64 directly.

SeedSequence pads an entropy of fewer than four words with zero words, so
two streams whose words agree once padded open the same generator: with a
seed below 2^32, stream i of (seed, j) is stream 0 of (seed, j, i), and
stream j of (seed,) is stream 0 of (seed, j). A new kind of draw needs a key
none of whose streams, padded, is a stream already in use.
"""

import numpy as np

from .errors import InvalidParameter

# SeedSequence's hash (numpy/random/bit_generator.pyx): a pool of four words
_POOL = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hasher(const, mult):
    """SeedSequence's running hash on uint32 columns, its constant advanced
    by ``mult`` at every call as numpy advances it."""

    def hash_(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ value >> 16

    return hash_


def _mix(x, y):
    """SeedSequence's mix of pool word x with hashed word y."""
    result = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return result ^ result >> 16


def opening_words(key, indices):
    """Row j is ``SeedSequence((*key, indices[j])).generate_state(4, np.uint64)``.

    The entropy of (*key, i) is each key part's little-endian 32-bit words (0
    as one word), then i as one word (i < 2^32). It is as long for every
    index, and SeedSequence's hash constants do not depend on it, so every
    stream takes the same steps, each on its own uint32 lane.
    """
    entropy = []
    for part in key:
        if part < 0:
            raise InvalidParameter(f"stream key {tuple(key)} has a negative part {part}")
        while True:
            entropy.append(np.full(len(indices), part & _MASK32, dtype=np.uint32))
            part >>= 32
            if not part:
                break
    entropy.append(np.asarray(indices, dtype=np.uint32))

    hashmix = _hasher(_INIT_A, _MULT_A)  # SeedSequence.mix_entropy
    padded = entropy + [np.zeros_like(entropy[0])] * (_POOL - len(entropy))
    pool = [hashmix(word) for word in padded[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(word))

    hash_out = _hasher(_INIT_B, _MULT_B)  # SeedSequence.generate_state
    halves = [hash_out(pool[i % _POOL]).astype(np.uint64) for i in range(8)]
    words = np.empty((len(indices), 4), dtype=np.uint64)
    for j in range(4):
        words[:, j] = halves[2 * j] | halves[2 * j + 1] << 32
    return words


def generators(key, indices):
    """The generators of streams (*key, i) for i in ``indices``, in order.

    PCG64 asks its ``ISeedSequence`` for its four words once, when it is
    built, so one shared object hands out the rows of ``opening_words`` in
    turn and no stream keeps a SeedSequence. numpy.random is imported here,
    not with the module, to keep it out of import time.
    """
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    opening = iter(opening_words(key, indices))

    class Rows(ISeedSequence):
        def generate_state(self, n_words, dtype):
            return next(opening)

    rows = Rows()
    return [Generator(PCG64(rows)) for _ in range(len(indices))]


def normals(key, count, n):
    """The first ``n`` standard normals of streams (*key, 0) to (*key, count - 1),
    one row each: a (count, n) array."""
    out = np.empty((count, n))
    for g, row in zip(generators(key, range(count)), out):
        g.standard_normal(out=row)
    return out
