"""Pool value, the drain rate, the path kernel, the seeding of the path
streams and the drain-vs-replication identity.

A ladder of step sizes seeds its streams once, a group of paths at a time,
from opening words ``streams`` computes as SeedSequence((*key, i)) computes
them, and every level reads a prefix of each stream; the tests below hold
those words to numpy's, the terminals to a per-stream replay, and each level
of a ladder to that level run alone, whatever the group size. The paths split
into one share per CPU, each forked share writing its own columns; the share
count is set in the tests by the CPUs ``os.sched_getaffinity`` reports."""

import math
import os
import time
from fractions import Fraction as F

import mpmath as mp
import numpy as np
import pytest

from ammgame import kernels, lvr, streams
from ammgame.config import default_config
from ammgame.errors import InvalidParameter, ShareFailed
from ammgame.lvr import (
    _BLOCK, _TILE, instantaneous_lvr, ladder_terminals, pool_value, run_lvr_experiment,
)
from ammgame.streams import opening_words


def one_step(p0, k, sigma=0.2, dt=0.01, z=0.7):
    """One kernel step of one path: (p1, hedge gain, drain)."""
    state = np.array([[p0], [0.0], [0.0]])
    kernels.lvr_paths(np.array([[z]]), state, sigma, dt, k)
    return tuple(state[:, 0])


def test_pool_value_closed_form():
    """V(4) on k = 10000 is 2*sqrt(40000) = 400 exactly; the hedge holds 50."""
    assert pool_value(4.0, 10000.0) == 400.0
    p1, hedge, _ = one_step(4.0, 10000.0)
    assert hedge == 50.0 * (p1 - 4.0)
    np.testing.assert_allclose(
        pool_value(np.array([1.0, 4.0]), 10000.0), [200.0, 400.0], rtol=0
    )


def test_pool_value_is_min_of_marked_inventory():
    """P*x + k/x over x > 0 bottoms out at the pool value."""
    p, k = 2.7, 31415.0
    xs = np.linspace(0.1, 500.0, 20000)
    marked = p * xs + k / xs
    assert pool_value(p, k) <= marked.min() + 1e-6
    p1, hedge, _ = one_step(p, k)
    x_star = hedge / (p1 - p)  # the kernel's holding over the step
    assert p * x_star + k / x_star == pytest.approx(pool_value(p, k), rel=1e-15)


def test_instantaneous_lvr_exact_point():
    """sigma=0.2, k=10000, P=4: rate = 0.01 * 200 = 2."""
    assert instantaneous_lvr(4.0, 0.2, 10000.0) == pytest.approx(2.0, rel=1e-15)
    assert instantaneous_lvr(4.0, 0.0, 10000.0) == 0.0
    assert instantaneous_lvr(np.float64(4.0), np.float64(0.2), np.float64(10000.0)) == (
        instantaneous_lvr(4.0, 0.2, 10000.0))
    # floats and numpy floats take math.sqrt, arrays np.sqrt: the same bits,
    # also where the root is inexact (sigma = 1 leaves the root's bits intact)
    for p, k in ((4.0, 10000.0), (2.0, 3.0), (1e-3, 3.3)):
        rate = instantaneous_lvr(p, 1.0, k)
        assert instantaneous_lvr(np.float64(p), 1.0, np.float64(k)) == rate
        assert instantaneous_lvr(np.array([p]), 1.0, k)[0] == rate
    # Fractions are not floats: the numpy lane checks and roots them
    assert instantaneous_lvr(F(27, 10), 0.2, F(31415)) == instantaneous_lvr(2.7, 0.2, 31415.0)
    with pytest.raises(InvalidParameter, match="price"):
        instantaneous_lvr(F(-1), 0.2, F(1))
    for arg, bad, name in [("p", -1.0, "price"), ("k", np.nan, "invariant"),
                           ("sigma", -0.2, "volatility"), ("sigma", np.nan, "volatility")]:
        # a numpy scalar takes the scalar lane, which must reject the same values
        for value in (bad, np.float64(bad)):
            with pytest.raises(InvalidParameter, match=name):
                instantaneous_lvr(**{"p": 1.0, "sigma": 0.2, "k": 1.0, arg: value})


def test_drain_rate_matches_value_curvature():
    """The rate equals -(sigma^2 P^2 / 2) V''(P), V'' by 50-digit differences."""
    mp.mp.dps = 50
    sigma = 0.2
    for p in (0.5, 1.0, 4.0, 25.0):
        for k in (100.0, 10000.0):
            h = mp.mpf("1e-10")
            f = lambda x: 2 * mp.sqrt(mp.mpf(k) * x)
            v2 = (f(mp.mpf(p) + h) - 2 * f(mp.mpf(p)) + f(mp.mpf(p) - h)) / h**2
            expected = float(-(sigma**2) * p**2 / 2 * v2)
            assert instantaneous_lvr(p, sigma, k) == pytest.approx(expected, rel=1e-10)


def test_replication_increment_is_left_point():
    """The kernel holds sqrt(k/P) at the step's left point, and drains at it too."""
    p1, hedge, drain = one_step(4.0, 10000.0, z=2.5)
    assert p1 > 4.1
    assert hedge == pytest.approx(50.0 * (p1 - 4.0), rel=1e-15)
    assert drain == pytest.approx(instantaneous_lvr(4.0, 0.2, 10000.0) * 0.01, rel=1e-15)


def test_experiment_identity_tightens_with_dt():
    """Mean |ARB - LVR| shrinks roughly like sqrt(dt) on a small ladder."""
    cfg = default_config(lvr_paths=400)
    coarse = run_lvr_experiment(cfg, dt=0.01)
    fine = run_lvr_experiment(cfg, dt=0.001)
    assert fine.mean_abs_residual < coarse.mean_abs_residual
    assert coarse.mean_abs_residual / fine.mean_abs_residual > 1.5


def test_experiment_seeded_reproducibility():
    a = run_lvr_experiment(default_config(lvr_paths=64, seed=42), dt=0.01)
    b = run_lvr_experiment(default_config(lvr_paths=64, seed=42), dt=0.01)
    c = run_lvr_experiment(default_config(lvr_paths=64, seed=43), dt=0.01)
    np.testing.assert_array_equal(a.terminal_arb, b.terminal_arb)
    assert not np.array_equal(a.terminal_arb, c.terminal_arb)


def test_experiment_path_count_independent_of_chunking():
    """Per-path seeding makes results independent of the batch layout."""
    full = run_lvr_experiment(default_config(lvr_paths=10, seed=5), dt=0.01)
    head = run_lvr_experiment(default_config(lvr_paths=3, seed=5), dt=0.01)
    np.testing.assert_array_equal(full.terminal_arb[:3], head.terminal_arb)


def scalar_replay(seed, index, n_steps, p0, sigma, dt, k):
    """Terminal (price, hedge gain, drain) of one stream from a plain ``math``
    loop over its draws."""
    z = np.random.default_rng(np.random.SeedSequence((seed, index))).standard_normal(n_steps)
    p, hedge, drain = p0, 0.0, 0.0
    for zt in z.tolist():
        drain += sigma * sigma * math.sqrt(k * p) / 4.0 * dt
        p_next = p * math.exp(-0.5 * sigma * sigma * dt + sigma * math.sqrt(dt) * zt)
        hedge += math.sqrt(k / p) * (p_next - p)
        p = p_next
    return p, hedge, drain


@pytest.mark.parametrize(
    "n_steps, n_paths",
    [
        (2 * _BLOCK + 7, _TILE + 3),  # several blocks, last one short; two tiles
        (_BLOCK // 3, 5),  # one block shorter than _BLOCK
        (_BLOCK + 1, 2),  # the fewest paths the config allows
    ],
)
def test_kernel_matches_scalar_replay(n_steps, n_paths):
    """Terminals of every path equal a per-stream scalar loop.

    The kernel steps all paths over blocks of shared rows; the replay draws
    each stream in one call and steps it alone, with sqrt(k/P) as the hedge.
    The price is compared through the pool value 2*sqrt(k*P), and ARB_T is
    the replay's V(P_0) + hedge - V(P_T). Tolerance: a few roundings of the
    pool value per step, over n_steps steps (seen: at most 0.04 of that).
    """
    seed, sigma = 77, 0.3
    cfg = default_config(lvr_paths=n_paths, external_sigma=sigma, seed=seed)
    dt = cfg.grid_horizon / n_steps
    k = cfg.pool_x0 * cfg.pool_y0
    p0 = cfg.pool_y0 / cfg.pool_x0
    (state,) = ladder_terminals(cfg, (dt,))
    acct = run_lvr_experiment(cfg, dt, state)
    assert state.shape == (3, n_paths) and len(acct.terminal_arb) == n_paths
    np.testing.assert_array_equal(acct.terminal_lvr, state[2])
    tol = dict(rtol=0, atol=4 * np.finfo(float).eps * n_steps * 2.0 * math.sqrt(k * p0))
    for i in range(n_paths):
        p, hedge, drain = scalar_replay(seed, i, n_steps, p0, sigma, dt, k)
        v = 2.0 * math.sqrt(k * p)
        np.testing.assert_allclose(2.0 * math.sqrt(k * state[0, i]), v, **tol)
        np.testing.assert_allclose(state[1, i], hedge, **tol)
        np.testing.assert_allclose(state[2, i], drain, **tol)
        np.testing.assert_allclose(acct.terminal_arb[i], 2.0 * math.sqrt(k * p0) + hedge - v,
                                   **tol)


def test_experiment_rejects_bad_arguments():
    """A step size must cut the horizon into whole steps, as lvr.dt_values must."""
    cfg = default_config(lvr_paths=2)
    for dt in (-0.1, 0.0, 5.0, 0.3):
        with pytest.raises(InvalidParameter, match="dt = "):
            run_lvr_experiment(cfg, dt=dt)


def allocating_lvr_paths(z, state, sigma, dt, k):
    """The path kernel as plain expressions, each step allocating its temporaries."""
    drift = (-0.5 * sigma * sigma) * dt
    vol = sigma * np.sqrt(dt)
    p, hedge, drain = state
    for zt in z:
        root = np.sqrt(k * p)
        drain += kernels._drain_rate(root, sigma) * dt
        p_next = p * np.exp(drift + vol * zt)
        hedge += (root / p) * (p_next - p)
        p = p_next
    state[0] = p


@pytest.mark.parametrize(
    "n_steps, n_paths, sigma, dt",
    [
        (1, 1, 0.2, 0.01),
        (0, 4, 0.2, 0.01),  # an empty block leaves the state as it is
        (37, 3, 0.9, 0.05),
        (_BLOCK, _TILE + 3, 0.3, 1e-4),
    ],
)
def test_kernel_matches_allocating_loop(n_steps, n_paths, sigma, dt):
    """The buffered kernel equals the plain loop bit for bit, with the state
    carried over several calls, and leaves its noise untouched."""
    rng = np.random.default_rng(1000 * n_steps + n_paths)
    k = 31415.0
    state = np.zeros((3, n_paths))
    state[0] = rng.uniform(0.5, 2.0, n_paths)
    expected = state.copy()
    for _ in range(4):
        # a leading slice of a larger buffer, as the experiment passes its last block
        z = rng.standard_normal((n_steps + 5, n_paths))[:n_steps]
        drawn = z.copy()
        kernels.lvr_paths(z, state, sigma, dt, k)
        np.testing.assert_array_equal(z, drawn)
        allocating_lvr_paths(z, expected, sigma, dt, k)
        np.testing.assert_array_equal(state, expected)
    assert n_steps == 0 or np.all(state[2] > 0.0)


@pytest.mark.parametrize("seed", [0, 1, 12345, 2**32 - 1, 2**32, 2**64 + 3, 2**100 + 7])
def test_opening_words_match_seed_sequence(seed):
    """Every stream's words are numpy's, for keys of one to three parts led
    by seeds of one to four 32-bit words (past four words of entropy, the
    entropy outgrows the pool), and for keys led by a 64-bit pilot seed, at
    the first indices and the last of the default lvr.paths."""
    n = default_config().lvr_paths
    indices = np.array([0, 1, n - 1])
    pilot = int(np.random.SeedSequence((seed, 0, 64)).generate_state(1, np.uint64)[0])
    for key in ((seed,), (seed, 0), (seed, 2, 64), (pilot, 2), (pilot, 1), (2**64 - 1, 3)):
        expected = [np.random.SeedSequence((*key, int(i))).generate_state(4, np.uint64)
                    for i in indices]
        np.testing.assert_array_equal(opening_words(key, indices), expected)


def test_terminals_independent_of_group_size(monkeypatch):
    """Groups of 3 over 8 paths, the last group short, give the terminals of
    one group of all 8, bit for bit."""
    cfg = default_config(lvr_paths=8, seed=21)
    (whole_state,) = ladder_terminals(cfg, (0.01,))
    whole = run_lvr_experiment(cfg, 0.01)
    monkeypatch.setattr(lvr, "_GROUP", 3)
    (grouped_state,) = ladder_terminals(cfg, (0.01,))
    grouped = run_lvr_experiment(cfg, 0.01)
    np.testing.assert_array_equal(grouped_state, whole_state)
    for name in TERMINALS:
        np.testing.assert_array_equal(getattr(grouped, name), getattr(whole, name))


TERMINALS = ("terminal_arb", "terminal_lvr")


def run_alone(cfg, dt_values):
    """Each step size's (ladder state, account), run as a one-level ladder."""
    return [(ladder_terminals(cfg, (dt,))[0], run_lvr_experiment(cfg, dt)) for dt in dt_values]


def assert_levels_equal(cfg, dt_values, terminals, alone):
    for dt, terminal, (state, acct) in zip(dt_values, terminals, alone, strict=True):
        np.testing.assert_array_equal(terminal, state)
        level = run_lvr_experiment(cfg, dt, terminal)
        for name in TERMINALS:
            np.testing.assert_array_equal(getattr(level, name), getattr(acct, name))


@pytest.mark.parametrize("dt_values", [
    (0.01, 0.001, 0.0002),  # nested step counts, the last over several blocks
    (0.0002, 0.001, 0.01),  # the same ladder reversed
    (0.01, 0.005, 0.002),  # 100, 200 and 500 steps: levels that end mid-block
])
def test_ladder_levels_equal_runs_alone(dt_values):
    """Each level of one pass over the streams equals that step size run
    alone, bit for bit, in the order the ladder lists them."""
    cfg = default_config(lvr_paths=5, seed=11, lvr_dt_values=dt_values)
    alone = run_alone(cfg, dt_values)
    assert_levels_equal(cfg, dt_values, ladder_terminals(cfg, dt_values), alone)


def test_ladder_seeds_each_path_once_in_short_groups(monkeypatch):
    """Groups of 3 over 8 paths, the last short: one generator per path for
    the whole ladder, and every level still equals its run alone."""
    cfg = default_config(lvr_paths=8, seed=21)
    dt_values = (0.01, 0.005, 0.002)
    alone = run_alone(cfg, dt_values)
    built = []
    generators = streams.generators
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # one share, no fork
    monkeypatch.setattr(lvr, "_GROUP", 3)
    monkeypatch.setattr(streams, "generators", lambda key, indices:
                        built.append(len(indices)) or generators(key, indices))
    terminals = ladder_terminals(cfg, dt_values)
    assert built == [3, 3, 2]
    assert_levels_equal(cfg, dt_values, terminals, alone)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


@pytest.mark.parametrize("n_paths, dt_values, widths", [
    # 203 paths cut unevenly: this process steps the first 203, 101 or 67
    (203, (0.01, 0.005), {1: 203, 2: 101, 3: 67}),
    # fewer paths than CPUs: one share per path
    (2, (0.01, 0.002), {1: 2, 2: 1, 3: 1}),
])
def test_terminals_byte_identical_for_any_share_count(monkeypatch, n_paths, dt_values, widths):
    """One, two and three shares give the same bytes; this process steps only
    its own share's paths, and no child outlives the call."""
    cfg = default_config(lvr_paths=n_paths, seed=13, lvr_dt_values=dt_values)
    parent = os.getpid()
    kernel = kernels.lvr_paths
    stepped = set()

    def recording(z, state, sigma, dt, k):
        if os.getpid() == parent:
            stepped.add(state.shape[1])
        kernel(z, state, sigma, dt, k)

    monkeypatch.setattr(kernels, "lvr_paths", recording)
    results = {}
    for count, width in widths.items():
        cpus(monkeypatch, count)
        stepped.clear()
        results[count] = [level.tobytes() for level in ladder_terminals(cfg, dt_values)]
        assert stepped == {width}
        assert_no_child_left()
    assert results[2] == results[1] and results[3] == results[1]


def test_a_failed_share_raises_share_failed(monkeypatch, capfd):
    """A child whose kernel raises ends with status 1 after printing its
    traceback; the call names the first failed share's paths."""
    cfg = default_config(lvr_paths=203, seed=13)
    parent = os.getpid()
    kernel = kernels.lvr_paths

    def failing_in_children(z, state, sigma, dt, k):
        if os.getpid() != parent:
            raise FloatingPointError("kernel fault in a child")
        kernel(z, state, sigma, dt, k)

    cpus(monkeypatch, 3)
    monkeypatch.setattr(kernels, "lvr_paths", failing_in_children)
    with pytest.raises(ShareFailed, match=r"paths 67\.\.134 \(share 1 of 3\).*status 1"):
        ladder_terminals(cfg, (0.01,))
    assert_no_child_left()
    assert capfd.readouterr().err.count("FloatingPointError: kernel fault in a child") == 2


def test_a_failure_in_the_first_share_kills_and_reaps_the_children(monkeypatch):
    """The children stall; this process's own share raises. The call raises
    that error at once, with every child killed and reaped."""
    cfg = default_config(lvr_paths=203, seed=13)
    parent = os.getpid()

    def stalling(z, state, sigma, dt, k):
        if os.getpid() != parent:
            time.sleep(60)
        raise FloatingPointError("kernel fault in the first share")

    cpus(monkeypatch, 3)
    monkeypatch.setattr(kernels, "lvr_paths", stalling)
    start = time.monotonic()
    with pytest.raises(FloatingPointError, match="first share"):
        ladder_terminals(cfg, (0.01,))
    assert time.monotonic() - start < 30
    assert_no_child_left()
