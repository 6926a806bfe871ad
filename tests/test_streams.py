"""Every random stream the package draws is numpy's.

Each stream is opened by ``streams`` from opening words it computes itself;
the tests below hold every kind of stream, at the site that draws it, to
``np.random.default_rng(np.random.SeedSequence(...))`` on the same entropy.
"""

import numpy as np
import pytest

from ammgame import harness, streams
from ammgame.cli import main
from ammgame.config import default_config
from ammgame.engine import TimeGrid, initial_trader_states, make_noise
from ammgame.errors import InvalidParameter
from ammgame.solver import solve_mfg, trader_layer


def numpy_normals(entropy, n):
    return np.random.default_rng(np.random.SeedSequence(entropy)).standard_normal(n)


def test_normals_are_each_streams_first_draws():
    key = (2**40 + 9, 2, 5)
    np.testing.assert_array_equal(
        streams.normals(key, 3, 7), [numpy_normals((*key, i), 7) for i in range(3)]
    )
    assert streams.normals(key, 0, 7).shape == (0, 7)
    assert streams.normals(key, 2, 0).shape == (2, 0)


def test_short_entropy_pads_with_zero_words():
    """As SeedSequence pads entropy to four words with zeros, stream i of
    (seed, j) is stream 0 of (seed, j, i) and stream j of (seed,) is stream 0
    of (seed, j)."""
    np.testing.assert_array_equal(streams.opening_words((31, 2), [5]),
                                  streams.opening_words((31, 2, 5), [0]))
    np.testing.assert_array_equal(streams.opening_words((31,), [4]),
                                  streams.opening_words((31, 4), [0]))
    np.testing.assert_array_equal(streams.normals((31, 2), 6, 3)[5],
                                  numpy_normals((31, 2, 5, 0), 3))


def test_negative_seed_is_refused():
    """SeedSequence refuses a negative entropy word; a negative seed raises
    ``InvalidParameter`` naming it before any stream opens, at the noise
    bundle and at the Nash ladder alike."""
    with pytest.raises(InvalidParameter, match="negative part -1"):
        make_noise(-1, TimeGrid(1.0, 12), 4)
    cfg = default_config(grid_steps=10, grid_x_points=41, grid_control_points=5,
                         harness_n_values=(2, 3), harness_replications=2)
    with pytest.raises(InvalidParameter, match="negative part -7"):
        harness.convergence_study(cfg, seed=-7)


def test_make_noise_streams_match_numpy():
    """Kind 0 is the common noise, kind 1 the LP's three legs and kind 2 the
    traders', at a config seed and at a 64-bit pilot seed."""
    grid = TimeGrid(1.0, 12)
    root = np.sqrt(grid.dt)
    for seed in (31, 2**64 - 5):
        noise = make_noise(seed, grid, 4)
        np.testing.assert_array_equal(noise.common, numpy_normals((seed, 0, 0), 12) * root)
        np.testing.assert_array_equal(
            noise.lp, np.stack([numpy_normals((seed, 1, j), 12) for j in range(3)]) * root
        )
        np.testing.assert_array_equal(
            noise.idiosyncratic,
            np.stack([numpy_normals((seed, 2, i), 12) for i in range(4)]) * root,
        )


def test_initial_trader_states_stream_matches_numpy():
    cfg = default_config(trader_init_law="gaussian", trader_init_mean=0.1, trader_init_sd=0.2)
    np.testing.assert_array_equal(
        initial_trader_states(cfg, 6, 77), 0.1 + 0.2 * numpy_normals((77, 3, 0), 6)
    )


def test_harness_streams_match_numpy(monkeypatch):
    """The pilot runs on the noise of the first word SeedSequence((seed, 0, N))
    generates, and replication r redraws player 0 from (seed, 2, N, r)."""
    cfg = default_config(grid_steps=10, grid_x_points=41, grid_control_points=5,
                         harness_n_values=(8, 3), harness_replications=3)
    seen = {}

    def pilot_noise(seed, grid, n):
        seen.setdefault("pilot", []).append(seed)
        return make_noise(seed, grid, n)

    def paired_gaps(config, policy, groups):
        seen["own"] = [own for *_, own in groups]
        return paired(config, policy, groups)

    paired = harness._paired_gaps
    monkeypatch.setattr(harness, "make_noise", pilot_noise)
    monkeypatch.setattr(harness, "_paired_gaps", paired_gaps)
    seed = 2**33 + 1
    harness.epsilon_nash_gap(cfg, solve_mfg(cfg), seed)
    assert len(seen["pilot"]) == len(seen["own"]) == 2
    for n, pilot, own_seen in zip((8, 3), seen["pilot"], seen["own"]):
        words = np.random.SeedSequence((seed, 0, n)).generate_state(1, np.uint64)
        assert pilot == int(words[0])
        own = np.stack([numpy_normals((seed, 2, n, r), cfg.grid_steps) for r in range(3)])
        np.testing.assert_array_equal(own_seen, own * np.sqrt(trader_layer(cfg).grid.dt))


def test_arb_check_stream_matches_numpy(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("seed = 31\n")
    out = tmp_path / "out"
    assert main(["arb-check", "--config", str(cfg_file), "--out", str(out),
                 "--override", "arb.draws=4"]) == 0
    rows = [line.split(",") for line in (out / "arb_check.csv").read_text().splitlines()[4:]]
    rng = np.random.default_rng(np.random.SeedSequence((31, 777)))
    for row in rows:
        r_alpha, r_beta = rng.uniform(10.0, 1000.0), rng.uniform(10.0, 1000.0)
        m_p = (r_beta / r_alpha) * rng.uniform(0.5, 2.0)
        assert [float(v) for v in row[1:4]] == [r_alpha, r_beta, m_p]
