"""Command-line interface: exit codes, artifacts, byte-stable outputs."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ammgame import cli
from ammgame.cli import main
from ammgame.config import canonical_echo, config_hash, default_config, load_config
from ammgame.errors import ConfigError
from ammgame.lvr import run_lvr_experiment
from ammgame.solver import check_lp_segments, solve_major_minor

FAST = [
    "--override", "grid.steps=10",
    "--override", "grid.x_points=41",
    "--override", "grid.control_points=5",
    "--override", "engine.traders=16",
]


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("pool.tau = 0.003\nseed = 31\n")
    return path


def read_summary(out_dir):
    with open(out_dir / "summary.json") as fh:
        return json.load(fh)


def test_print_config_echo_and_idempotence(tmp_path, cfg_file, capsys):
    out = tmp_path / "out"
    assert main(["print-config", "--config", str(cfg_file), "--out", str(out)]) == 0
    echo = capsys.readouterr().out
    assert echo == canonical_echo(default_config(seed=31))
    # reloading the echo as a config reproduces it exactly
    echo_file = tmp_path / "echo.cfg"
    echo_file.write_text(echo)
    assert main(["print-config", "--config", str(echo_file)]) == 0
    assert capsys.readouterr().out == echo
    header = (out / "config_echo.txt").read_text().splitlines()
    assert header[0] == "# tool_version = 0.1.0"
    assert header[1].startswith("# config_hash = ")
    assert header[2] == "# seed = 31"


_finite = dict(allow_nan=False, allow_infinity=False)
# valid values per key; floats stay below 1e300 so the 2 * pool.y0 default of lp.z0 is finite
_VALID_OVERRIDES = {
    "pool.x0": st.floats(min_value=0.0, max_value=1e300, exclude_min=True, **_finite),
    "pool.y0": st.floats(min_value=0.0, max_value=1e300, exclude_min=True, **_finite),
    "pool.tau": st.floats(min_value=0.0, max_value=1.0, exclude_max=True, **_finite),
    "trader.sigma": st.floats(min_value=0.0, max_value=1e300, **_finite),
    "trader.init_mean": st.floats(min_value=-2.0, max_value=2.0, **_finite),
    "trader.init_law": st.sampled_from(["point", "gaussian"]),
    "trader.slippage": st.sampled_from(["true", "false"]),
    "lp.z0": st.floats(min_value=0.0, max_value=1e300, **_finite),
    "external.sigma": st.floats(min_value=0.0, max_value=1e300, **_finite),
    "model.flow_convention": st.sampled_from(["definition", "display"]),
    "grid.steps": st.integers(min_value=1, max_value=10**6),
    "solver.damping": st.floats(min_value=0.0, max_value=1.0, exclude_min=True, **_finite),
    "harness.n_values": st.lists(st.integers(min_value=1, max_value=512), min_size=2,
                                 max_size=5, unique=True).map(lambda v: ",".join(map(str, v))),
    # step sizes 1/n divide the default horizon of 1 into whole steps
    "lvr.dt_values": st.lists(st.integers(min_value=1, max_value=10**6).map(lambda n: 1.0 / n),
                              min_size=1, max_size=4).map(lambda v: ",".join(map(repr, v))),
    "seed": st.integers(min_value=0, max_value=2**63),
}


@settings(max_examples=60, deadline=None)
@given(st.fixed_dictionaries({}, optional=_VALID_OVERRIDES))
def test_print_config_output_loads_back(values):
    """print-config under random valid overrides echoes a config that reloads
    to the same SimConfig and the same hash."""
    overrides = [f"{key}={v if isinstance(v, str) else repr(v)}" for key, v in values.items()]
    with tempfile.TemporaryDirectory() as tmp:
        empty = Path(tmp) / "empty.cfg"
        empty.write_text("")
        expected = load_config(empty, overrides)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(["print-config", "--config", str(empty),
                         *[arg for item in overrides for arg in ("--override", item)]])
        assert code == 0
        echo = Path(tmp) / "echo.cfg"
        echo.write_text(stdout.getvalue())
        again = load_config(echo)
    assert again == expected
    assert config_hash(again) == config_hash(expected)
    assert canonical_echo(again) == stdout.getvalue()


def test_config_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("pool.tau = 1.5\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(bad), "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()
    empty = tmp_path / "empty.cfg"
    empty.write_text("")
    for key, raw, extra in [("lp.z0", "nan", []), ("lp.z0", "-1", []),
                            ("trader.a_max", "inf", []),
                            ("trader.a_min", "0.5", []),
                            ("trader.a_max", "-1e-9", []),
                            ("trader.init_mean", "5.0", []),
                            ("trader.init_mean", "60.0", ["trader.init_law=gaussian"]),
                            ("lvr.dt_values", "5", ["lvr.paths=10"]),
                            ("lvr.dt_values", "0.3", ["lvr.paths=10"]),
                            # from every node one atom jumps above the grid, the other below
                            ("grid.x_max", "0.001", ["grid.x_min=-0.001", "grid.x_points=3",
                                                     "grid.control_points=2"]),
                            # between two nodes, no node density survives
                            ("trader.init_sd", "1e-10", ["trader.init_law=gaussian",
                                                         "trader.init_mean=0.01"])]:
        overrides = [arg for item in [f"{key}={raw}", *extra] for arg in ("--override", item)]
        for sub in ("simulate", "solve-mfg", "lvr-check"):
            code = main([sub, "--config", str(empty), "--out", str(out), *overrides])
            assert code == 2
            err = capsys.readouterr().err
            assert "config error" in err and key in err
            assert not out.exists()
    # the slope fit needs two distinct population sizes and the residual's
    # stderr two paths: the config rejects fewer, naming the key
    for sub, key, raw in [("nash-test", "harness.n_values", "8"),
                          ("nash-test", "harness.n_values", "8,8"),
                          ("lvr-check", "lvr.paths", "1")]:
        code = main([sub, "--config", str(empty), "--out", str(out),
                     "--override", f"{key}={raw}"])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and key in err
        assert not out.exists()


def test_unknown_override_exits_2(tmp_path, cfg_file):
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(cfg_file), "--out", str(out),
                 "--override", "pool.feerate=1"])
    assert code == 2


def test_simulate_writes_trajectory_and_summary(tmp_path, cfg_file):
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(cfg_file), "--out", str(out), *FAST])
    assert code == 0
    summary = read_summary(out)
    assert set(summary) == {"status", "objective", "final_residual", "runtime_seconds"}
    assert summary["status"] == "ok"
    assert isinstance(summary["runtime_seconds"], float)
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0].startswith("# tool_version = ")
    assert lines[1] == f"# config_hash = {config_hash(default_config(seed=31, grid_steps=10, grid_x_points=41, grid_control_points=5, engine_traders=16))}"
    assert lines[2] == "# seed = 31"
    assert lines[3].startswith("t,price,x_adj,")
    assert len(lines) == 4 + 11  # header block + column row + steps+1 state rows
    assert lines[-1].split(",")[-1] == ""  # per-step fields blank on terminal row


def test_simulate_reruns_byte_identical(tmp_path, cfg_file):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["simulate", "--config", str(cfg_file), "--out", str(out), *FAST]) == 0
    assert (out_a / "trajectory.csv").read_bytes() == (out_b / "trajectory.csv").read_bytes()
    sa = read_summary(out_a)
    sb = read_summary(out_b)
    sa.pop("runtime_seconds"), sb.pop("runtime_seconds")
    assert sa == sb


def test_seed_flag_beats_config_and_overrides(tmp_path, cfg_file, capsys):
    assert main(["print-config", "--config", str(cfg_file),
                 "--override", "seed=100", "--seed", "7"]) == 0
    assert "seed = 7" in capsys.readouterr().out


def test_solve_mfg_residuals_and_summary(tmp_path, cfg_file):
    out = tmp_path / "out"
    code = main(["solve-mfg", "--config", str(cfg_file), "--out", str(out), *FAST])
    assert code == 0
    summary = read_summary(out)
    assert summary["status"] == "ok"
    assert summary["final_residual"] <= 1e-6
    lines = (out / "residuals.csv").read_text().splitlines()
    assert lines[3] == "iteration,residual"
    assert lines[4].startswith("1,")


def test_failed_solve_writes_summary_and_exits_1(tmp_path, cfg_file, capsys):
    out = tmp_path / "out"
    code = main(["solve-mfg", "--config", str(cfg_file), "--out", str(out), *FAST,
                 "--override", "solver.max_iter=1", "--override", "solver.tol=1e-30"])
    assert code == 1
    assert "failed" in capsys.readouterr().err
    summary = read_summary(out)
    assert summary["status"] == "failed"
    assert summary["objective"] is None
    assert summary["final_residual"] > 0  # last Picard residual from the history
    assert (out / "residuals.csv").exists() is False  # aborted before writing


def test_arb_check_small_draw_count(tmp_path, cfg_file):
    out = tmp_path / "out"
    code = main(["arb-check", "--config", str(cfg_file), "--out", str(out),
                 "--override", "arb.draws=50"])
    assert code == 0
    lines = (out / "arb_check.csv").read_text().splitlines()
    assert len(lines) == 4 + 50
    assert read_summary(out)["status"] == "ok"


def test_lvr_check_small(tmp_path, cfg_file, monkeypatch):
    """Two shares of the paths, one forked: the run leaves no child behind."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    out = tmp_path / "out"
    code = main(["lvr-check", "--config", str(cfg_file), "--out", str(out),
                 "--override", "lvr.paths=200", "--override", "lvr.dt_values=0.01,0.005"])
    assert code == 0
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    lines = (out / "residuals.csv").read_text().splitlines()
    assert lines[3] == "dt,n_paths,mean_abs_residual,mean_residual,stderr_residual"
    assert len(lines) == 4 + 2


def test_lvr_check_reduces_every_dt_through_run_lvr_experiment(tmp_path, monkeypatch):
    """The benchmark reads lvr-check's accounts by wrapping
    cli.run_lvr_experiment: it is called once per lvr.dt_values entry, in
    config order, and residuals.csv holds what plain per-dt runs give."""
    calls = []
    reduce = cli.run_lvr_experiment

    def recording(cfg, dt, *rest):
        calls.append((dt, reduce(cfg, dt, *rest)))
        return calls[-1][1]

    monkeypatch.setattr(cli, "run_lvr_experiment", recording)
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("seed = 3\n")
    overrides = ["lvr.paths=200", "lvr.dt_values=0.01,0.005"]
    out = tmp_path / "out"
    code = main(["lvr-check", "--config", str(cfg_file), "--out", str(out),
                 *[arg for item in overrides for arg in ("--override", item)]])
    assert code == 0
    cfg = load_config(cfg_file, overrides)
    assert [dt for dt, _ in calls] == list(cfg.lvr_dt_values)
    assert [acct.dt for _, acct in calls] == list(cfg.lvr_dt_values)
    alone = [run_lvr_experiment(cfg, dt) for dt in cfg.lvr_dt_values]
    expected = tmp_path / "expected.csv"
    cli._write_csv(expected, cfg, ["dt", "n_paths", "mean_abs_residual", "mean_residual",
                                   "stderr_residual"],
                   [(a.dt, a.n_paths, a.mean_abs_residual, a.mean_residual, a.stderr_residual)
                    for a in alone])
    assert (out / "residuals.csv").read_bytes() == expected.read_bytes()


def test_import_leaves_numpy_random_unloaded():
    """Importing the CLI loads no numpy.random: only the runs that draw pay
    for it, not every start (``print-config`` and bad-input exits included)."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, ammgame.cli; print('numpy.random' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout.split() == ["False"]


def test_nash_test_small(tmp_path, cfg_file):
    out = tmp_path / "out"
    code = main(["nash-test", "--config", str(cfg_file), "--out", str(out), *FAST,
                 "--override", "harness.n_values=4,8",
                 "--override", "harness.replications=4"])
    assert code == 0
    lines = (out / "nash_report.csv").read_text().splitlines()
    assert lines[3] == "n_players,gap,stderr,replications,clipped,z"
    assert len(lines) == 4 + 2
    for line in lines[4:]:
        gap, clipped = float(line.split(",")[1]), line.split(",")[4]
        assert clipped == ("true" if gap < 1e-12 else "false")


def test_nash_report_z_is_empty_where_every_paired_gap_is_zero(tmp_path):
    """At seed 1 all 100 paired gaps at N=32 are 0: its stderr is 0 and its z
    cell is empty. Every other N's z is its gap over its stderr."""
    empty = tmp_path / "empty.cfg"
    empty.write_text("")
    out = tmp_path / "out"
    assert main(["nash-test", "--config", str(empty), "--out", str(out), "--seed", "1"]) == 0
    rows = list(csv.DictReader((out / "nash_report.csv").read_text().splitlines()[3:]))
    assert [row["n_players"] for row in rows] == ["8", "16", "32", "64"]
    for row in rows:
        if row["n_players"] == "32":
            assert (row["gap"], row["stderr"], row["z"]) == ("0", "0", "")
        else:
            assert float(row["stderr"]) > 0
            assert row["z"] == "%.17g" % (float(row["gap"]) / float(row["stderr"]))


def test_search_over_segments_that_control_no_step_exits_2(tmp_path, cfg_file, capsys):
    """20 segments on 10 steps leave 10 that control no step: solve-major-minor
    exits 2 naming lp.segments before evaluating anything, while simulate
    runs on the same config."""
    out = tmp_path / "out"
    overrides = [*FAST, "--override", "lp.segments=20", "--override", "solver.budget=30"]
    code = main(["solve-major-minor", "--config", str(cfg_file), "--out", str(out), *overrides])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "lp.segments" in err and "grid.steps = 10" in err
    assert not out.exists()
    # the boundary: 10 segments on 10 steps each control one step
    check_lp_segments(load_config(cfg_file, ["lp.segments=10", "grid.steps=10"]))
    with pytest.raises(ConfigError, match="lp.segments"):
        solve_major_minor(load_config(cfg_file, ["lp.segments=11", "grid.steps=10"]))
    assert main(["simulate", "--config", str(cfg_file), "--out", str(out), *overrides]) == 0


def test_solve_major_minor_small(tmp_path, cfg_file):
    out = tmp_path / "out"
    code = main(["solve-major-minor", "--config", str(cfg_file), "--out", str(out), *FAST,
                 "--override", "lp.segments=1", "--override", "solver.budget=25",
                 "--override", "solver.step_tol=0.5"])
    assert code == 0
    trace = (out / "search_trace.csv").read_text().splitlines()
    assert trace[3] == "eval,step,objective,status,seg_0,maps,exact"
    for line in trace[4:]:
        maps, exact = line.split(",")[-2:]
        assert int(maps) >= 1 and exact in ("true", "false")
    assert (out / "residuals.csv").exists()
    assert read_summary(out)["status"] == "ok"


def test_budget_cut_search_fails_the_run(tmp_path, capsys):
    """At solver.budget=20 the default search stops at step 1, above
    solver.step_tol, and its own certificate beats what it returns: the run
    writes its trace, then fails naming solver.budget."""
    empty = tmp_path / "empty.cfg"
    empty.write_text("")
    out = tmp_path / "out"
    code = main(["solve-major-minor", "--config", str(empty), "--out", str(out),
                 "--override", "solver.budget=20"])
    assert code == 1
    err = capsys.readouterr().err
    assert "solver.budget = 20" in err and "solver.step_tol" in err
    summary = read_summary(out)
    assert summary["status"] == "failed" and summary["objective"] is None
    rows = [line.split(",") for line in (out / "search_trace.csv").read_text().splitlines()[4:]]
    searched = [float(row[2]) for row in rows[:20]]
    assert {row[1] for row in rows} == {"1"}
    assert min(float(row[2]) for row in rows[20:]) < min(searched)


def test_search_with_every_candidate_failed_writes_its_trace(tmp_path, cfg_file, capsys):
    """At solver.max_iter=1 no inner solve reaches a fixed point: the run
    fails, and its trace still shows every candidate it tried and how."""
    out = tmp_path / "out"
    code = main(["solve-major-minor", "--config", str(cfg_file), "--out", str(out), *FAST,
                 "--override", "lp.segments=1", "--override", "solver.max_iter=1"])
    assert code == 1
    assert "every inner solve failed" in capsys.readouterr().err
    assert read_summary(out)["status"] == "failed"
    trace = (out / "search_trace.csv").read_text().splitlines()
    assert trace[3] == "eval,step,objective,status,seg_0,maps,exact"
    rows = [line.split(",") for line in trace[4:]]
    assert rows and all(row[3] != "ok" and row[2] == "inf" for row in rows)


@pytest.mark.parametrize("objective, residual", [(float("nan"), 0.0), (1.0, float("inf"))])
def test_non_finite_result_fails_the_run(tmp_path, cfg_file, capsys, monkeypatch,
                                         objective, residual):
    """No summary says ok next to a number that is not finite."""
    monkeypatch.setitem(cli._RUNNERS, "solve-mfg", lambda cfg, out_dir: (objective, residual))
    out = tmp_path / "out"
    assert main(["solve-mfg", "--config", str(cfg_file), "--out", str(out)]) == 1
    assert "non-finite" in capsys.readouterr().err
    summary = read_summary(out)
    assert summary["status"] == "failed"
    assert summary["objective"] is None and summary["final_residual"] is None


def test_nan_csv_cell_fails_the_run(tmp_path, cfg_file, capsys, monkeypatch):
    """A NaN in a written CSV fails the run, naming its file, row and column;
    the CSV is still written."""
    solve = cli.solve_mfg

    def nan_residual(cfg):
        sol = solve(cfg)
        sol.residual_history[0] = float("nan")
        return sol

    monkeypatch.setattr(cli, "solve_mfg", nan_residual)
    out = tmp_path / "out"
    assert main(["solve-mfg", "--config", str(cfg_file), "--out", str(out), *FAST]) == 1
    assert ("non-finite cell in residuals.csv row 1, column residual: nan"
            in capsys.readouterr().err)
    assert read_summary(out)["status"] == "failed"
    lines = (out / "residuals.csv").read_text().splitlines()
    assert lines[3] == "iteration,residual" and lines[4] == "1,nan"


def test_failed_candidates_inf_objective_keeps_the_run_ok(tmp_path, cfg_file):
    """An inf objective on a row whose status is not ok is how a failed LP
    candidate scores: the run still succeeds."""
    out = tmp_path / "out"
    overrides = ["lp.segments=1", "pool.x0=8", "pool.y0=8", "lp.control_min=-5",
                 "lp.control_max=-2", "solver.max_iter=30"]
    code = main(["solve-major-minor", "--config", str(cfg_file), "--out", str(out), *FAST,
                 *(arg for o in overrides for arg in ("--override", o))])
    assert code == 0
    summary = read_summary(out)
    assert summary["status"] == "ok" and summary["objective"] == 569.0814994347733
    rows = [line.split(",") for line in (out / "search_trace.csv").read_text().splitlines()[4:]]
    failed = [row for row in rows if row[3] != "ok"]
    assert len(failed) == 5 and all(row[2] == "inf" for row in failed)
