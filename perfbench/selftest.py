"""Self-test of the benchmark, in seconds.

Runs every workload once untraced and once traced at the sizes of ammgame's
byte-determinism acceptance test (criterion 10), requires its checks to pass,
then corrupts each workload's output and requires its check to reject it: a
perturbed LP cost, a Nash gap pushed below -3 SE, and a shifted terminal ARB
value of one LVR path. Exits 0 when all of that holds.

    python3 perfbench/selftest.py
"""

import json
import math
import sys

from paths import OUT, ROOT
from run import Runner, import_ammgame, per_layer  # pins BLAS before numpy loads

import numpy as np
from tracing import Tracer
from workloads import WORKLOADS, CheckFailed, read_csv

FAST = ["grid.steps=10", "grid.x_points=41", "grid.control_points=5", "engine.traders=16"]
SMALL = {
    "lp_search": FAST + ["lp.segments=2", "solver.budget=20", "solver.step_tol=0.5"],
    "nash_ladder": FAST + ["harness.n_values=4,8", "harness.replications=4"],
    "lvr_mc": ["lvr.paths=200", "lvr.dt_values=0.01,0.005"],
}
SEED = 3
# layers that must show calls in a traced run of each workload
MUST_RUN = {
    "lp_search": ("kernels.dp_backward", "kernels.push_forward", "solver.lp_objective",
                  "solver.wasserstein_grid", "lvr.instantaneous_lvr"),
    "nash_ladder": ("engine.simulate", "harness.epsilon_nash_gap", "kernels.dp_backward",
                    "lvr.instantaneous_lvr"),
    "lvr_mc": ("kernels.lvr_paths",),
}


def corrupt_lp_cost(runner):
    """Move the returned cost (and the summary with it) off the trace minimum."""
    (sol,) = runner.captured
    sol.lp_objective = sol.lp_objective * (1.0 + 1e-9) + 1e-12
    path = runner.art_dir / "summary.json"
    summary = json.loads(path.read_text())
    summary["objective"] = sol.lp_objective
    path.write_text(json.dumps(summary))
    return "trace minimum"


def corrupt_nash_gap(runner):
    """Give the first N paired gaps a mean of -4 SE, consistently everywhere.

    At these sizes the deviation often equals the policy and every paired
    gap is 0, so the gaps are replaced, not shifted: a mean of -4c with
    alternating +-c*sqrt(r-1) around it has a standard error of exactly c.
    """
    (report,) = runner.captured
    est = report.estimates[0]
    r = len(est.paired_gaps)
    c = max(float(report.stderrs[0]), 1e-6)
    alternating = np.where(np.arange(r) % 2 == 0, 1.0, -1.0)
    est.paired_gaps[:] = -4.0 * c + alternating * c * math.sqrt(r - 1)
    report.gaps[0] = float(est.paired_gaps.mean())
    report.stderrs[0] = float(est.paired_gaps.std(ddof=1) / math.sqrt(r))
    path = runner.art_dir / "nash_report.csv"
    header = [line for line in path.read_text().splitlines(keepends=True) if line.startswith("#")]
    rows = read_csv(path)
    rows[0]["gap"] = "%.17g" % report.gaps[0]
    rows[0]["stderr"] = "%.17g" % report.stderrs[0]
    lines = header + [",".join(rows[0].keys()) + "\n"]
    lines += [",".join(row.values()) + "\n" for row in rows]
    path.write_text("".join(lines))
    return "-3 SE"


def corrupt_lvr_terminal(runner):
    """Shift the terminal ARB of path 0 at the first dt by one part in 1e8."""
    acct = runner.captured[0]
    acct.terminal_arb[0] += 1e-8 * abs(acct.terminal_arb[0])
    return "ARB"


CORRUPT = {
    "lp_search": corrupt_lp_cost,
    "nash_ladder": corrupt_nash_gap,
    "lvr_mc": corrupt_lvr_terminal,
}


def selftest(ammgame, name):
    workload = WORKLOADS[name]
    runner = Runner(ammgame, workload, SEED, OUT / "selftest" / name, SMALL[name])
    (record,) = runner.operations(0.0)
    assert record["exit_code"] == 0 and record["check"] == "ok", (name, record)
    assert math.isfinite(record["scaled_s"]) and record["scaled_s"] > 0, (name, record)

    tracer = Tracer(ammgame)
    records = runner.operations(0.0, tracer) + runner.operations(0.0, tracer)
    assert all(r["check"] == "ok" for r in records), (name, records)
    metrics, _per_op, counts_repeat = per_layer(tracer)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted(metrics) == sorted(m["name"] for m in declared), f"{name}: per-layer names"
    assert counts_repeat, f"{name}: per-layer counts differ between identical operations"
    for layer in MUST_RUN[name]:
        assert metrics[layer + ".calls"]["value"] > 0, (name, layer)
    assert all(math.isfinite(m["value"]) for m in metrics.values()), (name, metrics)

    expected = CORRUPT[name](runner)
    try:
        workload.check(ammgame, runner.cfg, runner.art_dir, runner.captured)
    except CheckFailed as exc:
        assert expected in str(exc), f"{name}: rejected for another reason: {exc}"
    else:
        raise AssertionError(f"{name}: corrupted output passed its check")
    print(f"selftest {name}: checks pass on real output and reject corrupted output "
          f"({expected})")


def main():
    ammgame = import_ammgame()
    for name in WORKLOADS:
        selftest(ammgame, name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
