"""Benchmark for ammgame: LP search, Nash ladder and LVR Monte Carlo.

    python3 perfbench/run.py --workload {lp_search,nash_ladder,lvr_mc} \\
        --seed N --seconds S --trace {0,1}

A run repeats one whole ammgame CLI operation (default config) until ``S``
seconds have passed, checks every operation's output, and prints one JSON
line last:

* ``--trace 0``: ``run_s`` (median operation time, scaled to the reference
  host, see ``hostspeed.py``), ``setup_s`` (cold starts of
  ``setup_probe.py``, timed before the operations) and ``peak_rss_mb``;
* ``--trace 1``: the per-layer metrics of ``tracing.py``, from spans around
  every public function of the traced modules.

A record of every run (raw wall seconds next to the scaled ones) goes to
``perfbench/out/records/``, the spans of traced runs to
``perfbench/out/spans/``. See README.md.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

from paths import HERE, OUT, SRC, use_single_thread_blas

use_single_thread_blas()  # before anything imports numpy

from hostspeed import NOMINAL_START_S, REFERENCE_START, HostSpeed  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 11


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def import_ammgame():
    """Import ammgame from this checkout's sources, never from elsewhere."""
    if not (SRC / "ammgame" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no ammgame sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ammgame
    import ammgame.cli  # noqa: F401  (the package does not import its CLI)

    if not os.path.realpath(ammgame.__file__).startswith(str(SRC)):
        raise SystemExit(f"benchmark: ammgame imported from {ammgame.__file__}, not {SRC}")
    return ammgame


class Runner:
    """Runs, times and checks one workload's operations in this process."""

    def __init__(self, ammgame, workload, seed, work_dir, overrides=()):
        self.ammgame = ammgame
        self.workload = workload
        self.seed = workload.program_seed(seed)
        self.overrides = list(overrides)
        self.captured = []  # what the last operation's library call returned
        work_dir.mkdir(parents=True, exist_ok=True)
        self.cfg_path = work_dir / "run.cfg"
        self.cfg_path.write_text("# default configuration; the seed is passed with --seed\n")
        self.art_dir = work_dir / "artifacts"
        self.hostspeed = HostSpeed()
        self.cfg = ammgame.config.load_config(
            self.cfg_path, self.overrides + [f"seed={self.seed}"]
        )

    def argv(self):
        extra = [x for kv in self.overrides for x in ("--override", kv)]
        return [
            self.workload.subcommand, "--config", str(self.cfg_path),
            "--out", str(self.art_dir), "--seed", str(self.seed), *extra,
        ]

    def setup(self, count):
        """Time ``count`` cold starts of set-up in child processes.

        Each is paired with a cold start of the reference interpreter (see
        ``hostspeed.py``); set-up time is the median set-up start scaled by
        the median reference start.
        """
        setup_cmd = [sys.executable, str(HERE / "setup_probe.py"), str(self.cfg_path),
                     str(self.seed)]
        reference_cmd = [sys.executable, *REFERENCE_START]
        raw, reference = [], []
        for _ in range(count):
            for cmd, times in ((reference_cmd, reference), (setup_cmd, raw)):
                t0 = time.perf_counter()
                proc = subprocess.run(cmd, check=False)
                times.append(time.perf_counter() - t0)
                if proc.returncode != 0:
                    raise RuntimeError(f"{cmd[1]} exited {proc.returncode}")
        setup_s = statistics.median(raw) * NOMINAL_START_S / statistics.median(reference)
        return {"setup_s": setup_s, "raw_s": raw, "reference_s": reference}

    def operation(self, tracer=None):
        """One CLI run: returns the record of its timing, exit code and check."""
        cli = self.ammgame.cli
        captured = self.captured = []
        if tracer is not None:
            tracer.begin_op()
            tracer.install()
        target = getattr(cli, self.workload.capture)

        def capture(*args, **kwargs):
            result = target(*args, **kwargs)
            captured.append(result)
            return result

        setattr(cli, self.workload.capture, capture)
        argv = self.argv()
        try:
            timing = self.hostspeed.timed(lambda: cli.main(argv))
        finally:
            setattr(cli, self.workload.capture, target)
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            tracer.add_slices(timing.slices)
        record = {"exit_code": timing.result, "raw_s": timing.raw_s, "net_s": timing.net_s,
                  "scaled_s": timing.scaled_s, "slice_s": timing.slice_s,
                  "slices_s": [d for _, d in timing.slices], "check": None}
        if timing.result == 0:
            try:
                self.workload.check(self.ammgame, self.cfg, self.art_dir, captured)
                record["check"] = "ok"
            except Exception as exc:  # any failure of a check marks the run incorrect
                record["check"] = f"{type(exc).__name__}: {exc}"
        return record

    def operations(self, seconds, tracer=None):
        records = []
        start = time.perf_counter()
        while True:
            records.append(self.operation(tracer))
            if time.perf_counter() - start >= seconds:
                return records


def per_layer(tracer):
    """Median per-layer metrics over the traced operations, and whether counts repeat."""
    per_op = [
        layer_metrics(layers, counters)
        for layers, counters in zip(tracer.per_op_layers(), tracer.counters)
    ]
    metrics = {}
    for name, (_, unit) in per_op[0].items():
        metrics[name] = {"value": statistics.median(m[name][0] for m in per_op), "unit": unit}
    counts_repeat = all(
        len({m[name][0] for m in per_op}) == 1
        for name, (_, unit) in per_op[0].items()
        if unit == "count"
    )
    return metrics, per_op, counts_repeat


def main(argv=None):
    args = parse_args(argv)
    ammgame = import_ammgame()
    runner = Runner(ammgame, WORKLOADS[args.workload], args.seed, OUT / args.workload)
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace}

    if args.trace:
        tracer = Tracer(ammgame)
        records = runner.operations(args.seconds, tracer)
        metrics, record["layers_per_op"], counts_repeat = per_layer(tracer)
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / "spans" / f"{stamp}.npz")
    else:
        record["setup"] = runner.setup(SETUP_SAMPLES)
        records = runner.operations(args.seconds)
        counts_repeat = True
        values = {
            "run_s": (statistics.median(r["scaled_s"] for r in records), "s"),
            "setup_s": (record["setup"]["setup_s"], "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}

    attempted = len(records)
    failed = sum(r["exit_code"] != 0 for r in records)
    correct = counts_repeat and all(r["check"] == "ok" for r in records if r["exit_code"] == 0)
    record.update({
        "correct": correct, "attempted": attempted, "failed": failed,
        "run_s": statistics.median(r["scaled_s"] for r in records),
        "raw_run_s": statistics.median(r["raw_s"] for r in records),
        "counts_repeat": counts_repeat, "metrics": metrics, "operations": records,
    })
    (OUT / "records").mkdir(parents=True, exist_ok=True)
    with open(OUT / "records" / f"{stamp}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for i, r in enumerate(records):
        print(f"op {i}: exit {r['exit_code']} check {r['check']} raw {r['raw_s']:.3f} s "
              f"scaled {r['scaled_s']:.3f} s slice {r['slice_s'] * 1e3:.3f} ms")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
