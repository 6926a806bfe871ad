"""Command-line entry point: experiment orchestration with bit-exact outputs.

Subcommands: simulate, solve-mfg, solve-major-minor, arb-check, lvr-check,
nash-test (the keys of ``_RUNNERS``), and print-config. Every run loads a
config file, applies ``--override`` pairs and an optional ``--seed``, then
writes its artifacts under ``--out``. The directory is created, parents
included, before anything is written; a path that cannot be one (an existing
file, or a path under one) is a configuration error naming ``--out``.

Output discipline:
  * CSV files open with a comment header (tool version, config hash, seed),
    use LF line endings, and print floats with 17 significant digits, so a
    rerun with the same inputs reproduces the files byte for byte.
  * ``summary.json`` always carries exactly the keys ``status``,
    ``objective``, ``final_residual``, ``runtime_seconds``. The runtime field
    is wall-clock and is the one field that varies between identical reruns.

Exit codes: 0 success, 1 experiment failure (diagnostics still written; a
run whose objective or final residual is not finite counts as failed, and so
does a run that wrote a NaN into any CSV cell, or an infinity into any cell
other than the objective of a row whose status is not ``ok``), 2
configuration error.
"""

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .arbitrage import best_arbitrage, brute_force_arbitrage
from .config import canonical_echo, config_hash, format_value, load_config, time_grid
from .engine import simulate
from .errors import AmmGameError, ConfigError, NotConverged
from .harness import convergence_study
from .lvr import ladder_terminals, run_lvr_experiment
from .solver import check_lp_segments, solve_major_minor, solve_mfg
from .streams import generators


def _header_block(cfg):
    return (
        f"# tool_version = {__version__}\n"
        f"# config_hash = {config_hash(cfg)}\n"
        f"# seed = {cfg.seed}\n"
    )


def _write_csv(path, cfg, columns, rows):
    """Write one CSV artifact and return the first cell that fails the run, or
    None: a NaN anywhere, or an infinity anywhere but in the objective of a row
    whose status is not ok (a failed LP candidate scores inf). ``rows`` is read
    twice, so it is a sequence, not an iterator."""
    body = "\n".join(",".join(format_value(v) for v in row) for row in rows)
    text = _header_block(cfg) + ",".join(columns) + "\n" + (body + "\n" if body else "")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    status = columns.index("status") if "status" in columns else None
    for i, row in enumerate(rows, 1):
        for name, v in zip(columns, row):
            if (isinstance(v, (float, np.floating)) and not math.isfinite(v)
                    and (math.isnan(v) or name != "objective" or status is None
                         or row[status] == "ok")):
                return f"{path.name} row {i}, column {name}: {format_value(v)}"
    return None


def _write_summary(out_dir, status, objective, final_residual, runtime):
    payload = {
        "status": status,
        "objective": None if objective is None else float(objective),
        "final_residual": None if final_residual is None else float(final_residual),
        "runtime_seconds": float(runtime),
    }
    with open(out_dir / "summary.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _run_simulate(cfg, write):
    sol = solve_mfg(cfg)
    traj = simulate(cfg, sol.policy.as_policy(), sol.env.lp_control_path, cfg.seed)
    columns = [
        "t", "price", "x_adj", "y_adj", "delta", "reserve", "invariant",
        "lvr_cum", "lp_x", "lp_y", "lp_z", "lp_s", "mean_control", "lvr_rate",
    ]
    # per-step fields stay blank on the terminal row
    write("trajectory.csv", columns, list(zip(
        time_grid(cfg).times(), traj.price_path, traj.x_adj_path, traj.y_adj_path,
        traj.delta_path, traj.reserve_path, traj.invariant_path, traj.lvr_cum_path,
        traj.lp_x_path, traj.lp_y_path, traj.lp_z_path, traj.lp_s_path,
        [*traj.mean_control_path, ""], [*traj.lvr_rate_path, ""],
    )))
    return float(np.mean(traj.trader_objectives)), sol.certificate_residual


def _write_residuals(write, history):
    write("residuals.csv", ["iteration", "residual"], list(enumerate(history, 1)))


def _run_solve_mfg(cfg, write):
    sol = solve_mfg(cfg)
    _write_residuals(write, sol.residual_history)
    return sol.diagnostics["equilibrium_value"], sol.certificate_residual


def _write_search_trace(cfg, write, trace):
    seg_cols = [f"seg_{i}" for i in range(cfg.lp_segments)]
    columns = ["eval", "step", "objective", "status", *seg_cols, "maps", "exact"]
    write("search_trace.csv", columns, [
        (row["eval"], row["step"], row["objective"], row["status"], *row["segments"],
         row["maps"], row["exact"])
        for row in trace
    ])


def _run_solve_major_minor(cfg, write):
    try:
        sol = solve_major_minor(cfg)
    except NotConverged as exc:  # every candidate failed: its trace says how
        _write_search_trace(cfg, write, exc.search_trace)
        raise
    _write_search_trace(cfg, write, sol.search_trace)
    _write_residuals(write, sol.residual_history)
    if sol.diagnostics["stop_reason"] == "budget":
        raise NotConverged(
            f"solver.budget = {cfg.solver_budget} evaluations ran out before a full poll "
            f"at solver.step_tol = {cfg.solver_step_tol:g} found no improvement: the "
            f"returned control is not a certified local optimum",
            residual_history=[sol.certificate_residual],
        )
    return sol.lp_objective, sol.certificate_residual


def _run_arb_check(cfg, write):
    phi = 1.0 - cfg.pool_tau
    (rng,) = generators((cfg.seed,), [777])
    columns = [
        "draw", "r_alpha", "r_beta", "m_p", "direction",
        "profit_closed", "profit_oracle", "abs_discrepancy", "side_price_rel_err",
    ]
    rows = []
    worst_gap = 0.0
    worst_side = 0.0
    for i in range(cfg.arb_draws):
        r_alpha = rng.uniform(10.0, 1000.0)
        r_beta = rng.uniform(10.0, 1000.0)
        k = r_alpha * r_beta
        m_p = (r_beta / r_alpha) * rng.uniform(0.5, 2.0)
        sol = best_arbitrage(r_alpha, r_beta, k, m_p, phi)
        buy = brute_force_arbitrage(r_alpha, r_beta, k, m_p, phi)
        sell = brute_force_arbitrage(r_beta, r_alpha, k, 1.0 / m_p, phi)
        profit_oracle = max(0.0, buy.profit, sell.profit * m_p)
        gap = abs(sol.profit - profit_oracle) / (1.0 + abs(profit_oracle))
        side_err = 0.0
        if sol.direction == "buy_eth":
            spot_post = k / (r_alpha - sol.delta_alpha) ** 2
            side_err = abs(spot_post - phi * m_p) / (phi * m_p)
        elif sol.direction == "sell_eth":
            spot_post = (r_beta - sol.delta_beta) ** 2 / k
            side_err = abs(spot_post - m_p / phi) / (m_p / phi)
        worst_gap = max(worst_gap, gap)
        worst_side = max(worst_side, side_err)
        rows.append(
            (i, r_alpha, r_beta, m_p, sol.direction, sol.profit, profit_oracle, gap, side_err)
        )
    write("arb_check.csv", columns, rows)
    ok = worst_gap <= 1e-6 and worst_side <= 1e-8
    if not ok:
        raise NotConverged(
            f"arbitrage oracle disagreement: profit gap {worst_gap:.3e}, "
            f"side-price error {worst_side:.3e}",
            residual_history=[worst_gap],
        )
    return worst_gap, worst_side


def _run_lvr_check(cfg, write):
    columns = ["dt", "n_paths", "mean_abs_residual", "mean_residual", "stderr_residual"]
    rows = []
    accounts = []
    terminals = ladder_terminals(cfg, cfg.lvr_dt_values)
    for dt, terminal in zip(cfg.lvr_dt_values, terminals):
        acct = run_lvr_experiment(cfg, dt, terminal)
        accounts.append(acct)
        rows.append(
            (dt, acct.n_paths, acct.mean_abs_residual, acct.mean_residual, acct.stderr_residual)
        )
    write("residuals.csv", columns, rows)
    finest = min(accounts, key=lambda a: a.dt)
    z = abs(finest.mean_residual) / finest.stderr_residual if finest.stderr_residual else 0.0
    if z > 5.0:
        raise NotConverged(
            f"replication identity violated at dt={finest.dt:g}: "
            f"mean residual {finest.mean_residual:.3e} is {z:.1f} standard errors from 0",
            residual_history=[z],
        )
    return finest.mean_abs_residual, z


def _run_nash_test(cfg, write):
    report = convergence_study(cfg)
    columns = ["n_players", "gap", "stderr", "replications", "clipped", "z"]
    rows = [
        (e.n_players, e.gap, e.stderr, len(e.paired_gaps), bool(c),
         e.gap / e.stderr if e.stderr else "")  # every paired gap equal: no z
        for e, c in zip(report.estimates, report.clipped)
    ]
    write("nash_report.csv", columns, rows)
    floor = report.gaps + 3.0 * report.stderrs
    if np.any(floor < 0.0):
        worst = int(np.argmin(floor))
        raise NotConverged(
            f"deviation gain significantly negative at N={report.n_values[worst]}: "
            f"gap {report.gaps[worst]:.3e} with stderr {report.stderrs[worst]:.3e}",
            residual_history=[float(-floor[worst])],
        )
    return report.slope, float(report.gaps[-1])


# A runner takes the config and ``write(name, columns, rows)``, ``main``'s
# per-run writer of one CSV artifact, and returns the run's objective and
# final residual.
_RUNNERS = {
    "simulate": _run_simulate,
    "solve-mfg": _run_solve_mfg,
    "solve-major-minor": _run_solve_major_minor,
    "arb-check": _run_arb_check,
    "lvr-check": _run_lvr_check,
    "nash-test": _run_nash_test,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ammgame",
        description="Constant-product market game: simulation, equilibria, diagnostics.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in (*_RUNNERS, "print-config"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a key=value config file")
        p.add_argument(
            "--out",
            required=(name != "print-config"),
            help="output directory (created if missing)",
        )
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument(
            "--override",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config entry (repeatable)",
        )
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    overrides = list(args.override)
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    try:
        cfg = load_config(args.config, overrides)
        if args.subcommand == "solve-major-minor":
            check_lp_segments(cfg)
        if args.out is not None:
            out_dir = Path(args.out)
            try:
                out_dir.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ConfigError("--out", f"cannot create directory {args.out}: {exc.strerror}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.subcommand == "print-config":
        echo = canonical_echo(cfg)
        sys.stdout.write(echo)
        if args.out:
            with open(out_dir / "config_echo.txt", "w", encoding="utf-8", newline="\n") as fh:
                fh.write(_header_block(cfg) + echo)
        return 0

    start = time.perf_counter()
    failing_cells = []

    def write(name, columns, rows):
        cell = _write_csv(out_dir / name, cfg, columns, rows)
        if cell:
            failing_cells.append(cell)

    def fail(reason, final_residual=None):
        _write_summary(out_dir, "failed", None, final_residual, time.perf_counter() - start)
        print(f"{args.subcommand} failed{reason}", file=sys.stderr)
        return 1

    try:
        objective, final_residual = _RUNNERS[args.subcommand](cfg, write)
    except AmmGameError as exc:
        history = exc.residual_history if isinstance(exc, NotConverged) else None
        return fail(f": {exc}", history[-1] if history else None)
    except Exception as exc:  # contract pins exit codes to {0, 1, 2}
        return fail(f" unexpectedly: {exc}")
    nonfinite = [
        name for name, value in (("objective", objective), ("final_residual", final_residual))
        if not math.isfinite(value)
    ]
    reasons = [f"non-finite {' and '.join(nonfinite)}"] if nonfinite else []
    reasons += [f"non-finite cell in {cell}" for cell in failing_cells]
    if reasons:
        return fail(f": {'; '.join(reasons)}")
    _write_summary(out_dir, "ok", objective, final_residual, time.perf_counter() - start)
    return 0


if __name__ == "__main__":
    sys.exit(main())
