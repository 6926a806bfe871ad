"""The three workloads and the checks that every operation's output must pass.

An operation is one ``ammgame`` CLI run, called in-process through
``cli.main``. While it runs, the library function the subcommand calls is
wrapped where ``cli`` looks it up, so the checks can read what it returned
as well as the artifacts the CLI wrote. No check compares against a stored
copy of earlier output: each one re-derives what it needs.
"""

import csv
import json
import math
from dataclasses import dataclass

import numpy as np


class CheckFailed(Exception):
    """An operation's output failed a correctness check."""


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _close(a, b, rel, floor=0.0):
    return abs(a - b) <= rel * abs(b) + floor


def read_csv(path):
    """Rows of an ammgame CSV artifact (comment header skipped) as dicts."""
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def read_summary(out_dir):
    with open(out_dir / "summary.json", encoding="utf-8") as fh:
        return json.load(fh)


def w1_on_grid(points, u, v):
    """W1 distance between two weight vectors on sorted support ``points``.

    Integrates |F_u - F_v| between consecutive support points; independent of
    ammgame's own residual code on purpose.
    """
    total = 0.0
    cu = cv = 0.0
    for i in range(len(points) - 1):
        cu += u[i]
        cv += v[i]
        total += abs(cu - cv) * (points[i + 1] - points[i])
    return total


def flow_residual(x_grid, atoms, a, b):
    """max_t W1(mu_t) + W1(q_t), and W1(mu_T), between two flows of measures."""
    steps = a.q.shape[0]
    worst = w1_on_grid(x_grid, a.mu[steps], b.mu[steps])
    for t in range(steps):
        r = w1_on_grid(atoms, a.q[t], b.q[t]) + w1_on_grid(x_grid, a.mu[t], b.mu[t])
        worst = max(worst, r)
    return worst


# ---------------------------------------------------------------------------
# lp_search: solve-major-minor
# ---------------------------------------------------------------------------


def check_lp_search(ammgame, cfg, out_dir, captured):
    (sol,) = captured
    solver = ammgame.solver
    cost = sol.lp_objective
    _require(math.isfinite(cost), f"LP cost {cost} is not finite")

    summary = read_summary(out_dir)
    _require(summary["status"] == "ok", f"summary status {summary['status']}")
    _require(summary["objective"] == cost, "summary objective differs from the returned cost")

    rows = read_csv(out_dir / "search_trace.csv")
    finite = [(float(r["objective"]), r) for r in rows if math.isfinite(float(r["objective"]))]
    _require(finite, "search trace has no finite objective")
    best, best_row = min(finite, key=lambda item: item[0])
    _require(best == cost, f"returned cost {cost!r} is not the trace minimum {best!r}")
    segs = [float(best_row[f"seg_{i}"]) for i in range(cfg.lp_segments)]
    _require(segs == list(sol.lp_segments), "returned segments differ from the trace minimum")

    neighbours = sol.diagnostics["neighbor_certificate"]
    _require(len(neighbours) == 2 * cfg.lp_segments, "certificate does not hold 2K neighbours")
    for nb in neighbours:
        if nb["feasible"]:
            _require(
                not nb["objective"] < cost,
                f"certificate neighbour {nb['segments']} scores {nb['objective']!r} < {cost!r}",
            )

    flows = sol.flows
    for name, law in (("mu", flows.mu), ("q", flows.q)):
        _require(np.all(law >= 0.0), f"negative mass in {name}")
        mass = law.sum(axis=1)
        _require(np.all(np.abs(mass - 1.0) <= 1e-9), f"{name} mass strays from 1: {mass}")

    steps = cfg.grid_steps
    path = solver.lp_path_from_segments(sol.lp_segments, steps)
    env = solver.forward_environment(cfg, path, flows.mean_controls())
    policy = solver.best_response(cfg, env)
    x_grid, atoms = solver.trader_grids(cfg)
    image = solver.induced_flows(cfg, policy, solver.initial_trader_law(cfg, x_grid))
    residual = flow_residual(list(x_grid), list(atoms), image, flows)
    _require(
        residual <= cfg.solver_tol,
        f"recomputed response-map residual {residual:.3e} exceeds tol {cfg.solver_tol:g}",
    )


# ---------------------------------------------------------------------------
# nash_ladder: nash-test
# ---------------------------------------------------------------------------


def check_nash_ladder(ammgame, cfg, out_dir, captured):
    (report,) = captured
    summary = read_summary(out_dir)
    _require(summary["status"] == "ok", f"summary status {summary['status']}")
    _require(math.isfinite(summary["objective"]), "summary objective is not finite")
    _require(math.isfinite(report.slope), "slope is not finite")
    _require(list(report.n_values) == list(cfg.harness_n_values), "population ladder differs")

    rows = read_csv(out_dir / "nash_report.csv")
    _require(len(rows) == len(report.estimates), "nash_report.csv row count differs")
    for est, row, gap, se in zip(report.estimates, rows, report.gaps, report.stderrs):
        n = est.n_players
        paired = [float(x) for x in est.paired_gaps]
        r = len(paired)
        _require(r == cfg.harness_replications, f"N={n}: {r} replications")
        _require(int(row["replications"]) == r, f"N={n}: CSV replication count differs")
        _require(all(math.isfinite(x) for x in paired), f"N={n}: non-finite objective gap")
        mean = math.fsum(paired) / r
        sd = math.sqrt(math.fsum((x - mean) ** 2 for x in paired) / (r - 1))
        own_se = sd / math.sqrt(r)
        for label, value in (("report", gap), ("CSV", float(row["gap"]))):
            _require(_close(value, mean, 1e-9, 1e-9 * own_se), f"N={n}: {label} gap differs")
        for label, value in (("report", se), ("CSV", float(row["stderr"]))):
            _require(_close(value, own_se, 1e-9), f"N={n}: {label} stderr differs")
        _require(int(row["n_players"]) == n, "CSV population size differs")
        _require(mean >= -3.0 * own_se, f"N={n}: gap {mean:.3e} lies below -3 SE ({own_se:.3e})")


# ---------------------------------------------------------------------------
# lvr_mc: lvr-check
# ---------------------------------------------------------------------------

REPLAYED_PATHS = 3


def replay_terminal(seed, index, n_steps, p0, sigma, dt, k):
    """Terminal (ARB, LVR) of one path, re-simulated with a scalar loop.

    The stream is the one ``ammgame.lvr`` documents: path ``index`` draws its
    standard normals from ``SeedSequence((seed, index))``.
    """
    z = np.random.default_rng(np.random.SeedSequence((seed, index))).standard_normal(n_steps)
    root = math.sqrt(dt)
    drift = -0.5 * sigma * sigma * dt
    p = p0
    hedge = 0.0
    drain = 0.0
    for zt in z.tolist():
        sq = math.sqrt(k * p)
        drain += 0.25 * sigma * sigma * sq * dt
        p_next = p * math.exp(drift + sigma * root * zt)
        hedge += (sq / p) * (p_next - p)
        p = p_next
    arb = 2.0 * math.sqrt(k * p0) + hedge - 2.0 * math.sqrt(k * p)
    return arb, drain


def check_lvr_mc(ammgame, cfg, out_dir, captured):
    summary = read_summary(out_dir)
    _require(summary["status"] == "ok", f"summary status {summary['status']}")
    accounts = sorted(captured, key=lambda a: -a.dt)
    _require(
        sorted(a.dt for a in accounts) == sorted(cfg.lvr_dt_values), "dt ladder differs"
    )
    rows = {float(r["dt"]): r for r in read_csv(out_dir / "residuals.csv")}
    k = cfg.pool_x0 * cfg.pool_y0
    p0 = cfg.pool_y0 / cfg.pool_x0
    sigma = cfg.external_sigma
    mean_abs = []
    for acct in accounts:
        n = cfg.lvr_paths
        _require(acct.n_paths == n and len(acct.terminal_arb) == n, f"dt={acct.dt:g}: path count")
        arb = np.asarray(acct.terminal_arb)
        lvr = np.asarray(acct.terminal_lvr)
        _require(np.all(np.isfinite(arb)) and np.all(np.isfinite(lvr)), "non-finite terminal value")
        n_steps = int(round(cfg.grid_horizon / acct.dt))
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0xBE7C)))
        picks = [0, n - 1] + rng.integers(0, n, REPLAYED_PATHS - 2).tolist() if n > 1 else [0]
        for idx in picks:
            a, d = replay_terminal(cfg.seed, idx, n_steps, p0, sigma, acct.dt, k)
            _require(_close(arb[idx], a, 1e-9), f"dt={acct.dt:g} path {idx}: ARB {arb[idx]!r} vs {a!r}")
            _require(_close(lvr[idx], d, 1e-9), f"dt={acct.dt:g} path {idx}: LVR {lvr[idx]!r} vs {d!r}")
        res = arb - lvr
        mean_abs.append(float(np.mean(np.abs(res))))
        row = rows[acct.dt]
        _require(
            _close(float(row["mean_abs_residual"]), mean_abs[-1], 1e-9),
            f"dt={acct.dt:g}: reported mean |ARB - LVR| differs",
        )
    for (coarse, fine), (ma, mb) in zip(
        zip(accounts, accounts[1:]), zip(mean_abs, mean_abs[1:])
    ):
        decades = math.log10(coarse.dt / fine.dt)
        _require(
            ma / mb >= 2.0**decades,
            f"mean |ARB - LVR| falls only {ma / mb:.2f}x from dt={coarse.dt:g} to {fine.dt:g}",
        )
    finest = accounts[-1]
    res = np.asarray(finest.terminal_arb) - np.asarray(finest.terminal_lvr)
    se = float(np.std(res, ddof=1) / math.sqrt(len(res)))
    _require(
        abs(float(np.mean(res))) <= 5.0 * se,
        f"finest-dt mean residual {np.mean(res):.3e} is beyond 5 SE ({se:.3e})",
    )


@dataclass(frozen=True)
class Workload:
    subcommand: str
    capture: str  # the library function cli calls, wrapped to read its result
    check: object
    fixed_seed: int | None = None  # program seed, when it must not follow --seed

    def program_seed(self, seed):
        return seed if self.fixed_seed is None else self.fixed_seed


# nash-test's -3 SE gate is one-sided over four population sizes whose gaps
# are statistically zero at the default config, so it fails on roughly 0.5%
# of seeds; nash_ladder therefore keeps the seed the acceptance tests use.
WORKLOADS = {
    "lp_search": Workload("solve-major-minor", "solve_major_minor", check_lp_search),
    "nash_ladder": Workload("nash-test", "convergence_study", check_nash_ladder, 12345),
    "lvr_mc": Workload("lvr-check", "run_lvr_experiment", check_lvr_mc),
}
