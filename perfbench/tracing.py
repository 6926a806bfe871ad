"""Spans around ammgame's public functions, recorded from outside the package.

``Tracer.install()`` wraps every public function defined in the traced
modules and patches each name where a caller looks it up: the defining
module (``solver.lp_objective``, ``kernels.dp_backward``) and every module
that imported the function by name (``harness.simulate``,
``engine.instantaneous_lvr``, ``cli.solve_major_minor``). A span records its
name, its parent span, its start and end, and the operation it belongs to.
Spans stay in memory and ``write`` saves them when the run ends.

Self time is a span's duration minus the durations of its child spans;
wrapper overhead of a child falls into its parent's self time. Host-speed
slices that interrupt a span are added as ``hostspeed.slice`` children, so
they never count as self time of a layer.

A few layers also count work from their arguments or results (``HOOKS``),
so that per-layer rates are computed from array sizes.
"""

import functools
import inspect
import math
import time
from array import array
from collections import defaultdict

import numpy as np

TRACED_MODULES = ("solver", "kernels", "engine", "harness", "lvr", "config", "cli")
SLICE_SPAN = "hostspeed.slice"


def _public_functions(module):
    for attr, value in vars(module).items():
        if (
            not attr.startswith("_")
            and inspect.isfunction(value)
            and value.__module__ == module.__name__
        ):
            yield attr, value


def _bind(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _dp_backward_hook(fn, args, kwargs, result, counters):
    a = _bind(fn, args, kwargs)
    steps, nx, na = np.shape(a["reward"])
    counters["kernels.dp_backward.points"] += steps * nx * na * len(a["z_nodes"])


def _lvr_paths_hook(fn, args, kwargs, result, counters):
    z = np.asarray(_bind(fn, args, kwargs)["z"])
    counters["kernels.lvr_paths.path_steps"] += z.size
    counters["kernels.lvr_paths.bytes"] += z.nbytes + np.asarray(result).nbytes


def _lp_objective_hook(fn, args, kwargs, result, counters):
    if result is None:
        counters["solver.lp_objective.infeasible"] += 1
        return
    cost = float(result[0])
    if not math.isfinite(cost):
        counters["solver.lp_objective.infeasible"] += 1
    elif cost < counters.get("solver.lp_objective.best", math.inf):
        counters["solver.lp_objective.best"] = cost
        counters["solver.lp_objective.improving"] += 1


def _simulate_hook(fn, args, kwargs, result, counters):
    m, cols = result.trader_x.shape
    counters["engine.simulate.trader_steps"] += m * (cols - 1)


def _convergence_hook(fn, args, kwargs, result, counters):
    counters["harness.gaps_clipped"] += int(result.n_clipped)


# result is None when the call raised
HOOKS = {
    "kernels.dp_backward": _dp_backward_hook,
    "kernels.lvr_paths": _lvr_paths_hook,
    "solver.lp_objective": _lp_objective_hook,
    "engine.simulate": _simulate_hook,
    "harness.convergence_study": _convergence_hook,
}


class Tracer:
    """In-memory span recorder over the ammgame modules."""

    def __init__(self, package):
        self.package = package
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = []  # one defaultdict per operation
        self._stack = []
        self._current_op = -1
        self._patches = []

    # -- recording -----------------------------------------------------
    def _intern(self, name):
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _open(self, name_idx):
        sid = len(self.start)
        self.name_id.append(name_idx)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._current_op)
        self.start.append(time.perf_counter())
        self.end.append(math.nan)
        self._stack.append(sid)
        return sid

    def _close(self, sid):
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def begin_op(self):
        self._current_op += 1
        self.counters.append(defaultdict(int))

    def add_slices(self, slices):
        """Log the host-speed slices of the current operation as spans.

        The slices ran from a signal handler at arbitrary bytecodes, so they
        are added after the operation: each becomes a child of the innermost
        span that contains it in time.
        """
        spans = self.arrays()
        mine = np.flatnonzero(spans["op"] == self._current_op)
        start, end = spans["start"][mine], spans["end"][mine]
        name_idx = self._intern(SLICE_SPAN)
        for s0, dur in slices:
            inside = mine[(start <= s0) & (end >= s0 + dur)]
            parent = int(inside[-1]) if len(inside) else -1  # latest start = innermost
            self.name_id.append(name_idx)
            self.parent.append(parent)
            self.op.append(self._current_op)
            self.start.append(s0)
            self.end.append(s0 + dur)

    def wrap(self, name, fn):
        name_idx = self._intern(name)
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name_idx)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(sid)
                if hook is not None:
                    hook(fn, args, kwargs, result, self.counters[self._current_op])

        return traced

    # -- patching ------------------------------------------------------
    def install(self):
        """Patch every public function of the traced modules where it is looked up."""
        modules = {
            name: mod
            for name, mod in vars(self.package).items()
            if inspect.ismodule(mod) and mod.__name__.startswith(self.package.__name__ + ".")
        }
        modules["__init__"] = self.package
        for short in TRACED_MODULES:
            for attr, fn in list(_public_functions(modules[short])):
                wrapped = self.wrap(f"{short}.{attr}", fn)
                for mod in modules.values():
                    for name, value in list(vars(mod).items()):
                        if value is fn:
                            self._patches.append((mod, name, value))
                            setattr(mod, name, wrapped)

    def uninstall(self):
        while self._patches:
            mod, name, value = self._patches.pop()
            setattr(mod, name, value)

    # -- analysis ------------------------------------------------------
    def arrays(self):
        """Copies of the span columns as numpy arrays."""
        return {
            "name_id": np.array(self.name_id, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "op": np.array(self.op, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def per_op_layers(self):
        """For each operation: {layer name: (calls, total_s, self_s)}."""
        spans = self.arrays()
        name_id, parent, op = spans["name_id"], spans["parent"], spans["op"]
        n = len(op)
        dur = spans["end"] - spans["start"]
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_s = dur - child
        out = []
        for k in range(self._current_op + 1):
            sel = op == k
            layers = {}
            for idx in np.unique(name_id[sel]):
                m = sel & (name_id == idx)
                layers[self.names[idx]] = (
                    int(m.sum()),
                    float(dur[m].sum()),
                    float(self_s[m].sum()),
                )
            out.append(layers)
        return out

    def write(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _layer(layers, name):
    return layers.get(name, (0, 0.0, 0.0))


def _rate(work, seconds):
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(layers, counters):
    """The per-layer metrics of one operation (name -> (value, unit))."""
    out = {}

    def calls(name):
        out[name + ".calls"] = (_layer(layers, name)[0], "count")

    def self_s(name):
        out[name + ".self_s"] = (_layer(layers, name)[2], "s")

    def total_s(name):
        out[name + ".s"] = (_layer(layers, name)[1], "s")

    calls("kernels.dp_backward")
    self_s("kernels.dp_backward")
    out["kernels.dp_backward.points_per_s"] = (
        _rate(counters["kernels.dp_backward.points"], _layer(layers, "kernels.dp_backward")[2]),
        "1/s",
    )
    calls("kernels.push_forward")
    self_s("kernels.push_forward")
    calls("kernels.lvr_paths")
    self_s("kernels.lvr_paths")
    out["kernels.lvr_paths.path_steps_per_s"] = (
        _rate(counters["kernels.lvr_paths.path_steps"], _layer(layers, "kernels.lvr_paths")[2]),
        "1/s",
    )
    out["kernels.lvr_paths.mb_computed"] = (counters["kernels.lvr_paths.bytes"] / 1e6, "MB")
    calls("solver.lp_objective")
    out["solver.lp_objective.infeasible"] = (counters["solver.lp_objective.infeasible"], "count")
    n_lp = _layer(layers, "solver.lp_objective")[0]
    out["solver.lp_objective.improving"] = (
        counters["solver.lp_objective.improving"] / n_lp if n_lp else 0.0,
        "ratio",
    )
    calls("solver.best_response")
    self_s("solver.best_response")
    calls("solver.solve_mfg")
    calls("solver.fixed_point_certificate")
    total_s("solver.fixed_point_certificate")
    calls("solver.forward_environment")
    self_s("solver.forward_environment")
    self_s("solver.tabulate_rewards")
    self_s("solver.induced_flows")
    calls("solver.wasserstein_grid")
    self_s("solver.wasserstein_grid")
    calls("lvr.instantaneous_lvr")
    self_s("lvr.instantaneous_lvr")
    self_s("lvr.run_lvr_experiment")
    calls("engine.simulate")
    self_s("engine.simulate")
    out["engine.simulate.trader_steps_per_s"] = (
        _rate(counters["engine.simulate.trader_steps"], _layer(layers, "engine.simulate")[2]),
        "1/s",
    )
    self_s("engine.make_noise")
    calls("harness.epsilon_nash_gap")
    self_s("harness.epsilon_nash_gap")
    self_s("harness.environment_from_trajectory")
    out["harness.gaps_clipped"] = (counters["harness.gaps_clipped"], "count")
    total_s("config.load_config")
    self_s("cli.main")
    return out
