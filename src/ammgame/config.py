"""Configuration schema, parser, canonical echo, and hash.

Config files are flat ``section.key = value`` lines. ``#`` starts a comment,
blank lines are ignored. Every key must belong to the schema, appear at most
once, parse to its declared type (floats must be finite), and satisfy its
range check; violations raise :class:`ConfigError` naming the offending key.
Unset keys take their schema defaults. ``default_config`` keyword tweaks go
through the same checks.

The canonical echo renders the resolved configuration in schema order with
floats at 17 significant digits, so byte-identical echoes mean identical
configurations; its SHA-256 is the config hash stamped into output files.
"""

import hashlib
import math
from dataclasses import dataclass, fields

from .errors import ConfigError

_FLOAT_FMT = "%.17g"


def _fmt_float(v):
    return _FLOAT_FMT % float(v)


def _parse_bool(raw):
    if raw == "true":
        return True
    if raw == "false":
        return False
    raise ValueError("expected true or false")


def _parse_int(raw):
    return int(raw, 10)


def _parse_int_list(raw):
    items = [s.strip() for s in raw.split(",")]
    if not items or any(not s for s in items):
        raise ValueError("expected comma-separated integers")
    return tuple(int(s, 10) for s in items)


def _parse_float_list(raw):
    items = [s.strip() for s in raw.split(",")]
    if not items or any(not s for s in items):
        raise ValueError("expected comma-separated numbers")
    return tuple(float(s) for s in items)


def _fmt_value(kind, v):
    if kind == "float":
        return _fmt_float(v)
    if kind == "int":
        return "%d" % v
    if kind == "bool":
        return "true" if v else "false"
    if kind == "int_list":
        return ",".join("%d" % x for x in v)
    if kind == "float_list":
        return ",".join(_fmt_float(x) for x in v)
    return str(v)


_PARSERS = {
    "float": float,
    "int": _parse_int,
    "bool": _parse_bool,
    "str": str,
    "int_list": _parse_int_list,
    "float_list": _parse_float_list,
}


def _positive(v):
    return v > 0


def _nonnegative(v):
    return v >= 0


# key -> (type, default, per-key check or None, requirement text)
# default None means resolved after parsing (documented per key).
SCHEMA = {
    "pool.x0": ("float", 1000.0, _positive, "must be positive"),
    "pool.y0": ("float", 1000.0, _positive, "must be positive"),
    "pool.tau": ("float", 0.003, lambda v: 0.0 <= v < 1.0, "must lie in [0, 1)"),
    "trader.sigma": ("float", 0.2, _nonnegative, "must be nonnegative"),
    "trader.a_min": ("float", -1.0, None, ""),
    "trader.a_max": ("float", 1.0, None, ""),
    "trader.terminal_weight": ("float", 1.0, _nonnegative, "must be nonnegative"),
    "trader.init_law": ("str", "point", lambda v: v in ("point", "gaussian"),
                        "must be point or gaussian"),
    "trader.init_mean": ("float", 0.0, None, ""),
    "trader.init_sd": ("float", 0.1, _positive, "must be positive"),
    "trader.slippage": ("bool", True, None, ""),
    "lp.x0": ("float", 10.0, _nonnegative, "must be nonnegative"),
    "lp.y0": ("float", 10.0, _nonnegative, "must be nonnegative"),
    "lp.z0": ("float", None, _nonnegative, "must be nonnegative"),  # defaults to 2 * pool.y0
    "lp.sigma_x": ("float", 0.0, _nonnegative, "must be nonnegative"),
    "lp.sigma_y": ("float", 0.0, _nonnegative, "must be nonnegative"),
    "lp.sigma_z": ("float", 0.0, _nonnegative, "must be nonnegative"),
    "lp.control_min": ("float", -5.0, None, ""),
    "lp.control_max": ("float", 5.0, None, ""),
    "lp.segments": ("int", 4, _positive, "must be positive"),
    "lp.terminal_weight": ("float", 1.0, _nonnegative, "must be nonnegative"),
    "external.sigma": ("float", 0.2, _nonnegative, "must be nonnegative"),
    "external.sigma0": ("float", 0.0, _nonnegative, "must be nonnegative"),
    "arbitrage.enabled": ("bool", True, None, ""),
    "model.flow_convention": ("str", "definition",
                              lambda v: v in ("definition", "display"),
                              "must be definition or display"),
    "engine.traders": ("int", 256, _positive, "must be positive"),
    "grid.horizon": ("float", 1.0, _positive, "must be positive"),
    "grid.steps": ("int", 50, _positive, "must be positive"),
    "grid.x_min": ("float", -2.0, None, ""),
    "grid.x_max": ("float", 2.0, None, ""),
    "grid.x_points": ("int", 101, lambda v: v >= 2, "needs at least 2 points"),
    "grid.control_points": ("int", 11, lambda v: v >= 2, "needs at least 2 points"),
    "grid.quad_points": ("int", 7, _positive, "must be positive"),
    "solver.damping": ("float", 0.5, lambda v: 0.0 < v <= 1.0, "must lie in (0, 1]"),
    "solver.tol": ("float", 1e-6, _positive, "must be positive"),
    "solver.max_iter": ("int", 500, _positive, "must be positive"),
    "solver.budget": ("int", 400, _positive, "must be positive"),
    "solver.initial_step": ("float", 1.0, _positive, "must be positive"),
    "solver.step_tol": ("float", 0.01, _positive, "must be positive"),
    "harness.n_values": ("int_list", (8, 16, 32, 64),
                         lambda v: len(v) >= 2 and all(x >= 1 for x in v),
                         "needs at least two positive population sizes"),
    "harness.replications": ("int", 100, lambda v: v >= 2, "needs at least 2"),
    "lvr.paths": ("int", 10000, lambda v: v >= 2, "needs at least 2"),
    "lvr.dt_values": ("float_list", (0.01, 0.001, 0.0001),
                      lambda v: len(v) >= 1 and all(x > 0 for x in v),
                      "needs positive step sizes"),
    "arb.draws": ("int", 1000, _positive, "must be positive"),
    "seed": ("int", 12345, _nonnegative, "must be nonnegative"),
}


def _attr(key):
    return key.replace(".", "_")


@dataclass(frozen=True)
class SimConfig:
    pool_x0: float
    pool_y0: float
    pool_tau: float
    trader_sigma: float
    trader_a_min: float
    trader_a_max: float
    trader_terminal_weight: float
    trader_init_law: str
    trader_init_mean: float
    trader_init_sd: float
    trader_slippage: bool
    lp_x0: float
    lp_y0: float
    lp_z0: float
    lp_sigma_x: float
    lp_sigma_y: float
    lp_sigma_z: float
    lp_control_min: float
    lp_control_max: float
    lp_segments: int
    lp_terminal_weight: float
    external_sigma: float
    external_sigma0: float
    arbitrage_enabled: bool
    model_flow_convention: str
    engine_traders: int
    grid_horizon: float
    grid_steps: int
    grid_x_min: float
    grid_x_max: float
    grid_x_points: int
    grid_control_points: int
    grid_quad_points: int
    solver_damping: float
    solver_tol: float
    solver_max_iter: int
    solver_budget: int
    solver_initial_step: float
    solver_step_tol: float
    harness_n_values: tuple
    harness_replications: int
    lvr_paths: int
    lvr_dt_values: tuple
    arb_draws: int
    seed: int


assert [f.name for f in fields(SimConfig)] == [_attr(k) for k in SCHEMA]


def parse_config_text(text, source="config"):
    """Raw key/value extraction with duplicate and unknown-key rejection."""
    values = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}", "expected key = value")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in SCHEMA:
            raise ConfigError(key, f"unknown key ({source}:{lineno})")
        if key in values:
            raise ConfigError(key, f"duplicate key ({source}:{lineno})")
        if not raw:
            raise ConfigError(key, f"empty value ({source}:{lineno})")
        values[key] = raw
    return values


def _convert(key, raw):
    kind = SCHEMA[key][0]
    try:
        return _PARSERS[kind](raw)
    except ValueError:
        raise ConfigError(key, f"cannot parse {raw!r} as {kind}") from None


def _check_key(key, value):
    """Per-key schema check: float values must be finite, then the range rule."""
    kind, _, check, requirement = SCHEMA[key]
    if kind in ("float", "float_list"):
        items = value if kind == "float_list" else (value,)
        if not all(math.isfinite(x) for x in items):
            raise ConfigError(key, f"must be finite (got {value})")
    if check is not None and not check(value):
        raise ConfigError(key, f"{requirement} (got {value})")


def divides(dt, horizon):
    """Number n >= 1 of whole steps of size dt in horizon, to 1e-9 relative; 0 if none."""
    if not dt > 0:
        return 0
    ratio = horizon / dt
    if not math.isfinite(ratio):
        return 0
    n = round(ratio)
    return n if n >= 1 and abs(n * dt - horizon) <= 1e-9 * horizon else 0


def _checked_config(resolved):
    """SimConfig from fully resolved values, after every per-key and cross-key check."""
    for key, value in resolved.items():
        _check_key(key, value)

    def cross(cond, key, reason):
        if not cond:
            raise ConfigError(key, reason)

    cross(resolved["trader.a_max"] > resolved["trader.a_min"],
          "trader.a_max", "must exceed trader.a_min")
    cross(resolved["lp.control_max"] > resolved["lp.control_min"],
          "lp.control_max", "must exceed lp.control_min")
    cross(resolved["grid.x_max"] > resolved["grid.x_min"],
          "grid.x_max", "must exceed grid.x_min")
    cross(resolved["grid.x_min"] <= resolved["trader.init_mean"] <= resolved["grid.x_max"],
          "trader.init_mean",
          f"must lie in [grid.x_min, grid.x_max] = [{resolved['grid.x_min']}, "
          f"{resolved['grid.x_max']}] (got {resolved['trader.init_mean']})")
    horizon = resolved["grid.horizon"]
    for dt in resolved["lvr.dt_values"]:
        cross(divides(dt, horizon), "lvr.dt_values",
              f"each step size must divide grid.horizon = {horizon} into whole steps "
              f"(got {dt})")
    return SimConfig(**{_attr(k): v for k, v in resolved.items()})


def build_config(values):
    """Typed SimConfig from raw string values; applies defaults and checks."""
    resolved = {
        key: _convert(key, values[key]) if key in values else default
        for key, (_kind, default, _check, _req) in SCHEMA.items()
    }
    if resolved["lp.z0"] is None:
        resolved["lp.z0"] = 2.0 * resolved["pool.y0"]
    return _checked_config(resolved)


def apply_overrides(values, overrides):
    """Merge ``key=value`` override strings; later overrides win."""
    merged = dict(values)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(item, "override must look like key=value")
        key, _, raw = item.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in SCHEMA:
            raise ConfigError(key, "unknown key in override")
        if not raw:
            raise ConfigError(key, "empty value in override")
        merged[key] = raw
    return merged


def load_config(path, overrides=()):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read config file: {exc}") from None
    values = parse_config_text(text, source=str(path))
    values = apply_overrides(values, overrides)
    return build_config(values)


def canonical_echo(config: SimConfig):
    """Schema-ordered ``key = value`` rendering of the resolved configuration."""
    lines = []
    for key, (kind, _default, _check, _req) in SCHEMA.items():
        value = getattr(config, _attr(key))
        lines.append(f"{key} = {_fmt_value(kind, value)}")
    return "\n".join(lines) + "\n"


def config_hash(config: SimConfig):
    return hashlib.sha256(canonical_echo(config).encode("utf-8")).hexdigest()


def default_config(**attr_overrides):
    """Resolved default configuration, with keyword tweaks by attribute name.

    ``lp_z0`` resolves from the default ``pool_y0`` before the tweaks apply;
    the tweaked values pass the same checks as a config file.
    """
    cfg = build_config({})
    if not attr_overrides:
        return cfg
    resolved = {key: getattr(cfg, _attr(key)) for key in SCHEMA}
    keys = {_attr(key): key for key in SCHEMA}
    for attr, value in attr_overrides.items():
        if attr not in keys:
            raise ConfigError(attr, "unknown config attribute")
        resolved[keys[attr]] = value
    return _checked_config(resolved)
