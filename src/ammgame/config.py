"""Configuration schema, parser, canonical echo, and hash.

``SCHEMA`` is the one list of keys: :class:`SimConfig` is built from it, one
field per key with the dots written as underscores (``pool.tau`` is
``pool_tau``). Every ``SimConfig`` is checked when it is built, whether by its
constructor, ``build_config``, ``default_config`` or ``dataclasses.replace``:
each value must have its kind's type (an int where a float is declared is
converted when exact, a list where a tuple is declared becomes a tuple), float
values must be finite, each key must satisfy its range check (in schema
order), then the cross-key rules must hold. A violation raises
:class:`ConfigError` naming the offending key.

Config files are flat ``section.key = value`` lines. ``#`` starts a comment,
blank lines are ignored. Every key must belong to the schema, appear at most
once and parse to its declared type; ``--override key=value`` pairs are read
by the same rule. Unset keys take their schema defaults.

The canonical echo renders the resolved configuration in schema order with
floats at 17 significant digits, so byte-identical echoes mean identical
configurations; its SHA-256 is the config hash stamped into output files.
"""

import hashlib
import math
import numbers
from dataclasses import make_dataclass, replace

from .errors import ConfigError


def _fmt_float(v):
    return "%.17g" % float(v)


def _parse_bool(raw):
    if raw == "true":
        return True
    if raw == "false":
        return False
    raise ValueError("expected true or false")


def _is_int(v):
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _as_int(v):
    if not _is_int(v):
        raise TypeError("an integer")
    return int(v)


def _as_float(v):
    # every int up to 2**53 is exactly a float
    if not (isinstance(v, float) or _is_int(v) and abs(v) <= 2**53):
        raise TypeError("a float")
    return float(v)


def _as(kind_type, what):
    def check(v):
        if not isinstance(v, kind_type):
            raise TypeError(what)
        return v
    return check


def _tuple_of(item, what):
    def convert(v):
        try:
            if isinstance(v, (tuple, list)):
                return tuple(map(item, v))
        except TypeError:
            pass
        raise TypeError(what)
    return convert


# kind -> (parser of the raw text, formatter for the echo, field type, typer
# that returns a built value as the field type or raises TypeError naming the
# type); int() and float() reject the empty item of a stray comma
_KINDS = {
    "float": (float, _fmt_float, float, _as_float),
    "int": (lambda raw: int(raw, 10), lambda v: "%d" % v, int, _as_int),
    "bool": (_parse_bool, lambda v: "true" if v else "false", bool, _as(bool, "true or false")),
    "str": (str, str, str, _as(str, "a string")),
    "int_list": (lambda raw: tuple(int(s, 10) for s in raw.split(",")),
                 lambda v: ",".join("%d" % x for x in v), tuple,
                 _tuple_of(_as_int, "a tuple of integers")),
    "float_list": (lambda raw: tuple(float(s) for s in raw.split(",")),
                   lambda v: ",".join(map(_fmt_float, v)), tuple,
                   _tuple_of(_as_float, "a tuple of floats")),
}


def _positive(v):
    return v > 0


def _nonnegative(v):
    return v >= 0


# key -> (kind, default, per-key check or None, requirement text)
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
                         lambda v: len(set(v)) >= 2 and all(x >= 1 for x in v),
                         "needs at least two distinct positive population sizes"),
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


def divides(dt, horizon):
    """Number n >= 1 of whole steps of size dt in horizon, to 1e-9 relative; 0 if none."""
    if not dt > 0:
        return 0
    ratio = horizon / dt
    if not math.isfinite(ratio):
        return 0
    n = round(ratio)
    return n if n >= 1 and abs(n * dt - horizon) <= 1e-9 * horizon else 0


def _check(cfg):
    """Every per-key check in schema order, then every cross-key check.

    Each value is first stored as its kind's type, or rejected.
    """
    for key, (kind, _default, check, requirement) in SCHEMA.items():
        value = getattr(cfg, _attr(key))
        try:
            value = _KINDS[kind][3](value)
        except TypeError as exc:
            raise ConfigError(key, f"must be {exc} (got {value!r})") from None
        object.__setattr__(cfg, _attr(key), value)
        if kind in ("float", "float_list"):
            items = value if kind == "float_list" else (value,)
            if not all(math.isfinite(x) for x in items):
                raise ConfigError(key, f"must be finite (got {value})")
        if check is not None and not check(value):
            raise ConfigError(key, f"{requirement} (got {value})")

    def cross(cond, key, reason):
        if not cond:
            raise ConfigError(key, reason)

    cross(cfg.trader_a_max > cfg.trader_a_min, "trader.a_max", "must exceed trader.a_min")
    cross(cfg.lp_control_max > cfg.lp_control_min,
          "lp.control_max", "must exceed lp.control_min")
    cross(cfg.grid_x_max > cfg.grid_x_min, "grid.x_max", "must exceed grid.x_min")
    cross(cfg.grid_x_min <= cfg.trader_init_mean <= cfg.grid_x_max,
          "trader.init_mean",
          f"must lie in [grid.x_min, grid.x_max] = [{cfg.grid_x_min}, {cfg.grid_x_max}] "
          f"(got {cfg.trader_init_mean})")
    for dt in cfg.lvr_dt_values:
        cross(divides(dt, cfg.grid_horizon), "lvr.dt_values",
              f"each step size must divide grid.horizon = {cfg.grid_horizon} into whole "
              f"steps (got {dt})")


SimConfig = make_dataclass(
    "SimConfig",
    [(_attr(key), _KINDS[kind][2]) for key, (kind, *_rest) in SCHEMA.items()],
    namespace={
        "__doc__": "Resolved configuration: one field per SCHEMA key, checked when built.",
        "__post_init__": _check,
    },
    frozen=True,
)
# before Python 3.12 make_dataclass names the module "types"; pickle must
# find the class here
SimConfig.__module__ = __name__


def _read_pair(line, where):
    """``(key, raw value)`` from one ``key = value`` line; errors cite ``where``."""
    key, eq, raw = (part.strip() for part in line.partition("="))
    if not eq:
        raise ConfigError(where, f"expected key = value (got {line!r})")
    if key not in SCHEMA:
        raise ConfigError(key, f"unknown key ({where})")
    if not raw:
        raise ConfigError(key, f"empty value ({where})")
    return key, raw


def parse_config_text(text, source="config"):
    """Raw key/value extraction with duplicate and unknown-key rejection."""
    values = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{source}:{lineno}"
        key, raw = _read_pair(line, where)
        if key in values:
            raise ConfigError(key, f"duplicate key ({where})")
        values[key] = raw
    return values


def apply_overrides(values, overrides):
    """Merge ``key=value`` override strings; later overrides win."""
    return {**values, **dict(_read_pair(item, "override") for item in overrides)}


def _convert(key, raw):
    kind = SCHEMA[key][0]
    try:
        return _KINDS[kind][0](raw)
    except ValueError:
        raise ConfigError(key, f"cannot parse {raw!r} as {kind}") from None


def build_config(values):
    """Typed SimConfig from raw string values; applies defaults and checks."""
    resolved = {
        _attr(key): _convert(key, values[key]) if key in values else default
        for key, (_kind, default, *_rest) in SCHEMA.items()
    }
    if resolved["lp_z0"] is None:
        resolved["lp_z0"] = 2.0 * resolved["pool_y0"]
    return SimConfig(**resolved)


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
    lines = [
        f"{key} = {_KINDS[kind][1](getattr(config, _attr(key)))}"
        for key, (kind, *_rest) in SCHEMA.items()
    ]
    return "\n".join(lines) + "\n"


def config_hash(config: SimConfig):
    return hashlib.sha256(canonical_echo(config).encode("utf-8")).hexdigest()


def default_config(**attr_overrides):
    """Resolved default configuration, with keyword tweaks by attribute name.

    ``lp_z0`` resolves from the default ``pool_y0`` before the tweaks apply;
    the tweaked values pass the same checks as a config file.
    """
    for attr in attr_overrides:
        if attr not in SimConfig.__dataclass_fields__:
            raise ConfigError(attr, "unknown config attribute")
    return replace(build_config({}), **attr_overrides)
