"""Configuration schema, parser, canonical echo, and hash.

``SCHEMA`` is the one list of keys: :class:`SimConfig` is built from it, one
field per key with the dots written as underscores (``pool.tau`` is
``pool_tau``), whose default is the key's schema default. Every ``SimConfig``
is built and checked by its constructor, whether called directly or through
``build_config``, ``default_config`` or ``dataclasses.replace``: an unset
lp.z0 (``None``) becomes 2 * pool.y0, each value must have its kind's type (an
int where a float is declared is converted when exact, a list where a tuple
is declared becomes a tuple, and floats must be finite), each key must
satisfy its range check (in schema order; grid.quad_points must lie in
[1, 200], the orders a test shows to have finite Gauss-Hermite nodes and
weights), then the cross-key rules must hold, the last of them on the
trader's grids: every inventory node keeps a control atom whose drift target
stays on the grid, and the initial law has mass on the grid. A violation
raises :class:`ConfigError` naming the offending key.

Config files are flat ``section.key = value`` lines. ``#`` starts a comment,
blank lines are ignored. Every key must belong to the schema, appear at most
once and parse to its declared type; ``--override key=value`` pairs are read
by the same rule, and ``build_config`` rejects a key outside the schema.
Unset keys take their schema defaults.

The canonical echo renders the resolved configuration in schema order with
``format_value``, floats at 17 significant digits, so byte-identical echoes
mean identical configurations; its SHA-256 is the config hash stamped into
output files. The CLI prints every CSV cell with the same function.

The config also owns the game's grids, the one place each is derived from
the keys: ``time_grid`` cuts grid.horizon into grid.steps equal steps for
the market, the solver and the simulator, and ``trader_grids`` and
``initial_trader_law`` give the trader's inventory nodes, control atoms and
initial law. They live here because the checks build them too, and this
module imports no layer that reads a config.
"""

import hashlib
import math
import numbers
from dataclasses import dataclass, field, make_dataclass

import numpy as np

from . import kernels
from .errors import ConfigError, InvalidParameter


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
    if not (isinstance(v, float) and math.isfinite(v) or _is_int(v) and abs(v) <= 2**53):
        raise TypeError("a finite float")
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


# kind -> (parser of the raw text, field type, typer that returns a built
# value as the field type or raises TypeError naming the type); int() and
# float() reject the empty item of a stray comma
_KINDS = {
    "float": (float, float, _as_float),
    "int": (lambda raw: int(raw, 10), int, _as_int),
    "bool": (_parse_bool, bool, _as(bool, "true or false")),
    "str": (str, str, _as(str, "a string")),
    "int_list": (lambda raw: tuple(int(s, 10) for s in raw.split(",")), tuple,
                 _tuple_of(_as_int, "a tuple of integers")),
    "float_list": (lambda raw: tuple(float(s) for s in raw.split(",")), tuple,
                   _tuple_of(_as_float, "a tuple of finite floats")),
}


def _positive(v):
    return v > 0


def _nonnegative(v):
    return v >= 0


# every order up to this one gives a finite Gauss-Hermite rule (a test builds
# them all); numpy's rule overflows at high orders (400 nodes)
_FINITE_QUAD_ORDER = 200


# key -> (kind, default, per-key check or None, requirement text)
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
    "grid.quad_points": ("int", 7, lambda v: 1 <= v <= _FINITE_QUAD_ORDER,
                         f"must lie in [1, {_FINITE_QUAD_ORDER}], the orders with "
                         "finite Gauss-Hermite nodes and weights"),
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


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, horizon] with ``steps`` intervals."""

    horizon: float
    steps: int

    def __post_init__(self):
        if self.steps < 1:
            raise InvalidParameter(f"steps must be >= 1, got {self.steps}")
        if not self.horizon > 0:
            raise InvalidParameter(f"horizon must be positive, got {self.horizon}")

    @property
    def dt(self):
        return self.horizon / self.steps

    def times(self):
        return np.linspace(0.0, self.horizon, self.steps + 1)


def time_grid(config):
    """The one time grid of the game: grid.horizon cut into grid.steps equal steps."""
    return TimeGrid(config.grid_horizon, config.grid_steps)


def trader_grids(config):
    """The trader's inventory nodes and control atoms, evenly spaced over
    [grid.x_min, grid.x_max] and [trader.a_min, trader.a_max]."""
    x_grid = np.linspace(config.grid_x_min, config.grid_x_max, config.grid_x_points)
    atoms = np.linspace(config.trader_a_min, config.trader_a_max, config.grid_control_points)
    return x_grid, atoms


def initial_trader_law(config, x_grid):
    """Initial inventory law discretized on the grid.

    A point mass splits linearly between its two bracketing nodes; a gaussian
    law is the normalized density sampled at the nodes, and one with no mass
    on any node is rejected naming trader.init_sd.
    """
    nx = len(x_grid)
    mu0 = np.zeros(nx)
    if config.trader_init_law == "point":
        h = x_grid[1] - x_grid[0]
        i0, frac = kernels.grid_cell(config.trader_init_mean, x_grid[0], h, nx)
        mu0[i0] = 1.0 - frac
        mu0[i0 + 1] += frac
    else:
        z = (x_grid - config.trader_init_mean) / config.trader_init_sd
        mu0 = np.exp(-0.5 * z * z)
        mass = mu0.sum()
        if not mass > 0:
            raise ConfigError(
                "trader.init_sd",
                f"puts no mass of the gaussian initial law on any inventory node "
                f"(got {config.trader_init_sd!r})",
            )
        mu0 /= mass
    return mu0


def _check_control_range(cfg, x_grid, atoms):
    """Reject a grid and control range that leave some inventory node with no
    admissible atom, one whose drift target x + a*dt stays on the grid.

    Names trader.a_min when every atom leaves the top node above the grid,
    trader.a_max when every atom leaves the bottom node below it, and
    grid.x_max when the atoms' moves jump over the grid from some node. A
    node all of whose targets lie above the grid has a top node like it, and
    likewise below, so the first two cases need only the edge nodes.
    """
    dt = time_grid(cfg).dt
    below, above = kernels.drift_targets(x_grid, atoms, dt)
    off = below | above
    dead = int(off.all(axis=1).argmax())  # the first node without an admissible atom, else 0
    for key, node, exits, side in (
            ("trader.a_min", -1, above, "above grid.x_max"),
            ("trader.a_max", 0, below, "below grid.x_min"),
            ("grid.x_max", dead, off, "below grid.x_min or above grid.x_max")):
        if exits[node].all():
            raise ConfigError(
                key,
                f"leaves inventory node x = {x_grid[node]} with no admissible control: "
                f"every atom's drift target x + a*dt (dt = {dt}) lies {side} "
                f"(got {getattr(cfg, _attr(key))})",
            )


def _check(cfg):
    """Every per-key check in schema order, then every cross-key check.

    Each value is first stored as its kind's type, or rejected; an unset
    lp.z0 first becomes 2 * pool.y0, which precedes it and so is checked.
    """
    for key, (kind, _default, check, requirement) in SCHEMA.items():
        value = getattr(cfg, _attr(key))
        if value is None and key == "lp.z0":
            value = 2.0 * cfg.pool_y0
        try:
            value = _KINDS[kind][2](value)
        except TypeError as exc:
            raise ConfigError(key, f"must be {exc} (got {value!r})") from None
        object.__setattr__(cfg, _attr(key), value)
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
    x_grid, atoms = trader_grids(cfg)
    _check_control_range(cfg, x_grid, atoms)
    initial_trader_law(cfg, x_grid)


SimConfig = make_dataclass(
    "SimConfig",
    [(_attr(key), _KINDS[kind][1], field(default=default))
     for key, (kind, default, *_rest) in SCHEMA.items()],
    namespace={
        "__doc__": "Resolved configuration: one field per SCHEMA key, defaulting to the "
                   "key's schema default, checked when built.",
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
    if key not in SCHEMA:
        raise ConfigError(key, "unknown key")
    kind = SCHEMA[key][0]
    try:
        return _KINDS[kind][0](raw)
    except ValueError:
        raise ConfigError(key, f"cannot parse {raw!r} as {kind}") from None


def build_config(values):
    """Checked SimConfig from raw string values by schema key; unset keys take
    their defaults, and a key outside the schema raises ConfigError."""
    return SimConfig(**{_attr(key): _convert(key, raw) for key, raw in values.items()})


def load_config(path, overrides=()):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read config file: {exc}") from None
    values = parse_config_text(text, source=str(path))
    values = apply_overrides(values, overrides)
    return build_config(values)


def format_value(v):
    """A value as the echo and every CSV cell print it: ``true``/``false``,
    integers in ``%d``, floats at 17 significant digits, a tuple as the comma
    join of its items, anything else as ``str``."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return "%d" % v
    if isinstance(v, (float, np.floating)):
        return "%.17g" % v
    if isinstance(v, tuple):
        return ",".join(map(format_value, v))
    return str(v)


def canonical_echo(config: SimConfig):
    """Schema-ordered ``key = value`` rendering of the resolved configuration."""
    lines = [f"{key} = {format_value(getattr(config, _attr(key)))}" for key in SCHEMA]
    return "\n".join(lines) + "\n"


def config_hash(config: SimConfig):
    return hashlib.sha256(canonical_echo(config).encode("utf-8")).hexdigest()


def default_config(**attr_overrides):
    """Default configuration with keyword tweaks by attribute name, checked as
    a config file is (an unset ``lp_z0`` is 2 * ``pool_y0``)."""
    for attr in attr_overrides:
        if attr not in SimConfig.__dataclass_fields__:
            raise ConfigError(attr, "unknown config attribute")
    return SimConfig(**attr_overrides)
