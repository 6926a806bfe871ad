"""Config reading, validation, overrides, and the canonical echo."""

import ast
import os
import pickle
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ammgame
from ammgame import config as config_module
from ammgame import kernels, solver
from ammgame.cli import main
from ammgame.config import (
    SCHEMA,
    SimConfig,
    canonical_echo,
    config_hash,
    default_config,
    format_value,
    load_config,
)
from ammgame.errors import ConfigError


def _build(values):
    """The config that an empty file with ``values`` as overrides loads to."""
    return load_config(os.devnull, [f"{key}={raw}" for key, raw in values.items()])


def _load_text(tmp_path, text, overrides=()):
    """The config that a file holding ``text`` loads to."""
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return load_config(path, overrides)


def test_defaults_resolve():
    cfg = default_config()
    assert cfg.pool_x0 == 1000.0
    assert cfg.pool_tau == 0.003
    assert cfg.grid_steps == 50
    assert cfg.grid_x_points == 101
    assert cfg.grid_control_points == 11
    assert cfg.harness_n_values == (8, 16, 32, 64)
    assert cfg.seed == 12345


def test_lp_z0_defaults_to_twice_pool_quote():
    """However the config is built."""
    for cfg in (_build({"pool.y0": "250"}), default_config(pool_y0=250.0),
                SimConfig(pool_y0=250.0), replace(default_config(), pool_y0=250.0, lp_z0=None)):
        assert cfg.lp_z0 == 500.0
    explicit = _build({"pool.y0": "250", "lp.z0": "7"})
    assert explicit.lp_z0 == 7.0
    assert SimConfig() == default_config() == _build({})


def test_default_config_builds_one_config(monkeypatch):
    built = []
    check = SimConfig.__post_init__
    monkeypatch.setattr(SimConfig, "__post_init__", lambda cfg: built.append(cfg) or check(cfg))
    default_config()
    default_config(pool_tau=0.01)
    assert len(built) == 2


def test_echo_round_trip_is_identity(tmp_path):
    """echo -> load reproduces the configuration and its hash."""
    cfg = _build({"pool.tau": "0.01", "grid.steps": "17", "seed": "42",
                  "lvr.dt_values": "0.02, 0.005",
                  "trader.init_law": "gaussian"})
    text = canonical_echo(cfg)
    cfg2 = _load_text(tmp_path, text)
    assert cfg2 == cfg
    assert config_hash(cfg2) == config_hash(cfg)
    assert canonical_echo(cfg2) == text


def test_echo_lists_every_schema_key():
    lines = canonical_echo(default_config()).strip().splitlines()
    assert [ln.split(" = ")[0] for ln in lines] == list(SCHEMA)


def test_hash_tracks_values():
    a = config_hash(default_config())
    b = config_hash(default_config(pool_tau=0.004))
    assert a != b
    assert a == config_hash(default_config())


def test_parse_comments_and_blank_lines(tmp_path):
    """Comments, inline comments and blank lines are skipped, whitespace around
    a key and its value is dropped, and an empty file loads the defaults."""
    text = "# leading comment\n\npool.tau = 0.01  # inline\n  grid.steps=7\n   \n# seed = 1\n"
    assert _load_text(tmp_path, text) == default_config(pool_tau=0.01, grid_steps=7)
    assert _load_text(tmp_path, "") == default_config()


def test_parse_rejects_duplicate_key(tmp_path):
    with pytest.raises(ConfigError) as err:
        _load_text(tmp_path, "seed = 1\n\nseed = 2\n")
    assert err.value.key == "seed"
    assert "duplicate" in err.value.reason
    assert "run.cfg:3" in err.value.reason


def test_parse_rejects_unknown_key(tmp_path):
    path = tmp_path / "f.cfg"
    path.write_text("pool.fee = 0.01\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.key == "pool.fee"
    assert "unknown key" in err.value.reason and "f.cfg:1" in err.value.reason
    with pytest.raises(ConfigError) as err:
        _build({"grid.step": "10"})
    assert err.value.key == "grid.step"
    assert err.value.reason == "unknown key (override)"


def test_parse_rejects_missing_equals_and_empty_value(tmp_path):
    """A line without ``=`` is rejected citing its file position, an empty
    value naming its key, in a file line and in an override alike."""
    with pytest.raises(ConfigError) as err:
        _load_text(tmp_path, "seed = 1\njust words\n")
    assert err.value.key.endswith("run.cfg:2")
    assert "expected key = value" in err.value.reason
    with pytest.raises(ConfigError) as err:
        _load_text(tmp_path, "pool.tau =  # no value\n")
    assert err.value.key == "pool.tau"
    assert "empty value" in err.value.reason and "run.cfg:1" in err.value.reason
    with pytest.raises(ConfigError) as err:
        _build({"pool.tau": " "})
    assert err.value.key == "pool.tau"
    assert err.value.reason == "empty value (override)"


def test_spaced_value_loads_alike_from_a_file_line_and_an_override(tmp_path):
    """A value is stripped the same way wherever it is written."""
    spaced = default_config(trader_slippage=False, harness_n_values=(2, 4))
    assert _load_text(tmp_path, "trader.slippage =  false \nharness.n_values = 2,4\n") == spaced
    assert load_config(os.devnull, ["trader.slippage=  false ",
                                    " harness.n_values= 2,4"]) == spaced


def test_type_errors_name_the_key(tmp_path):
    """An unparseable value is rejected naming its key, in an override and in
    a file line, even one that a later override replaces."""
    with pytest.raises(ConfigError) as err:
        _build({"grid.steps": "many"})
    assert err.value.key == "grid.steps"
    assert err.value.reason == "cannot parse 'many' as int"
    with pytest.raises(ConfigError) as err:
        _build({"trader.slippage": "maybe"})
    assert err.value.key == "trader.slippage"
    with pytest.raises(ConfigError) as err:
        _load_text(tmp_path, "harness.n_values = 8,,16\n", ["harness.n_values=8,16"])
    assert err.value.key == "harness.n_values"
    assert err.value.reason == "cannot parse '8,,16' as int_list"


def test_range_violations_name_the_key():
    with pytest.raises(ConfigError) as err:
        _build({"pool.tau": "1.2"})
    assert err.value.key == "pool.tau"
    assert "[0, 1)" in err.value.reason
    # settings the solvers read only from the config
    for key, raw in [("solver.damping", "0"), ("solver.damping", "1.5"), ("solver.tol", "0"),
                     ("solver.max_iter", "0"), ("harness.replications", "1"),
                     ("harness.n_values", "8"), ("harness.n_values", "0,8"),
                     ("harness.n_values", "8,8"), ("lvr.paths", "0"),
                     ("lvr.paths", "1")]:
        with pytest.raises(ConfigError) as err:
            _build({key: raw})
        assert err.value.key == key
    for key, raw in [("lp.z0", "nan"), ("trader.a_max", "inf"), ("pool.x0", "-inf"),
                     ("trader.init_mean", "nan"), ("lvr.dt_values", "0.01,inf")]:
        with pytest.raises(ConfigError) as err:
            _build({key: raw})
        assert err.value.key == key
        assert "finite" in err.value.reason
    # numpy's Gauss-Hermite rule overflows at high orders: at 400 nodes its weights are not finite
    with np.errstate(all="ignore"):
        assert not np.isfinite(kernels.gauss_hermite(400)[1]).all()
    for raw in ("400", "0"):
        with pytest.raises(ConfigError) as err:
            _build({"grid.quad_points": raw})
        assert err.value.key == "grid.quad_points"
        assert "finite Gauss-Hermite nodes and weights" in err.value.reason
    assert _build({"grid.quad_points": "60"}).grid_quad_points == 60
    for values in ({"trader.init_mean": "5.0"},
                   {"trader.init_law": "gaussian", "trader.init_mean": "60.0"},
                   {"grid.x_min": "0.5", "grid.x_max": "2"}):
        with pytest.raises(ConfigError) as err:
            _build(values)
        assert err.value.key == "trader.init_mean"
        assert "grid.x_min, grid.x_max" in err.value.reason
    assert _build({"trader.init_mean": "2.0"}).trader_init_mean == 2.0
    # every LVR step size must cut the horizon into n >= 1 whole steps
    for values in ({"lvr.dt_values": "5"}, {"lvr.dt_values": "0.01,0.3"},
                   {"grid.horizon": "0.5", "lvr.dt_values": "0.2"}, {"lvr.dt_values": "5e-324"}):
        with pytest.raises(ConfigError) as err:
            _build(values)
        assert err.value.key == "lvr.dt_values"
        assert "grid.horizon" in err.value.reason
    assert _build({"grid.horizon": "0.5", "lvr.dt_values": "0.5,0.1"}).lvr_dt_values == (
        0.5, 0.1)
    # lp.z0 is checked once its 2 * pool.y0 default has resolved
    with pytest.raises(ConfigError) as err:
        _build({"lp.z0": "-1"})
    assert err.value.key == "lp.z0"
    assert "must be nonnegative" in err.value.reason
    with pytest.raises(ConfigError) as err:
        _build({"pool.y0": "-1"})
    assert err.value.key == "pool.y0"
    assert _build({"lp.z0": "0"}).lp_z0 == 0.0
    assert _build({"pool.y0": "7"}).lp_z0 == 14.0


def test_quadrature_orders_up_to_the_bound_are_accepted_unbuilt_and_are_finite(
        monkeypatch, tmp_path, capsys):
    """grid.quad_points is the range [1, ``_FINITE_QUAD_ORDER``]: every order in
    it gives finite nodes and weights, the next one is a config error naming the
    key, at load_config and through the CLI, and no config build builds the rule."""
    bound = config_module._FINITE_QUAD_ORDER
    for order in range(1, bound + 1):
        nodes, weights = kernels.gauss_hermite(order)
        assert np.isfinite(nodes).all() and np.isfinite(weights).all(), order
    built = []
    gauss_hermite = kernels.gauss_hermite
    monkeypatch.setattr(kernels, "gauss_hermite", lambda n: built.append(n) or gauss_hermite(n))
    assert _build({"grid.quad_points": str(bound)}).grid_quad_points == bound
    with pytest.raises(ConfigError) as err:
        _build({"grid.quad_points": str(bound + 1)})
    assert err.value.key == "grid.quad_points"
    assert "finite Gauss-Hermite nodes and weights" in err.value.reason
    empty = tmp_path / "empty.cfg"
    empty.write_text("")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(empty), "--out", str(out),
                 "--override", f"grid.quad_points={bound + 1}"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "grid.quad_points" in err
    assert not out.exists()
    assert built == []


def test_default_config_runs_the_schema_checks():
    with pytest.raises(ConfigError) as err:
        default_config(solver_damping=7.0, pool_tau=1.5)
    assert err.value.key == "pool.tau"
    with pytest.raises(ConfigError) as err:
        default_config(solver_damping=7.0)
    assert err.value.key == "solver.damping"
    with pytest.raises(ConfigError) as err:
        default_config(trader_a_min=2.0, trader_a_max=1.5)
    assert err.value.key == "trader.a_max"
    with pytest.raises(ConfigError) as err:
        default_config(lp_z0=float("nan"))
    assert err.value.key == "lp.z0"
    with pytest.raises(ConfigError) as err:
        default_config(no_such_key=1)
    assert err.value.key == "no_such_key"
    # an unset lp_z0 resolves from the tweaked pool quote
    assert default_config(pool_y0=250.0).lp_z0 == 500.0
    assert default_config(pool_tau=0.01) == _build({"pool.tau": "0.01"})


def test_repeated_population_size_is_rejected():
    """The Nash streams are keyed on N, so a repeated size would be one run
    reported twice and counted twice in the slope fit."""
    for raw in ("8,8,16", "8,16,8"):
        with pytest.raises(ConfigError) as err:
            load_config(os.devnull, [f"harness.n_values={raw}"])
        assert err.value.key == "harness.n_values"
        assert "none repeated" in err.value.reason
    assert _build({"harness.n_values": "16,8,12"}).harness_n_values == (16, 8, 12)


def test_every_build_runs_the_schema_checks():
    """The constructor checks, so dataclasses.replace cannot skip the schema."""
    cfg = default_config()
    for attr, value, key in [("solver_damping", 0.0, "solver.damping"),
                             ("grid_steps", 0, "grid.steps"),
                             ("harness_n_values", (8, 8), "harness.n_values"),
                             ("lvr_dt_values", (0.3,), "lvr.dt_values")]:
        with pytest.raises(ConfigError) as err:
            replace(cfg, **{attr: value})
        assert err.value.key == key
    assert replace(cfg, grid_steps=7) == default_config(grid_steps=7)


def test_built_values_take_their_kinds_type():
    """A keyword value of the wrong type is converted exactly or rejected, never kept."""
    with pytest.raises(ConfigError) as err:
        default_config(grid_steps=50.0)
    assert err.value.key == "grid.steps"
    cfg = default_config(harness_n_values=[8, 16])
    assert cfg.harness_n_values == (8, 16)
    assert hash(cfg) == hash(default_config(harness_n_values=(8, 16)))
    cfg = default_config(pool_x0=1000, lvr_dt_values=[0.5, 1])
    assert type(cfg.pool_x0) is float and cfg.lvr_dt_values == (0.5, 1.0)
    assert config_hash(cfg) == config_hash(default_config(lvr_dt_values=(0.5, 1.0)))
    for attr, value, key in [("pool_tau", True, "pool.tau"), ("pool_x0", 2**60, "pool.x0"),
                             ("trader_slippage", 1, "trader.slippage"),
                             ("trader_init_law", 3, "trader.init_law"),
                             ("harness_n_values", (8, 16.0), "harness.n_values"),
                             ("lvr_dt_values", 0.01, "lvr.dt_values")]:
        with pytest.raises(ConfigError) as err:
            default_config(**{attr: value})
        assert err.value.key == key


def test_sim_config_is_a_picklable_ammgame_class():
    cfg = default_config(seed=3)
    again = pickle.loads(pickle.dumps(cfg))
    assert again == cfg and hash(again) == hash(cfg)
    assert SimConfig.__module__ == "ammgame.config" and ammgame.SimConfig is SimConfig
    assert [f.name for f in fields(SimConfig)] == [key.replace(".", "_") for key in SCHEMA]


def test_cross_check_control_bounds():
    with pytest.raises(ConfigError) as err:
        _build({"trader.a_min": "2", "trader.a_max": "-2"})
    assert err.value.key == "trader.a_max"
    with pytest.raises(ConfigError) as err:
        _build({"grid.x_min": "1", "grid.x_max": "0"})
    assert err.value.key == "grid.x_max"


@pytest.mark.parametrize("key, raw, node", [("trader.a_min", "0.5", "2.0"),
                                             ("trader.a_max", "-1e-9", "-2.0")])
def test_control_range_leaving_an_edge_node_dead_names_its_bound(key, raw, node):
    """Every atom at or above a positive a_min drifts the top node above the
    grid, every atom at or below a negative a_max the bottom node below it."""
    with pytest.raises(ConfigError) as err:
        _build({key: raw})
    assert err.value.key == key
    assert f"x = {node}" in str(err.value)


@pytest.mark.parametrize("overrides", [
    {},
    {"trader.a_min": "0"},  # the top node's own target is x_max: on the grid
    {"trader.a_max": "0"},
    {"trader.a_min": "-1e-9", "trader.a_max": "0.5"},
    # a grid exactly one move wide: each edge node's inward move lands on the other
    {"grid.x_min": "-0.01", "grid.x_max": "0.01", "grid.x_points": "3",
     "grid.control_points": "2", "grid.steps": "100"},
])
def test_control_ranges_that_reach_both_edges_are_accepted(overrides):
    _build(overrides)


@pytest.mark.parametrize("values, key", [
    # from every node one atom jumps above the grid and the other below it
    ({"grid.x_min": "-0.001", "grid.x_max": "0.001", "grid.x_points": "3",
      "grid.control_points": "2"}, "grid.x_max"),
    # between two nodes (spacing 0.04) every node density underflows to 0
    ({"trader.init_law": "gaussian", "trader.init_sd": "1e-10", "trader.init_mean": "0.01"},
     "trader.init_sd"),
])
def test_trader_grid_without_room_for_the_atoms_or_the_law_names_its_key(values, key):
    with pytest.raises(ConfigError) as err:
        _build(values)
    assert err.value.key == key


def _every_node_keeps_an_atom(x_grid, atoms, dt):
    """The admissibility rule, one node and one atom at a time."""
    for x in x_grid:
        if not any(x_grid[0] <= x + a * dt <= x_grid[-1] for a in atoms):
            return False
    return True


# dyadic values, so that drift targets land exactly on the grid's edges
_DYADIC = st.integers(min_value=-16, max_value=16).map(lambda n: n / 8)


@settings(max_examples=150, deadline=None)
@given(x_min=_DYADIC, width=st.integers(min_value=1, max_value=16).map(lambda n: n / 16),
       x_points=st.integers(min_value=2, max_value=9),
       a_min=_DYADIC, a_span=st.integers(min_value=1, max_value=24).map(lambda n: n / 8),
       control_points=st.integers(min_value=2, max_value=5),
       steps=st.sampled_from([1, 2, 3, 4, 8]))
def test_config_accepts_exactly_the_grids_whose_nodes_all_keep_an_atom(
        x_min, width, x_points, a_min, a_span, control_points, steps):
    """load_config accepts exactly when every node keeps an admissible atom,
    and on an accepted config the best response only picks admissible atoms
    and its pushforward keeps all the mass. The transition stencil of an
    accepted config spans the offset 0: the top node keeps an atom a <= 0
    and the bottom node one a >= 0, and each moves some mass that way."""
    x_grid = np.linspace(x_min, x_min + width, x_points)
    atoms = np.linspace(a_min, a_min + a_span, control_points)
    values = {"grid.x_min": repr(x_min), "grid.x_max": repr(x_min + width),
              "grid.x_points": str(x_points), "trader.a_min": repr(a_min),
              "trader.a_max": repr(a_min + a_span), "grid.control_points": str(control_points),
              "grid.steps": str(steps), "trader.init_mean": repr(x_min)}
    dt = 1.0 / steps
    if not _every_node_keeps_an_atom(x_grid, atoms, dt):
        with pytest.raises(ConfigError) as err:
            _build(values)
        assert err.value.key in ("trader.a_min", "trader.a_max", "grid.x_max")
        return
    cfg = _build(values)
    stencil, lo, _ = solver.trader_layer(cfg).operator
    assert lo <= 0 <= lo + len(stencil) - 1
    env = solver.forward_environment(cfg, np.zeros(steps), np.zeros(steps))
    policy = solver.best_response(cfg, env)
    targets = x_grid[None, :] + atoms[policy.policy_idx] * dt
    assert ((targets >= x_grid[0]) & (targets <= x_grid[-1])).all()
    flows = solver.induced_flows(cfg, policy, solver.trader_layer(cfg).mu0)
    np.testing.assert_allclose(flows.mu.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(flows.q.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def test_overrides_later_wins(tmp_path):
    """An override beats the file and every earlier override of its key."""
    cfg = _load_text(tmp_path, "pool.tau = 0.01\n",
                     ["pool.tau=0.02", "seed=7", "pool.tau=0.03"])
    assert cfg.pool_tau == 0.03
    assert cfg.seed == 7


def test_overrides_validate_shape():
    with pytest.raises(ConfigError) as err:
        load_config(os.devnull, ["pool.tau"])
    assert err.value.key == "override"
    assert "expected key = value" in err.value.reason
    with pytest.raises(ConfigError) as err:
        load_config(os.devnull, ["no.such.key=1"])
    assert err.value.key == "no.such.key"
    with pytest.raises(ConfigError) as err:
        load_config(os.devnull, ["pool.tau="])
    assert err.value.key == "pool.tau"


def test_load_config_file_and_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("pool.tau = 0.01\nseed = 5\n")
    cfg = load_config(path, overrides=["seed=9"])
    assert cfg.pool_tau == 0.01
    assert cfg.seed == 9


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError) as err:
        load_config(tmp_path / "absent.cfg")
    assert "cannot read" in err.value.reason


def test_list_values_round_trip(tmp_path):
    cfg = _build({"harness.n_values": "2, 4, 8", "lvr.dt_values": "0.5,0.25"})
    assert cfg.harness_n_values == (2, 4, 8)
    assert cfg.lvr_dt_values == (0.5, 0.25)
    again = _load_text(tmp_path, canonical_echo(cfg))
    assert again.harness_n_values == (2, 4, 8)
    assert again.lvr_dt_values == (0.5, 0.25)


def test_float_echo_preserves_exact_value(tmp_path):
    cfg = _build({"pool.tau": "0.30000000000000004"})
    again = _load_text(tmp_path, canonical_echo(cfg))
    assert again.pool_tau == cfg.pool_tau


def test_format_value_renders_each_kind():
    assert [format_value(v) for v in (True, False)] == ["true", "false"]
    assert format_value(7) == format_value(np.int64(7)) == "7"
    assert format_value(0.1) == format_value(np.float64(0.1)) == "0.10000000000000001"
    assert format_value((8, 16)) == "8,16"
    assert format_value((0.5, 1e-4)) == "0.5,0.0001"
    assert format_value("point") == "point"


PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ammgame"


def _imported_modules(path):
    """The package modules ``path`` imports, by their bare names."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level and node.module:
                names.add(node.module.split(".")[0])
            elif node.level:
                names.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("ammgame."):
                names.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            names.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("ammgame."))
    return names


def test_layering_config_below_market_below_solver_and_engine():
    """The solver and the market never reach up into the simulator, the
    harness or the CLI, and the config reaches into none of the layers that
    read it; the time grid is derived in the config alone."""
    for module, banned in (("solver", {"engine", "harness", "cli"}),
                           ("market", {"engine", "harness", "cli"}),
                           ("config", {"market", "engine", "solver", "harness"})):
        assert not _imported_modules(PACKAGE / f"{module}.py") & banned, module

    divisions = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "config.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
        and isinstance(node.left, ast.Attribute) and node.left.attr == "grid_horizon"
    ]
    assert not divisions, "grid.horizon divided outside config: " + ", ".join(divisions)
