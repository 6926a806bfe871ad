"""Config parsing, validation, overrides, and the canonical echo."""

import pickle
from dataclasses import fields, replace

import pytest

import ammgame
from ammgame.config import (
    SCHEMA,
    SimConfig,
    apply_overrides,
    build_config,
    canonical_echo,
    config_hash,
    default_config,
    load_config,
    parse_config_text,
)
from ammgame.errors import ConfigError


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
    cfg = build_config({"pool.y0": "250"})
    assert cfg.lp_z0 == 500.0
    explicit = build_config({"pool.y0": "250", "lp.z0": "7"})
    assert explicit.lp_z0 == 7.0


def test_echo_round_trip_is_identity():
    """echo -> parse -> build reproduces the configuration and its hash."""
    cfg = build_config({"pool.tau": "0.01", "grid.steps": "17", "seed": "42",
                        "lvr.dt_values": "0.02, 0.005",
                        "trader.init_law": "gaussian"})
    text = canonical_echo(cfg)
    cfg2 = build_config(parse_config_text(text))
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


def test_parse_comments_and_blank_lines():
    text = "# leading comment\n\npool.tau = 0.01  # inline\n  grid.steps=7\n"
    values = parse_config_text(text)
    assert values == {"pool.tau": "0.01", "grid.steps": "7"}


def test_parse_rejects_duplicate_key():
    with pytest.raises(ConfigError) as err:
        parse_config_text("seed = 1\nseed = 2\n")
    assert err.value.key == "seed"
    assert "duplicate" in err.value.reason


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError) as err:
        parse_config_text("pool.fee = 0.01\n", source="f.cfg")
    assert err.value.key == "pool.fee"
    assert "f.cfg:1" in err.value.reason


def test_parse_rejects_missing_equals_and_empty_value():
    with pytest.raises(ConfigError) as err:
        parse_config_text("just words\n")
    assert "expected key = value" in err.value.reason
    with pytest.raises(ConfigError) as err:
        parse_config_text("pool.tau =\n")
    assert err.value.key == "pool.tau"


def test_type_errors_name_the_key():
    with pytest.raises(ConfigError) as err:
        build_config({"grid.steps": "many"})
    assert err.value.key == "grid.steps"
    with pytest.raises(ConfigError) as err:
        build_config({"trader.slippage": "maybe"})
    assert err.value.key == "trader.slippage"


def test_range_violations_name_the_key():
    with pytest.raises(ConfigError) as err:
        build_config({"pool.tau": "1.2"})
    assert err.value.key == "pool.tau"
    assert "[0, 1)" in err.value.reason
    # settings the solvers read only from the config
    for key, raw in [("solver.damping", "0"), ("solver.damping", "1.5"), ("solver.tol", "0"),
                     ("solver.max_iter", "0"), ("harness.replications", "1"),
                     ("harness.n_values", "8"), ("harness.n_values", "0,8"),
                     ("harness.n_values", "8,8"), ("lvr.paths", "0"),
                     ("lvr.paths", "1")]:
        with pytest.raises(ConfigError) as err:
            build_config({key: raw})
        assert err.value.key == key
    for key, raw in [("lp.z0", "nan"), ("trader.a_max", "inf"), ("pool.x0", "-inf"),
                     ("trader.init_mean", "nan"), ("lvr.dt_values", "0.01,inf")]:
        with pytest.raises(ConfigError) as err:
            build_config({key: raw})
        assert err.value.key == key
        assert "finite" in err.value.reason
    for values in ({"trader.init_mean": "5.0"},
                   {"trader.init_law": "gaussian", "trader.init_mean": "60.0"},
                   {"grid.x_min": "0.5", "grid.x_max": "2"}):
        with pytest.raises(ConfigError) as err:
            build_config(values)
        assert err.value.key == "trader.init_mean"
        assert "grid.x_min, grid.x_max" in err.value.reason
    assert build_config({"trader.init_mean": "2.0"}).trader_init_mean == 2.0
    # every LVR step size must cut the horizon into n >= 1 whole steps
    for values in ({"lvr.dt_values": "5"}, {"lvr.dt_values": "0.01,0.3"},
                   {"grid.horizon": "0.5", "lvr.dt_values": "0.2"}, {"lvr.dt_values": "5e-324"}):
        with pytest.raises(ConfigError) as err:
            build_config(values)
        assert err.value.key == "lvr.dt_values"
        assert "grid.horizon" in err.value.reason
    assert build_config({"grid.horizon": "0.5", "lvr.dt_values": "0.5,0.1"}).lvr_dt_values == (
        0.5, 0.1)
    # lp.z0 is checked once its 2 * pool.y0 default has resolved
    with pytest.raises(ConfigError) as err:
        build_config({"lp.z0": "-1"})
    assert err.value.key == "lp.z0"
    assert "must be nonnegative" in err.value.reason
    with pytest.raises(ConfigError) as err:
        build_config({"pool.y0": "-1"})
    assert err.value.key == "pool.y0"
    assert build_config({"lp.z0": "0"}).lp_z0 == 0.0
    assert build_config({"pool.y0": "7"}).lp_z0 == 14.0


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
    # lp_z0 keeps its value resolved from the default pool quote
    assert default_config(pool_y0=250.0).lp_z0 == 2000.0
    assert default_config(pool_tau=0.01) == build_config({"pool.tau": "0.01"})


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
        build_config({"trader.a_min": "2", "trader.a_max": "-2"})
    assert err.value.key == "trader.a_max"
    with pytest.raises(ConfigError) as err:
        build_config({"grid.x_min": "1", "grid.x_max": "0"})
    assert err.value.key == "grid.x_max"


def test_overrides_later_wins():
    values = apply_overrides({"pool.tau": "0.01"},
                             ["pool.tau=0.02", "seed=7", "pool.tau=0.03"])
    assert values["pool.tau"] == "0.03"
    assert values["seed"] == "7"


def test_overrides_validate_shape():
    with pytest.raises(ConfigError):
        apply_overrides({}, ["pool.tau"])
    with pytest.raises(ConfigError) as err:
        apply_overrides({}, ["no.such.key=1"])
    assert err.value.key == "no.such.key"
    with pytest.raises(ConfigError):
        apply_overrides({}, ["pool.tau="])


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


def test_list_values_round_trip():
    cfg = build_config({"harness.n_values": "2, 4, 8", "lvr.dt_values": "0.5,0.25"})
    assert cfg.harness_n_values == (2, 4, 8)
    assert cfg.lvr_dt_values == (0.5, 0.25)
    again = build_config(parse_config_text(canonical_echo(cfg)))
    assert again.harness_n_values == (2, 4, 8)
    assert again.lvr_dt_values == (0.5, 0.25)


def test_float_echo_preserves_exact_value():
    cfg = build_config({"pool.tau": "0.30000000000000004"})
    again = build_config(parse_config_text(canonical_echo(cfg)))
    assert again.pool_tau == cfg.pool_tau
