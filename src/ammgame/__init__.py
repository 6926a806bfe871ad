"""Constant-product market game: pool mechanics, agents, equilibria, diagnostics."""

__version__ = "0.1.0"

from .config import SimConfig, default_config, load_config
from .engine import TimeGrid, make_noise, simulate
from .errors import (
    AmmGameError,
    ConfigError,
    DegenerateReserves,
    InvalidParameter,
    NotConverged,
)
from .harness import convergence_study, epsilon_nash_gap
from .lvr import run_lvr_experiment
from .pool import PoolState, make_pool, quote_trade
from .solver import solve_major_minor, solve_mfg

__all__ = [
    "__version__",
    "AmmGameError",
    "ConfigError",
    "DegenerateReserves",
    "InvalidParameter",
    "NotConverged",
    "PoolState",
    "SimConfig",
    "TimeGrid",
    "convergence_study",
    "default_config",
    "epsilon_nash_gap",
    "load_config",
    "make_noise",
    "make_pool",
    "quote_trade",
    "run_lvr_experiment",
    "simulate",
    "solve_major_minor",
    "solve_mfg",
]
