"""Helpers shared by the test modules."""

from ammgame.config import default_config
from ammgame.market import Market

# dw0, dw_traders, dw_lp of a noise-free step; integer zeros keep Fractions exact
NO_NOISE = (0, 0, (0, 0, 0))


def bare_market(**kw):
    """A ``Market`` from ``kw``: unless it says otherwise, no noise, flow sign
    +1, arbitrage and slippage on; integer zeros keep Fractions exact."""
    plain = dict(sign=1, sigma=0, arbitrage=True, slippage=True, trader_sigma=0, sigma0=0,
                 lp_vols=(0, 0, 0))
    return Market(**{**plain, **kw})


def small_config(**kw):
    """The default config on a 10-step, 41-node, 5-atom grid, then ``kw``."""
    return default_config(**{"grid_steps": 10, "grid_x_points": 41,
                             "grid_control_points": 5, **kw})
