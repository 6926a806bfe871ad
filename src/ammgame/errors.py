"""Exception taxonomy shared across the package."""


class AmmGameError(Exception):
    """Base class for all package errors."""


class InvalidParameter(AmmGameError):
    """A scalar input violates its documented domain (sign, range, finiteness)."""


class DegenerateReserves(AmmGameError):
    """An operation would empty or overdraw a pool reserve, or a price factor
    turned nonpositive.

    Raised instead of clamping: a silently repaired state would corrupt every
    equilibrium diagnostic downstream. Simulation code attaches ``step`` and
    ``quantity`` when the failure happens mid-path; ``solver.solve_mfg``
    attaches ``maps``, the response maps it spent.
    """

    def __init__(self, message, step=None, quantity=None):
        super().__init__(message)
        self.step = step
        self.quantity = quantity


class NotConverged(AmmGameError):
    """An iterative solver exhausted its iteration budget, or a check failed
    its gate.

    Carries the full residual history so callers can report diagnostics
    instead of a bare failure; the CLI writes its last entry as the failed
    run's ``final_residual``. A CLI gate passes its gate statistic as a
    one-element history: arb-check's worst oracle profit gap, lvr-check's z
    of the finest step's mean residual (the gate is 5), nash-test's depth of
    the worst gap's -3 SE floor below zero, and, when the LP search stops at
    ``solver.budget``, the certificate residual. ``solver.solve_mfg`` attaches
    ``maps``, the response maps it spent; when every LP candidate fails,
    ``solver.solve_major_minor`` attaches its ``search_trace`` rows.
    """

    def __init__(self, message, residual_history):
        super().__init__(message)
        self.residual_history = list(residual_history)


class ConfigError(AmmGameError):
    """Configuration file or override rejected. Carries the offending key."""

    def __init__(self, key, reason):
        super().__init__(f"{key}: {reason}" if key else reason)
        self.key = key
        self.reason = reason


class ShareFailed(AmmGameError):
    """A forked process running one share of a batch of independent paths
    ended with a nonzero exit status, so its part of the result is missing."""
