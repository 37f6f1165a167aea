"""Exception taxonomy shared across the package.

ConfigError maps to CLI exit code 2, the numerical errors to exit code 1.
"""


class DeuqError(Exception):
    """Base class for all package errors."""


class ConfigError(DeuqError, ValueError):
    """Invalid configuration or precondition on user-supplied settings."""


class StructuralError(DeuqError, ValueError):
    """Shape mismatch, grid mismatch, or misuse of a jet kernel or a jet."""


class DomainError(DeuqError, ValueError):
    """Mathematical domain violation (a singular NLM precision, alpha <= 1, ...)."""


class DivergenceError(DeuqError, RuntimeError):
    """Training produced a non-finite objective.

    Carries the last finite parameter vector and the loss history recorded
    up to the failure.
    """

    def __init__(self, message, last_params=None, loss_history=None):
        super().__init__(message)
        self.last_params = last_params
        self.loss_history = loss_history or []


class OracleError(DeuqError, RuntimeError):
    """A reference integrator produced a non-finite state."""
