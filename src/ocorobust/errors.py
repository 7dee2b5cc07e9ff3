"""Exception types shared across the toolkit."""


class OcoRobustError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatch(OcoRobustError):
    """Operands have incompatible shapes."""


class FactorizationError(OcoRobustError):
    """A matrix factorization failed (not SPD, singular, ...)."""


class AssumptionViolation(OcoRobustError):
    """A standing assumption on the problem data does not hold.

    ``name`` identifies which check failed (e.g. "disturbance sets",
    "constraint sets", "stabilizing feedback", "horizon", "rpi containment"),
    ``label`` is the line ``validate`` prints for it, ``detail`` the message,
    and ``checks`` the (label, detail) pairs of the checks that passed first.
    """

    def __init__(self, name, message, label=None, checks=()):
        self.name = name
        self.label = label or name
        self.detail = message
        self.checks = list(checks)
        super().__init__(f"{name}: {message}")


class InfeasibleError(OcoRobustError):
    """A feasibility problem (QP, set emptiness, projection) has no solution."""


class InitializationError(OcoRobustError):
    """Controller initialization violates the tightened constraints."""


class StepError(OcoRobustError):
    """A controller step failed; carries the step index."""

    def __init__(self, t, cause):
        self.t = t
        self.cause = cause
        super().__init__(f"controller step t={t} failed: {cause}")


class ConfigError(OcoRobustError):
    """Configuration file is malformed or violates the schema."""

    def __init__(self, message, line=None, field=None):
        self.line = line
        self.field = field
        parts = []
        if line is not None:
            parts.append(f"line {line}")
        if field is not None:
            parts.append(f"field '{field}'")
        prefix = ", ".join(parts)
        super().__init__(f"{prefix}: {message}" if prefix else message)
