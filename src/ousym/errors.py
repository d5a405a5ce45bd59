"""Exception hierarchy for the ousym package.

Every error raised on purpose by the library derives from OusymError, so the
CLI can map "our" failures to the validation exit code and everything else to
the internal-error code.
"""


class OusymError(Exception):
    """Base class for all package errors."""


# --- model construction ---

class DimensionMismatch(OusymError):
    """Vector or matrix lengths do not match the declared dimension."""


class NonPositiveFriction(OusymError):
    """A friction coefficient beta_i is zero or negative."""


class ZeroNoise(OusymError):
    """A noise intensity mu_i is zero."""


# --- probing and evaluation ---

class EmptyProbeSet(OusymError):
    """An operation that needs probe points received none."""


class NonFiniteEvaluation(OusymError):
    """A force field evaluated to NaN or infinity at a probe, or a system
    parameter is NaN or infinite."""


class NonFiniteResult(OusymError):
    """A derivative, residual, or bracket came out NaN or infinite."""


class EvaluationDomainError(OusymError):
    """log or sqrt applied outside its domain during expression evaluation."""


# --- symmetry / classification ---

class NotAnInvariant(OusymError):
    """scale_by_invariant received a function that fails the invariance test."""


class NotDiagonalizable(OusymError):
    """The force matrix has no usable eigenbasis (defective, or a critically
    damped mode with a double rate)."""


class UnclassifiableForce(OusymError):
    """Probe points disagree about the force class."""


class WrongForceClass(OusymError):
    """A solver was called on a system whose force it does not handle."""


class CertificationFailed(OusymError):
    """A closed-form generator or invariant failed its numerical
    re-certification against the determining equations."""


# --- integration ---

class InvalidGrid(OusymError):
    """Bad time-grid parameters (no steps, reversed interval, bad coarsening)."""


class NonFiniteState(OusymError):
    """A simulated path blew up (magnitude above the guard threshold)."""


class DomainExit(OusymError):
    """An exact solution left the domain of its defining change of variables."""


# --- expression parsing ---

class ExpressionError(OusymError):
    """Base for expression-language errors; carries a 1-based byte offset."""

    def __init__(self, message, offset=None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (offset {offset})"
        super().__init__(message)


class ExpressionSyntaxError(ExpressionError):
    """Malformed expression text."""


class UnknownIdentifier(ExpressionError):
    """Identifier is not x1..xn, norm, or a known function name."""


class ArityMismatch(ExpressionError):
    """Number of semicolon-separated components differs from the dimension."""
