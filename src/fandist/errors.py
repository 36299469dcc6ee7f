"""Shared exception types."""


class FandistError(Exception):
    """Base class for package errors."""


class PreconditionError(FandistError):
    """An operation's stated precondition is violated."""


class NotAffinelySpanning(PreconditionError):
    pass


class NotADependence(PreconditionError):
    pass


class ZeroFunctional(PreconditionError):
    pass


class NonzeroSum(PreconditionError):
    pass


class NotSpanning(PreconditionError):
    pass


class MalformedFan(PreconditionError):
    pass


class SizeGateExceeded(FandistError):
    """Search space above the configured gate (distinct from 'none found')."""


class GuaranteeViolation(FandistError):
    """A theorem promised a result, the exhaustive search found none: a bug."""


class VerificationBug(FandistError):
    """An internal exact re-verification failed: a bug, never a data error."""
