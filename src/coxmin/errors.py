"""Exception types shared across the package."""


class CoxminError(Exception):
    """Base class for all package-specific errors."""


class NotFinite(CoxminError):
    """The Coxeter matrix does not define a finite group."""


class TooLarge(CoxminError):
    """Group order exceeds the configured enumeration bound."""


class FieldTooSmall(CoxminError):
    """The current field level cannot express a required cosine.

    Raised by ScalarField.two_cos when the reduced angle q (for 2cos(q*pi))
    has a denominator above 3 that does not divide L; callers that can
    raise the field level catch it and retry at lcm(L, denominator of q).
    """


class FieldMismatch(CoxminError):
    """Scalars of different field levels met in one operation, or a scalar
    was embedded into a field whose level its own level does not divide."""


class ScalarDomainError(CoxminError, ArithmeticError):
    """A scalar operation outside its domain: the inverse of zero, the
    rational value of an irrational scalar, more coefficients than the field
    degree, or a field level below 1."""


class MultiplicityMismatch(CoxminError):
    """Trace-DFT multiplicities disagree with exact kernel ranks."""


class NoRegularPoint(CoxminError):
    """The requested constrained regular point does not exist."""


class NotAdmissible(CoxminError):
    """The angle sequence does not span a regular point of V."""


class NotGoodPosition(CoxminError):
    """The chamber is not in good position for the given filtration."""


class HypothesisFailed(CoxminError):
    """Preconditions of a length-formula lemma could not be verified."""


class IdentityFailed(CoxminError):
    """A braid identity predicted by a theorem failed to hold."""


class TheoremViolation(CoxminError):
    """A computation contradicts a proved theorem; a test failure."""
