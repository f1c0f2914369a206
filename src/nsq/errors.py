"""Exception types shared across the package."""


class NsqError(Exception):
    """Base class for all domain errors raised by this package."""


class GcdNotOne(NsqError):
    """The generator list does not have gcd 1 where that is required."""


class CapExceeded(NsqError):
    """A sieve or enumeration would exceed its configured resource cap."""


class NotAMember(NsqError):
    """An integer expected to lie in the semigroup does not."""


class DivisionByZeroPoly(NsqError):
    """Polynomial division by the zero polynomial."""


class PoleAtZero(NsqError):
    """Series expansion requested for a rational function with den(0) = 0."""


class NoMatchingRow(NsqError):
    """The instance lies outside Table 1 (three generators, p in {2, 3})."""


class NonCoprimeFactors(NsqError):
    """Denominator factors share a nonconstant polynomial gcd."""


class InternalMismatch(NsqError):
    """Two independent computation paths disagreed; signals a bug."""


class PreconditionUnmet(NsqError):
    """An operation's stated precondition does not hold for the input."""


class NegativeNumerator(NsqError):
    """Generator extraction needs a nonnegative numerator and got one with
    a negative coefficient."""


class NotCoprimePart(NsqError):
    """A residue expected to be nonzero mod p was zero."""
