"""Exception types shared across the package."""


class As90Error(Exception):
    """Base class for all domain errors raised by this package."""


class BadInput(As90Error, ValueError):
    """An argument outside the range or syntax a function accepts."""


class NotPrime(As90Error):
    pass


class ReducibleModulus(As90Error):
    pass


class BadSubfieldStep(As90Error):
    pass


class CtxMismatch(As90Error):
    pass


class DivisionByZero(As90Error, ZeroDivisionError):
    pass


class ZeroElement(As90Error):
    pass


class ZeroPolynomial(As90Error):
    pass


class NoEmbedding(As90Error):
    pass


class NotInSubgroup(As90Error):
    pass


class OrderTooLarge(As90Error):
    pass


class FactorizationTooHard(As90Error):
    pass


class FieldTooLarge(As90Error):
    pass


class NoSuchDegree(As90Error):
    pass


class RandomRetriesExhausted(As90Error):
    pass


class TraceNotZero(As90Error):
    pass


class TraceNotOne(As90Error):
    pass


class NoRoot(As90Error):
    pass


class NotApplicable(As90Error):
    """A root constructor's precondition fails for this field."""


class WrongNpCase(NotApplicable):
    pass


class WrongCongruence(NotApplicable):
    pass


class BadOrder(NotApplicable):
    pass


class UnsupportedTwoPart(NotApplicable):
    pass


class EqualPrimes(As90Error):
    pass


class NotFound(As90Error):
    pass
