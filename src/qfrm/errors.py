"""Exception types shared across the package, and the text of the exact
counts their messages quote."""

from decimal import Decimal


def count_text(n: int) -> str:
    """The decimal digits of an exact count, however long. ``str`` of an
    int refuses past CPython's digit cap (``sys.set_int_max_str_digits``,
    4,300 by default); a Decimal is built from the integer's binary
    digits and printed without that check."""
    return str(Decimal(n))


def admit(work: int, budget: int, unit: str) -> None:
    """The one admission rule of the brute-force oracles: raise
    BudgetExceeded, quoting both counts in full, when ``work`` (counted
    in ``unit``, before anything is allocated) is over ``budget``."""
    if work > budget:
        raise BudgetExceeded(f"{count_text(work)} {unit} exceed {count_text(budget)}")


class QfrmError(Exception):
    """Base class for every error raised by this package."""


class NonPrime(QfrmError, ValueError):
    """Field characteristic must be prime (or the order a prime power)."""


class FieldTooLarge(QfrmError, ValueError):
    """Requested field order exceeds the supported cap."""


class InverseOfZero(QfrmError, ZeroDivisionError):
    """Multiplicative inverse of the zero element."""


class EvenCharacteristic(QfrmError, ValueError):
    """Operation requires odd characteristic but the field is even."""


class OddCharacteristic(QfrmError, ValueError):
    """Operation requires even characteristic but the field is odd."""


class OutOfRange(QfrmError, ValueError):
    """Numeric argument outside its admissible range."""


class DimensionMismatch(QfrmError, ValueError):
    """Vector or coefficient table has the wrong shape."""


class InconsistentRankType(QfrmError, ValueError):
    """A (rank, type) pair violates the classification invariants."""


class InconsistentQuery(QfrmError, ValueError):
    """Coset query combines options that cannot occur together."""


class InexactDivision(QfrmError, ArithmeticError):
    """A closed-form count failed its exact-divisibility check."""


class NonDivisibleWeight(QfrmError, ArithmeticError):
    """A weight expected to be divisible by q - 1 is not."""


class BudgetExceeded(QfrmError, RuntimeError):
    """Exhaustive enumeration would exceed its budget; raised by ``admit``."""


class UnsupportedParameters(QfrmError, ValueError):
    """Code family is undefined for the requested parameters."""


class UnsupportedForBinary(QfrmError, ValueError):
    """Operation applies only to q > 2."""


class InternalInconsistency(QfrmError, RuntimeError):
    """Two computation paths that must agree disagreed."""
