"""Exception types shared across the package, the exact Decimal context,
and the text of the exact counts their messages quote."""

import decimal
from decimal import Decimal

# exact Decimal arithmetic: every operation is exact or raises
EXACT_CONTEXT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation,
           decimal.DivisionByZero, decimal.Overflow],
)

# ints up to this many bits go to Decimal in one conversion
_DIRECT_BITS = 1 << 12


def count_text(n: int | Decimal) -> str:
    """The decimal digits of an exact count, however long; every printed
    count goes through it. ``str`` of an int refuses past CPython's digit
    cap (``sys.set_int_max_str_digits``, 4,300 by default), so an int
    becomes a Decimal built from its binary digits; a Decimal, as the
    CLI's tables hold, prints with ``str``."""
    if isinstance(n, Decimal):
        return str(n)
    with decimal.localcontext(EXACT_CONTEXT):
        return str(_decimal(n, {}))


def _decimal(n: int, powers: dict) -> Decimal:
    """n as an exact Decimal. Converting an int is quadratic in its
    length, so a long n is split by bits, n = hi * 2^k + lo with k a power
    of two, and the halves are converted and joined in Decimal
    arithmetic, whose products of long numbers are subquadratic.
    ``powers`` keeps each 2^k, which every split at one depth shares."""
    size = n.bit_length()
    if size <= _DIRECT_BITS:
        return Decimal(n)
    k = 1 << (size - 1).bit_length() - 1
    if k not in powers:
        powers[k] = Decimal(2) ** k
    return _decimal(n >> k, powers) * powers[k] + _decimal(n & (1 << k) - 1, powers)


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


class BudgetExceeded(QfrmError, RuntimeError):
    """Exhaustive enumeration would exceed its budget; raised by ``admit``."""


class UnsupportedParameters(QfrmError, ValueError):
    """Code family is undefined for the requested parameters."""


class UnsupportedForBinary(QfrmError, ValueError):
    """Operation applies only to q > 2."""


class InternalInconsistency(QfrmError, RuntimeError):
    """Two computation paths that must agree disagreed."""


class InexactDivision(InternalInconsistency, ArithmeticError):
    """A closed-form count failed its exact-divisibility check."""


def _exact_div(numerator: int, denominator: int) -> int:
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise InexactDivision(f"{numerator} is not divisible by {denominator}")
    return quotient


class NonDivisibleWeight(InternalInconsistency, ArithmeticError):
    """A weight expected to be divisible by q - 1 is not."""
