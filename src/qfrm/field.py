"""Small finite fields GF(p^e) with a fixed, reproducible representation.

Elements are plain ints in ``range(q)``: the base-p digits of an element
are its coordinates in the polynomial basis, constant term least
significant, so the prime subfield occupies indices ``0..p-1`` and the
smallest-index conventions used elsewhere (nonsquares, trace-one
elements, point orderings) are well defined.

The modulus is the monic irreducible polynomial of degree e over GF(p)
whose digit encoding is smallest; candidates are scanned in encoding
order and tested by trial division, so two constructions of the same
(p, e) agree element for element.

The scalar ops ``add``, ``neg``, ``sub``, ``mul`` and ``inv`` take the
first of three tiers that applies: integers mod p over a prime field, or
XOR of indices over GF(2^e) (``add``, ``neg``, ``sub``); over an
extension field with q at most ``GRID_TABLE_MAX``, lists built once per
field (the rows of the q x q add and mul tables, and the negation of
each element), whose entries are the q element ints themselves; past
that bound (and for ``inv`` on every extension field), discrete-log
tables against the smallest generator g: exp, log and the Zech
logarithms Z(k) = log(1 + g^k), so that g^i + g^j = g^(i + Z(j - i))
(Lidl and Niederreiter, *Finite Fields*). The log tables are built with
numpy on first use, in about a second and 56 MB at q = 2^20; an op on
zero returns before any table is read. Prime fields are tested first and
never read a table, because reading a cached table moves the instance's
attributes into a dict and slows every later op. ``add_array`` and
``mul_array`` expose full q x q numpy operation tables for vectorised
enumeration work.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import (
    EvenCharacteristic,
    FieldTooLarge,
    InternalInconsistency,
    InverseOfZero,
    NonPrime,
    OddCharacteristic,
    OutOfRange,
    count_text,
)

MAX_ORDER = 1 << 20

# q x q numpy operation tables are built only up to this order
GRID_TABLE_MAX = 1 << 10


def _prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


# -- polynomial helpers over GF(p); coefficient lists, constant term first --

def _digits(a, p, e):
    # the e base-p digits of a: its coefficients in the polynomial basis
    return [a // p ** k % p for k in range(e)]


def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a, mod, p):
    # mod must be monic
    a = list(a)
    dm = len(mod) - 1
    while len(a) > dm:
        c = a[-1]
        if c:
            shift = len(a) - 1 - dm
            for i in range(dm):
                a[shift + i] = (a[shift + i] - c * mod[i]) % p
        a.pop()
    return _poly_trim(a)


class FiniteField:
    """GF(p^e); immutable, all operations are pure functions of int indices."""

    def __init__(self, p: int, e: int = 1):
        if not isinstance(p, int) or p < 2:
            raise NonPrime(f"characteristic {p} is not prime")
        if not isinstance(e, int) or e < 1:
            raise OutOfRange(f"extension degree must be >= 1, got {e}")
        # p and e are bounded (2^e <= p^e) before p^e is built or p factored
        if p > MAX_ORDER or e >= MAX_ORDER.bit_length() or p ** e > MAX_ORDER:
            raise FieldTooLarge(f"GF({count_text(p)}^{count_text(e)}) exceeds the cap {MAX_ORDER}")
        if _prime_factors(p) != [p]:
            raise NonPrime(f"characteristic {p} is not prime")
        self.p = p
        self.e = e
        self.q = p ** e
        self.modulus = self._find_modulus(p, e)

    @staticmethod
    def _find_modulus(p, e):
        # a monic poly of degree e is irreducible iff no monic poly of degree
        # 1..e//2 divides it; that is at most 2 p^(e/2) <= 2^11 trial
        # divisions per candidate, since p^e <= MAX_ORDER
        for v in range(p ** e):
            poly = _digits(v, p, e) + [1]
            if all(_poly_mod(poly, _digits(w, p, d) + [1], p)
                   for d in range(1, e // 2 + 1) for w in range(p ** d)):
                return tuple(poly)
        raise InternalInconsistency("no irreducible polynomial found")  # unreachable

    # -- element encoding ---------------------------------------------------

    def elements(self) -> range:
        return range(self.q)

    # -- raw arithmetic (used to bootstrap the tables) -----------------------

    def _mul_raw(self, a, b):
        p, e = self.p, self.e
        prod = _poly_mod(_poly_mul(_digits(a, p, e), _digits(b, p, e), p), list(self.modulus), p)
        return sum(c * p ** k for k, c in enumerate(prod))

    def _pow_raw(self, a, n):
        r = 1
        while n:
            if n & 1:
                r = self._mul_raw(r, a)
            a = self._mul_raw(a, a)
            n >>= 1
        return r

    def _find_generator(self):
        n = self.q - 1
        if n == 1:
            return 1
        factors = _prime_factors(n)
        for g in range(2, self.q):
            if all(self._pow_raw(g, n // l) != 1 for l in factors):
                return g
        raise InternalInconsistency("multiplicative group has no generator")

    @functools.cached_property
    def _exp_log(self):
        """exp[k] = g^k for the smallest generator g, log its inverse (log[0]
        = 0) and Zech logarithms zech[k] = log(1 + g^k), -1 where 1 + g^k = 0.
        Multiplying by c is a GF(p)-linear map on rows of base-p digits, so
        the powers come a block of s at a time, s^2 >= q - 1: the first block
        doubles from g^0, and each next block is the last one times g^s."""
        p, e, n = self.p, self.e, self.q - 1
        g = self._find_generator()
        size = math.isqrt(n - 1) + 1
        place = p ** np.arange(e)

        def times(c):
            # row j holds the digits of c * x^j, so rows @ times(c) % p is c * rows
            return np.array([self._mul_raw(c, int(w)) for w in place])[:, None] // place % p

        block = np.eye(1, e, dtype=np.int64)
        while len(block) < size:
            block = np.concatenate([block, block @ times(self._pow_raw(g, len(block))) % p])
        block, step = block[:size], times(self._pow_raw(g, size))
        exp = np.empty((size, size), dtype=np.intc)
        for row in exp:
            row[:] = block @ place
            block = block @ step % p
        exp = exp.ravel()[:n]
        log = np.zeros(self.q, dtype=np.intc)
        log[exp] = np.arange(n, dtype=np.intc)
        # 1 + g^k: the constant digit of g^k plus one
        zech = log[exp - exp % p + (exp + 1) % p]
        zech[log[p - 1]] = -1
        # lists, whose reads allocate no int; all three share one int per
        # value -1 .. q - 1, 56 MB in all at q = 2^20
        ints = np.arange(-1, self.q).astype(object)
        return tuple(ints[t + 1].tolist() for t in (exp, log, zech))

    # -- field operations -----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.e == 1:
            return (a + b) % self.p
        rows = self._add_rows
        if rows is not None:
            return rows[a][b]
        if a == 0 or b == 0:
            return a + b
        exp, log, zech = self._exp_log
        n = self.q - 1
        z = zech[(log[b] - log[a]) % n]
        return 0 if z < 0 else exp[(log[a] + z) % n]

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        if self.e == 1:
            return (-a) % self.p
        negs = self._neg_list
        if negs is not None:
            return negs[a]
        if a == 0:
            return 0
        exp, log, _ = self._exp_log
        n = self.q - 1
        return exp[(log[a] + n // 2) % n]  # -1 = g^((q - 1) / 2)

    def sub(self, a: int, b: int) -> int:
        # the integer tiers come first: reading a cached property moves the
        # instance's attributes into a dict, and every scalar op on it gets slower
        if self.e == 1:
            return (a - b) % self.p
        if self.p == 2:
            return a ^ b
        negs = self._neg_list
        if negs is not None:
            return self._add_rows[a][negs[b]]
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a * b) % self.p
        rows = self._mul_rows
        if rows is not None:
            return rows[a][b]
        if a == 0 or b == 0:
            return 0
        exp, log, _ = self._exp_log
        return exp[(log[a] + log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise InverseOfZero("cannot invert 0")
        if self.e == 1:
            return pow(a, -1, self.p)
        exp, log, _ = self._exp_log
        return exp[-log[a] % (self.q - 1)]

    def pow(self, a: int, n: int) -> int:
        r = 1
        while n:
            if n & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            n >>= 1
        return r

    def trace(self, a: int) -> int:
        """Absolute trace a + a^p + ... + a^(p^(e-1)); lies in the prime subfield."""
        acc = a
        t = a
        for _ in range(self.e - 1):
            t = self.pow(t, self.p)
            acc = self.add(acc, t)
        return acc

    def quadratic_character(self, a: int) -> int:
        """0 for a = 0, +1 for nonzero squares, -1 for nonsquares (odd q only)."""
        if self.p == 2:
            raise EvenCharacteristic("quadratic character needs odd characteristic")
        if a == 0:
            return 0
        t = self.pow(a, (self.q - 1) // 2)
        if t == 1:
            return 1
        if t == self.neg(1):
            return -1
        raise InternalInconsistency("a^((q-1)/2) outside {1, -1}")

    def smallest_nonsquare(self) -> int:
        if self.p == 2:
            raise EvenCharacteristic("nonsquares need odd characteristic")
        for a in range(1, self.q):
            if self.quadratic_character(a) == -1:
                return a
        raise InternalInconsistency("no nonsquare found")

    def smallest_trace_one(self) -> int:
        if self.p != 2:
            raise OddCharacteristic("trace-one convention applies to even q only")
        for a in range(1, self.q):
            if self.trace(a) == 1:
                return a
        raise InternalInconsistency("trace is surjective, so this cannot happen")

    # -- vectorised operation tables ------------------------------------------

    @property
    def dtype(self):
        return np.uint8 if self.q <= 256 else np.uint16

    def _require_grid(self):
        if self.q > GRID_TABLE_MAX:
            raise FieldTooLarge(
                f"q x q operation tables are limited to q <= {GRID_TABLE_MAX}"
            )

    @functools.cached_property
    def add_array(self) -> np.ndarray:
        self._require_grid()
        q, p = self.q, self.p
        if p == 2:
            idx = np.arange(q, dtype=self.dtype)
            return idx[:, None] ^ idx
        # each element's base-p digits rewritten in base 2p - 1 (``spread``),
        # so the uint16 sum of two adds digit by digit with no carry; ``fold``
        # maps each such sum (at most 5^6 of them, at q = 3^6) to the element
        # whose digits are its digits mod p
        base = 2 * p - 1
        idx, keys = np.arange(q), np.arange(base ** self.e)
        spread = np.zeros(q, dtype=np.uint16)
        fold = np.zeros(len(keys), dtype=self.dtype)
        w = 1
        for k in range(self.e):
            spread += (idx // w % p * base ** k).astype(np.uint16)
            fold += (keys // base ** k % base % p * w).astype(self.dtype)
            w *= p
        return fold[spread[:, None] + spread]

    @functools.cached_property
    def mul_array(self) -> np.ndarray:
        self._require_grid()
        exp, log, _ = self._exp_log
        # uint16 sums of two logs (at most 2q - 4), reduced in place, then
        # gathered from the exp table; row and column 0 are cleared after
        logs = np.array(log, dtype=np.uint16)
        sums = logs[:, None] + logs
        sums %= self.q - 1
        table = np.array(exp, dtype=self.dtype)[sums]
        table[0] = table[:, 0] = 0
        return table

    def _shared_rows(self, table):
        # one list per row, gathered from an object array of the q element
        # ints, so every entry is one of them: tolist() of the whole table
        # would make a fresh int per entry past 256
        ints = np.arange(self.q).astype(object)
        return [ints[row].tolist() for row in table]

    @functools.cached_property
    def _add_rows(self):
        if self.q > GRID_TABLE_MAX:
            return None
        return self._shared_rows(self.add_array)

    @functools.cached_property
    def _mul_rows(self):
        if self.q > GRID_TABLE_MAX:
            return None
        return self._shared_rows(self.mul_array)

    @functools.cached_property
    def _neg_list(self):
        # -a for every a, read by neg and sub over odd extension fields:
        # the zero of row a of the add table sits in column -a
        if self.q > GRID_TABLE_MAX:
            return None
        return self.add_array.argmin(axis=1).tolist()

    # -- misc -----------------------------------------------------------------

    def describe(self) -> dict:
        return {"q": self.q, "p": self.p, "e": self.e, "modulus": list(self.modulus)}

    def __repr__(self):
        return f"GF({self.q})"

    def __eq__(self, other):
        return isinstance(other, FiniteField) and (self.p, self.e) == (other.p, other.e)

    def __hash__(self):
        return hash((self.p, self.e))


@functools.lru_cache(maxsize=None)
def field_new(p: int, e: int = 1) -> FiniteField:
    """The field GF(p^e) with the deterministic smallest modulus."""
    return FiniteField(p, e)


def field_from_order(q: int) -> FiniteField:
    """Factor q and return GF(q); q must be a prime power."""
    if not isinstance(q, int) or q < 2:
        raise NonPrime(f"{q} is not a prime power")
    if q > MAX_ORDER:
        raise FieldTooLarge(f"q = {q} exceeds the cap {MAX_ORDER}")
    factors = _prime_factors(q)
    if len(factors) != 1:
        raise NonPrime(f"{q} is not a prime power")
    p, e = factors[0], 1
    while p ** e < q:
        e += 1
    return field_new(p, e)
