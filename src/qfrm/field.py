"""Small finite fields GF(p^e) with a fixed, reproducible representation.

Elements are plain ints in ``range(q)``: the base-p digits of an element
are its coordinates in the polynomial basis, constant term least
significant, so the prime subfield occupies indices ``0..p-1`` and the
smallest-index conventions used elsewhere (nonsquares, trace-one
elements, point orderings) are well defined.

The modulus is the monic irreducible polynomial of degree e over GF(p)
whose digit encoding is smallest; candidates are scanned in encoding
order and tested with a Rabin-style criterion, so two constructions of
the same (p, e) agree element for element.

Multiplication runs off discrete-log tables against the smallest
generator, built lazily; fields too large for tables fall back to
polynomial arithmetic per operation. ``add_array``/``mul_array`` expose
full q x q numpy operation tables for vectorised enumeration work.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import (
    EvenCharacteristic,
    FieldTooLarge,
    InternalInconsistency,
    InverseOfZero,
    NonPrime,
    OddCharacteristic,
    OutOfRange,
)

MAX_ORDER = 1 << 20

# discrete-log tables are built only up to this order
_SCALAR_TABLE_MAX = 1 << 16

# q x q numpy operation tables are built only up to this order
GRID_TABLE_MAX = 1 << 10


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


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

def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_sub(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i in range(n):
        ai = a[i] if i < len(a) else 0
        bi = b[i] if i < len(b) else 0
        out[i] = (ai - bi) % p
    return _poly_trim(out)


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


def _poly_powmod(base, n, mod, p):
    result = [1]
    base = _poly_mod(list(base), mod, p)
    while n:
        if n & 1:
            result = _poly_mod(_poly_mul(result, base, p), mod, p)
        base = _poly_mod(_poly_mul(base, base, p), mod, p)
        n >>= 1
    return result


def _poly_gcd(a, b, p):
    a = _poly_trim(list(a))
    b = _poly_trim(list(b))
    while b:
        inv = pow(b[-1], -1, p)
        monic = [(c * inv) % p for c in b]
        a, b = monic, _poly_mod(a, monic, p)
    return a


def _is_irreducible(poly, p):
    """Rabin test: x^(p^e) = x mod f, and for every prime l | e the
    polynomial x^(p^(e/l)) - x is coprime to f."""
    e = len(poly) - 1
    if e == 1:
        return True
    x = [0, 1]
    t = x
    for _ in range(e):
        t = _poly_powmod(t, p, poly, p)
    if t != x:
        return False
    for l in _prime_factors(e):
        t = x
        for _ in range(e // l):
            t = _poly_powmod(t, p, poly, p)
        if len(_poly_gcd(_poly_sub(t, x, p), poly, p)) > 1:
            return False
    return True


class FiniteField:
    """GF(p^e); immutable, all operations are pure functions of int indices."""

    def __init__(self, p: int, e: int = 1):
        if not isinstance(p, int) or not _is_prime(p):
            raise NonPrime(f"characteristic {p} is not prime")
        if not isinstance(e, int) or e < 1:
            raise OutOfRange(f"extension degree must be >= 1, got {e}")
        q = p ** e
        if q > MAX_ORDER:
            raise FieldTooLarge(f"q = {q} exceeds the cap {MAX_ORDER}")
        self.p = p
        self.e = e
        self.q = q
        self.zero = 0
        self.one = 1
        self.modulus = self._find_modulus(p, e)
        # modulus packed as an int bitmask, used by the char-2 fast path
        self._mod_mask = sum(c << i for i, c in enumerate(self.modulus))

    @staticmethod
    def _find_modulus(p, e):
        for v in range(p ** e):
            low = []
            t = v
            for _ in range(e):
                low.append(t % p)
                t //= p
            poly = low + [1]
            if _is_irreducible(poly, p):
                return tuple(poly)
        raise InternalInconsistency("no irreducible polynomial found")  # unreachable

    # -- element encoding ---------------------------------------------------

    def digits(self, a: int) -> tuple[int, ...]:
        """Base-p digits of an element, constant term first, length e."""
        out = []
        for _ in range(self.e):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def from_digits(self, ds) -> int:
        a = 0
        for d in reversed(list(ds)):
            a = a * self.p + (d % self.p)
        return a

    def _int_to_poly(self, a):
        out = []
        while a:
            out.append(a % self.p)
            a //= self.p
        return out

    def _poly_to_int(self, poly):
        a = 0
        for c in reversed(poly):
            a = a * self.p + c
        return a

    def elements(self) -> range:
        return range(self.q)

    # -- raw arithmetic (used for bootstrap and oversized fields) ------------

    def _mul_raw(self, a, b):
        if self.p == 2:
            r = 0
            top = 1 << self.e
            while b:
                if b & 1:
                    r ^= a
                b >>= 1
                a <<= 1
                if a & top:
                    a ^= self._mod_mask
            return r
        prod = _poly_mul(self._int_to_poly(a), self._int_to_poly(b), self.p)
        return self._poly_to_int(_poly_mod(prod, list(self.modulus), self.p))

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
        if self.q > _SCALAR_TABLE_MAX:
            return None
        g = self._find_generator()
        exp = [1] * (self.q - 1)
        for k in range(1, self.q - 1):
            exp[k] = self._mul_raw(exp[k - 1], g)
        log = [0] * self.q
        for k, v in enumerate(exp):
            log[v] = k
        return exp, log

    # -- field operations -----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.e == 1:
            return (a + b) % self.p
        rows = self._add_rows
        if rows is not None:
            return rows[a][b]
        p = self.p
        s = 0
        w = 1
        while a or b:
            s += ((a + b) % p) * w
            a //= p
            b //= p
            w *= p
        return s

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        if self.e == 1:
            return (-a) % self.p
        p = self.p
        s = 0
        w = 1
        while a:
            s += ((p - a % p) % p) * w
            a //= p
            w *= p
        return s

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        el = self._exp_log
        if el is None:
            return self._mul_raw(a, b)
        exp, log = el
        return exp[(log[a] + log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise InverseOfZero("cannot invert 0")
        if self.e == 1:
            return pow(a, -1, self.p)
        el = self._exp_log
        if el is None:
            return self._pow_raw(a, self.q - 2)
        exp, log = el
        return exp[(self.q - 1 - log[a]) % (self.q - 1)]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            return self.pow(self.inv(a), -n)
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

    def sqrt(self, a: int) -> int:
        """Unique square root in even characteristic (inverse Frobenius)."""
        if self.p != 2:
            raise OddCharacteristic("unique square roots need even characteristic")
        return self.pow(a, self.q // 2)

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
        idx = np.arange(self.q, dtype=np.int64)
        if self.p == 2:
            table = idx[:, None] ^ idx[None, :]
        else:
            table = np.zeros((self.q, self.q), dtype=np.int64)
            w = 1
            for _ in range(self.e):
                d = (idx // w) % self.p
                table += w * ((d[:, None] + d[None, :]) % self.p)
                w *= self.p
        return table.astype(self.dtype)

    @functools.cached_property
    def mul_array(self) -> np.ndarray:
        self._require_grid()
        exp, log = self._exp_log
        table = np.zeros((self.q, self.q), dtype=np.int64)
        if self.q > 1:
            la = np.array(log[1:], dtype=np.int64)
            grid = (la[:, None] + la[None, :]) % (self.q - 1)
            table[1:, 1:] = np.array(exp, dtype=np.int64)[grid]
        return table.astype(self.dtype)

    @functools.cached_property
    def _add_rows(self):
        if self.q > GRID_TABLE_MAX:
            return None
        return self.add_array.tolist()

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
    p = 2
    while q % p:
        p += 1
        if p * p > q:
            p = q
            break
    e = 0
    t = q
    while t % p == 0:
        t //= p
        e += 1
    if t != 1:
        raise NonPrime(f"{q} is not a prime power")
    return field_new(p, e)
