"""Small finite fields GF(p^e), written apart from qfrm for input generation
and output checks.

An element is an int whose base-p digits are its polynomial coefficients,
constant term first; the modulus is the monic irreducible polynomial of
degree e whose digit encoding is smallest. That is the representation qfrm
documents, so a coefficient table built here names the same field elements
there. All operations go through q x q tables, which is cheap for the
orders the benchmark uses (q <= 27).
"""

from __future__ import annotations

import functools


def prime_power(q: int) -> tuple[int, int]:
    """(p, e) with p^e = q; raises ValueError if q is not a prime power."""
    p = next(d for d in range(2, q + 1) if q % d == 0)
    e, t = 0, q
    while t % p == 0:
        t //= p
        e += 1
    if t != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, e


def _poly_rem(a: list[int], b: list[int], p: int) -> list[int]:
    """Remainder of a by the monic polynomial b, coefficient lists constant first."""
    a = a[:]
    db = len(b) - 1
    for top in range(len(a) - 1, db - 1, -1):
        c = a[top]
        if c:
            for i in range(db + 1):
                a[top - db + i] = (a[top - db + i] - c * b[i]) % p
    return a[:db]


def _monic(digits: int, degree: int, p: int) -> list[int]:
    out = []
    for _ in range(degree):
        out.append(digits % p)
        digits //= p
    return out + [1]


def _smallest_irreducible(p: int, e: int) -> list[int]:
    for v in range(p ** e):
        poly = _monic(v, e, p)
        if all(
            any(_poly_rem(poly, _monic(w, d, p), p))
            for d in range(1, e // 2 + 1)
            for w in range(p ** d)
        ):
            return poly
    raise ValueError(f"no irreducible polynomial of degree {e} over GF({p})")


class GF:
    def __init__(self, q: int):
        p, e = prime_power(q)
        self.q, self.p, self.e = q, p, e
        modulus = _smallest_irreducible(p, e)
        digits = [[(a // p ** i) % p for i in range(e)] for a in range(q)]

        def encode(ds):
            return sum(d * p ** i for i, d in enumerate(ds))

        self.add = [[encode([(x + y) % p for x, y in zip(da, db)]) for db in digits] for da in digits]
        self.neg = [encode([(-x) % p for x in da]) for da in digits]
        self.mul = [[0] * q for _ in range(q)]
        for a in range(q):
            for b in range(q):
                prod = [0] * (2 * e - 1)
                for i, x in enumerate(digits[a]):
                    for j, y in enumerate(digits[b]):
                        prod[i + j] = (prod[i + j] + x * y) % p
                self.mul[a][b] = encode(_poly_rem(prod, modulus, p) if e > 1 else prod)
        self.inv = [0] + [next(b for b in range(1, q) if self.mul[a][b] == 1) for a in range(1, q)]

    def power(self, a: int, n: int) -> int:
        r = 1
        for _ in range(n):
            r = self.mul[r][a]
        return r

    def trace(self, a: int) -> int:
        """Absolute trace a + a^p + ... + a^(p^(e-1))."""
        acc, t = a, a
        for _ in range(self.e - 1):
            t = self.power(t, self.p)
            acc = self.add[acc][t]
        return acc

    def chi(self, a: int) -> int:
        """Quadratic character of a nonzero element, odd q only."""
        return 1 if self.power(a, (self.q - 1) // 2) == 1 else -1


@functools.lru_cache(maxsize=None)
def gf(q: int) -> GF:
    return GF(q)


def matmul(f: GF, A, B):
    add, mul = f.add, f.mul
    n, k, m = len(A), len(B), len(B[0])
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        row = out[i]
        for t in range(k):
            a = A[i][t]
            if a:
                mul_a, brow = mul[a], B[t]
                for j in range(m):
                    if brow[j]:
                        row[j] = add[row[j]][mul_a[brow[j]]]
    return out


def rank(f: GF, rows) -> int:
    rows = [list(r) for r in rows]
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = f.inv[rows[r][col]]
        rows[r] = [f.mul[inv][v] for v in rows[r]]
        for i in range(len(rows)):
            c = rows[i][col]
            if i != r and c:
                rows[i] = [f.add[a][f.neg[f.mul[c][b]]] for a, b in zip(rows[i], rows[r])]
        r += 1
    return r
