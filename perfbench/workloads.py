"""Seeded op lists for the three workloads.

Nothing here imports qfrm: the program sees only the generated inputs. An
op is a JSON-ready dict; ``generate(workload, seed)`` returns the fields to
build during set-up and the op list in the order every pass runs it.

Inputs are chosen so that the cost of a pass hardly depends on the seed:
the seed picks coefficients, ranks, types, small antithetic offsets of m
and the order of the ops, but not the mix of (q, m) that sets the work.
"""

from __future__ import annotations

import math
import random

from gf import gf, matmul, rank as gf_rank

WORKLOADS = ("oracle-grid", "closed-form", "classify-stream")


# -- oracle-grid -----------------------------------------------------------------------

# The acceptance grids of `qfrm verify`, without the two checks that would take
# most of a pass: codes q=2 m=5 (35.6 s of the 39 s `verify --scope all`) and
# census q=2 m=5 (4.5 s of the remaining 6 s).
CENSUS_GRID = [(2, m) for m in range(1, 5)] + [(3, m) for m in (1, 2, 3)] + [(4, 1), (4, 2), (5, 1), (5, 2)]
SPECTRA_GRID = [(q, m) for q in (2, 3, 4, 5) for m in (1, 2, 3)]
CODES_GRID = [(3, 2), (3, 3), (4, 2), (5, 2), (2, 4)]


def _oracle_grid(rng: random.Random):
    ops = [{"kind": "verify", "scope": "census", "q": q, "m": m} for q, m in CENSUS_GRID]
    ops += [{"kind": "verify", "scope": "spectra", "q": q, "m": m} for q, m in SPECTRA_GRID]
    ops += [{"kind": "verify", "scope": "codes", "q": q, "m": m} for q, m in CODES_GRID]
    rng.shuffle(ops)
    return sorted({op["q"] for op in ops}), ops


# -- closed-form -------------------------------------------------------------------------

# Centre m per q: large enough that big-integer census counts and decimal
# rendering are all the work, small enough that a pass stays near a second.
CLOSED_FORM_M = {2: 96, 3: 72, 4: 64, 5: 64, 8: 56, 9: 56}
M_SPREAD = 4
FORMATS = ("text", "json", "csv")
# CPython refuses to turn an int of more than 4,300 digits into a string; the
# largest frequency of a table is below q^k, so q^k is kept under this many digits.
MAX_DIGITS = 4000


def code_dimension(family: str, q: int, m: int) -> int:
    if family == "rm2":
        return (m * m + m + 2) // 2 if q == 2 else (m * m + 3 * m + 2) // 2
    if family == "hrm2":
        return m * (m + 1) // 2
    if family == "prm2":
        return (m + 1) * (m + 2) // 2
    return m * (m + 1) // 2  # census of all forms


def _closed_form(rng: random.Random):
    ops = []
    for q, m0 in CLOSED_FORM_M.items():
        # each (q, kind) slot runs at m0 - d, m0 and m0 + d, so the cost of a
        # pass is the same to first order whatever d the seed draws
        for kind in ("rm2", "hrm2", "prm2", "count"):
            d = rng.randint(1, M_SPREAD)
            ms = [m0 - d, m0, m0 + d]
            rng.shuffle(ms)
            for m, fmt in zip(ms, FORMATS):
                if kind == "count":
                    ops.append({"kind": "count", "q": q, "m": m, "format": fmt})
                else:
                    ops.append({"kind": "dist", "family": kind, "q": q, "m": m, "format": fmt})
        if q > 2:
            d = rng.randint(1, M_SPREAD)
            ops += [{"kind": "coset", "q": q, "m": m0 - d}, {"kind": "coset", "q": q, "m": m0 + d}]
    for op in ops:
        family = op.get("family", "rm2" if op["kind"] == "coset" else "census")
        digits = code_dimension(family, op["q"], op["m"]) * math.log10(op["q"])
        if digits > MAX_DIGITS:
            raise ValueError(f"{op} would print a frequency of about {digits:.0f} digits")
    rng.shuffle(ops)
    return sorted(CLOSED_FORM_M), ops


# -- classify-stream -------------------------------------------------------------------

# One even-rank form per (q, m): each takes the q^m enumeration path of
# `classify`. There are more pairs than the 8 entries of the plane cache in
# qfrm.forms, and they run in this fixed cyclic order in every pass, so each
# call finds the cache cold and the cache's contents at any moment (hence
# peak memory) do not depend on the seed.
ENUM_PAIRS = (
    [(2, m) for m in range(10, 18)] + [(4, m) for m in range(5, 9)] + [(8, 4), (8, 5), (8, 6)] + [(16, 3), (16, 4)]
)
# Odd-rank forms over even q: rank and type come from the radical, no enumeration.
EVEN_ODD_RANK = [(2, m) for m in (5, 9, 13, 17)] + [(4, m) for m in (4, 7, 10)] + [(8, m) for m in (3, 6, 9)] + [(16, m) for m in (3, 5, 8)]
# Odd q, diagonalised: prime fields (whose zeros the checks count, so q^m
# stays below about 6e5) and extension fields.
ODD_Q_M = {3: range(4, 13), 5: range(3, 9), 7: range(3, 7), 11: range(3, 6), 13: range(3, 6), 9: range(4, 13), 25: range(3, 11), 27: range(3, 11)}
FORMS_PER_ODD_PAIR = 3
ZERO_FORMS = [(3, 6), (4, 5)]


def _random_nonzero(rng, f):
    return rng.randrange(1, f.q)


def _even_q_plane(rng, f, arf=None):
    """(alpha, beta, gamma) of beta x^2 + alpha x y + gamma y^2 and its Arf invariant.

    The plane is hyperbolic when Tr(beta gamma / alpha^2) = 0 and anisotropic
    otherwise; with ``arf`` given, gamma is solved for to get that value.
    """
    alpha = _random_nonzero(rng, f)
    a2 = f.mul[alpha][alpha]
    if arf is None:
        beta, gamma = rng.randrange(f.q), rng.randrange(f.q)
    else:
        beta = _random_nonzero(rng, f)
        lam = rng.choice([x for x in range(f.q) if f.trace(x) == arf])
        gamma = f.mul[f.mul[a2][lam]][f.inv[beta]]
    return (alpha, beta, gamma), f.trace(f.mul[f.mul[beta][gamma]][f.inv[a2]])


def _base_form(rng, f, m, r, tau):
    """Upper-triangular matrix of a form of rank r and type tau in x_1..x_r.

    Over odd q it is sum a_i x_i^2, whose type is the character of
    (-1)^floor(r/2) prod a_i. Over even q it is an orthogonal sum of planes,
    plus c x_r^2 for odd r, whose type is (-1)^(sum of the planes' Arf invariants).
    """
    U = [[0] * m for _ in range(m)]
    if r == 0:
        return U
    if f.q % 2:
        diag = [_random_nonzero(rng, f) for _ in range(r - 1)]
        disc = f.neg[1] if (r // 2) % 2 else 1
        for a in diag:
            disc = f.mul[disc][a]
        want = tau * f.chi(disc)
        diag.append(rng.choice([a for a in range(1, f.q) if f.chi(a) == want]))
        for i, a in enumerate(diag):
            U[i][i] = a
        return U
    arf_total = 0
    for t in range(r // 2):
        last = t == r // 2 - 1 and r % 2 == 0
        need = None
        if last:
            need = arf_total ^ (0 if tau == 1 else 1)
        (alpha, beta, gamma), arf = _even_q_plane(rng, f, need)
        arf_total ^= arf
        i, j = 2 * t, 2 * t + 1
        U[i][j], U[i][i], U[j][j] = alpha, beta, gamma
    if r % 2:
        U[r - 1][r - 1] = _random_nonzero(rng, f)
    return U


def _random_invertible(rng, f, m):
    while True:
        A = [[rng.randrange(f.q) for _ in range(m)] for _ in range(m)]
        if gf_rank(f, A) == m:
            return A


def substitute(f, m, coeffs, A):
    """Coefficient table of Q(A x), in the layout qfrm documents.

    The table holds c_ij for i <= j, row-major. Over even q the form is
    sum c_ij x_i x_j; over odd q the table is the upper half of the
    symmetric matrix S with Q(x) = x^T S x.
    """
    odd = f.q % 2 == 1
    U = [[0] * m for _ in range(m)]
    k = 0
    for i in range(m):
        for j in range(i, m):
            U[i][j] = coeffs[k]
            if odd:
                U[j][i] = coeffs[k]
            k += 1
    At = [list(col) for col in zip(*A)]
    M = matmul(f, At, matmul(f, U, A))
    out = []
    for i in range(m):
        for j in range(i, m):
            out.append(M[i][j] if odd or i == j else f.add[M[i][j]][M[j][i]])
    return out


def _classify_op(rng, q, m, r, tau, fixed_weight=False):
    """A form of rank r and type tau under a random invertible substitution.

    With ``fixed_weight`` the substitution is redrawn until the table has
    within one of the mean number (1 - 1/q) m(m+1)/2 of nonzero
    coefficients: the enumeration path does work per nonzero coefficient,
    so this keeps its cost from depending on the seed.
    """
    f = gf(q)
    U = _base_form(rng, f, m, r, tau)
    base = [U[i][j] for i in range(m) for j in range(i, m)]
    target = (1 - 1 / q) * len(base)
    while True:
        coeffs = substitute(f, m, base, _random_invertible(rng, f, m))
        if not fixed_weight or abs(sum(1 for c in coeffs if c) - target) <= 1:
            break
    check = substitute(f, m, coeffs, _random_invertible(rng, f, m))
    return {"kind": "classify", "q": q, "m": m, "coeffs": coeffs, "rank": r,
            "type": tau, "check_coeffs": check}


def _classify_stream(rng: random.Random):
    enum_ops = []
    for q, m in ENUM_PAIRS:
        r = rng.choice([x for x in range(max(2, m - 2), m + 1) if x % 2 == 0])
        enum_ops.append(_classify_op(rng, q, m, r, rng.choice((1, -1)), fixed_weight=True))
    other = []
    for q, m in EVEN_ODD_RANK:
        r = rng.choice([x for x in range(max(1, m - 4), m + 1) if x % 2])
        other.append(_classify_op(rng, q, m, r, None))
    for q, ms in ODD_Q_M.items():
        for m in ms:
            for _ in range(FORMS_PER_ODD_PAIR):
                other.append(_classify_op(rng, q, m, rng.randint(1, m), rng.choice((1, -1))))
    other += [_classify_op(rng, q, m, 0, 1) for q, m in ZERO_FORMS]
    # the enumeration ops keep their cyclic order; the others go in between at
    # seeded positions, and the whole list is the order of every pass
    is_enum = [True] * len(enum_ops) + [False] * len(other)
    rng.shuffle(is_enum)
    rng.shuffle(other)
    it_enum, it_other = iter(enum_ops), iter(other)
    ops = [next(it_enum) if e else next(it_other) for e in is_enum]
    return sorted({op["q"] for op in ops}), ops


def generate(workload: str, seed: int) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    make = {"oracle-grid": _oracle_grid, "closed-form": _closed_form, "classify-stream": _classify_stream}[workload]
    fields, ops = make(rng)
    return {"workload": workload, "seed": seed, "fields": fields, "ops": ops}
