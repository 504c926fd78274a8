"""Field construction, arithmetic axioms, characters, and trace."""

import functools
import hashlib
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qfrm
from qfrm.errors import (
    EvenCharacteristic,
    FieldTooLarge,
    InverseOfZero,
    NonPrime,
    OddCharacteristic,
)
from qfrm.field import MAX_ORDER, FiniteField, field_from_order, field_new
from qfrm.forms import QuadraticForm, classify

PRIME_POWERS_64 = [
    (2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1),
    (2, 4), (17, 1), (19, 1), (23, 1), (5, 2), (3, 3), (29, 1), (31, 1),
    (2, 5), (37, 1), (41, 1), (43, 1), (47, 1), (7, 2), (53, 1), (59, 1),
    (61, 1), (2, 6),
]


def test_prime_field_modulus_is_x():
    assert field_new(2, 1).modulus == (0, 1)
    assert field_new(3, 1).modulus == (0, 1)


def test_gf4_modulus_unique_irreducible_quadratic():
    # brute scan: a monic quadratic over GF(2) is irreducible iff it has no root
    candidates = []
    for c0 in range(2):
        for c1 in range(2):
            if all((x * x + c1 * x + c0) % 2 for x in range(2)):
                candidates.append((c0, c1, 1))
    assert candidates == [(1, 1, 1)]
    assert field_new(2, 2).modulus == (1, 1, 1)


def test_every_extension_field_keeps_its_modulus():
    # one sha256 over (p, e, modulus) for every p^e <= MAX_ORDER with e >= 2:
    # a modulus that moves renames the field's elements in every output
    primes = [p for p in range(2, math.isqrt(MAX_ORDER) + 1)
              if all(p % d for d in range(2, math.isqrt(p) + 1))]
    fields = [(p, e) for p in primes for e in range(2, MAX_ORDER.bit_length()) if p ** e <= MAX_ORDER]
    assert len(fields) == 242
    rows = [(p, e, FiniteField._find_modulus(p, e)) for p, e in fields]
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "18d74e0be467049cdb2a980dafab1f97f53b312e82195b4aa35d57de52a08a57"


def test_modulus_is_deterministic():
    a = FiniteField(3, 2)
    b = FiniteField(3, 2)
    assert a.modulus == b.modulus
    assert all(a.add(x, y) == b.add(x, y) for x in range(9) for y in range(9))
    assert all(a.mul(x, y) == b.mul(x, y) for x in range(9) for y in range(9))


def test_scalar_examples():
    assert field_new(3).add(1, 2) == 0
    assert field_new(2, 2).mul(2, 2) == 3  # alpha^2 = alpha + 1
    assert field_new(5).inv(2) == 3


def test_gf4_multiplication_table():
    f = field_new(2, 2)
    # classic GF(4) table with alpha = 2, alpha+1 = 3
    assert f.mul(2, 3) == 1
    assert f.mul(3, 3) == 2
    assert f.inv(2) == 3 and f.inv(3) == 2


@pytest.mark.parametrize("p,e", PRIME_POWERS_64)
def test_axioms_exhaustive(p, e):
    f = field_new(p, e)
    q = f.q
    add = f.add_array.astype(np.int64)
    mul = f.mul_array.astype(np.int64)
    i = np.arange(q)
    assert (add == add.T).all() and (mul == mul.T).all()
    assert (add[0] == i).all() and (mul[1] == i).all() and (mul[0] == 0).all()
    lhs = add[i[:, None, None], add[i[None, :, None], i[None, None, :]]]
    rhs = add[add[i[:, None, None], i[None, :, None]], i[None, None, :]]
    assert (lhs == rhs).all()
    lhs = mul[i[:, None, None], mul[i[None, :, None], i[None, None, :]]]
    rhs = mul[mul[i[:, None, None], i[None, :, None]], i[None, None, :]]
    assert (lhs == rhs).all()
    lhs = mul[i[:, None, None], add[i[None, :, None], i[None, None, :]]]
    rhs = add[mul[i[:, None, None], i[None, :, None]], mul[i[:, None, None], i[None, None, :]]]
    assert (lhs == rhs).all()
    for a in range(1, q):
        assert f.mul(a, f.inv(a)) == 1
        assert f.add(a, f.neg(a)) == 0


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (2, 3), (2, 4)])
def test_scalar_ops_agree_with_tables(p, e):
    f = field_new(p, e)
    add, mul = f.add_array, f.mul_array
    for a in range(f.q):
        for b in range(f.q):
            assert f.add(a, b) == int(add[a, b])
            assert f.mul(a, b) == int(mul[a, b])


def _digits(a, p, e):
    return [a // p ** k % p for k in range(e)]


def _digit_sub(a, b, p, e):
    """a - b digit by digit in base p: the reference for neg and sub."""
    return sum((x - y) % p * p ** k for k, (x, y) in enumerate(zip(_digits(a, p, e), _digits(b, p, e))))


# the odd extension fields of order at most 125; GF(3^6) and GF(31^2) at
# the top of the table tier; GF(3^7) and GF(5^5) past it, and GF(3^12) and
# GF(31^4) near MAX_ORDER, on the log tables
ODD_EXTENSIONS_125 = [(3, 2), (5, 2), (3, 3), (7, 2), (3, 4), (11, 2), (5, 3)]
ODD_EXTENSIONS_SAMPLED = [(3, 6), (31, 2), (3, 7), (5, 5), (3, 12), (31, 4)]


@pytest.mark.parametrize("p,e", ODD_EXTENSIONS_125)
def test_neg_and_sub_match_base_p_digits_exhaustive(p, e):
    f = field_new(p, e)
    assert [f.neg(a) for a in range(f.q)] == [_digit_sub(0, a, p, e) for a in range(f.q)]
    for a in range(f.q):
        assert [f.sub(a, b) for b in range(f.q)] == [_digit_sub(a, b, p, e) for b in range(f.q)]


@pytest.mark.parametrize("p,e", ODD_EXTENSIONS_SAMPLED)
def test_neg_and_sub_match_base_p_digits_sampled(p, e):
    f = field_new(p, e)
    rng = random.Random(p ** e)
    for a, b in [(0, 0), (f.q - 1, 1), (1, f.q - 1), (f.q - 1, f.q - 1)] + [(rng.randrange(f.q), rng.randrange(f.q)) for _ in range(500)]:
        assert f.neg(b) == _digit_sub(0, b, p, e)
        assert f.sub(a, b) == _digit_sub(a, b, p, e)


@pytest.mark.parametrize("e", [1, 2, 3, 4, 5, 6])
def test_sub_over_even_q_is_xor(e):
    f = field_new(2, e)
    for a in range(f.q):
        assert [f.sub(a, b) for b in range(f.q)] == [a ^ b for b in range(f.q)]
    big = field_new(2, 17)
    assert big.sub(12345, 54321) == 12345 ^ 54321 and big.neg(12345) == 12345


def _poly_mul_ref(a, b, p, modulus):
    """a * b as polynomials over GF(p) in base-p digits, reduced modulo the
    monic ``modulus``: the reference for mul, apart from its tables."""
    e = len(modulus) - 1
    prod = [0] * (2 * e - 1)
    for i, x in enumerate(_digits(a, p, e)):
        for j, y in enumerate(_digits(b, p, e)):
            prod[i + j] += x * y
    for k in range(len(prod) - 1, e - 1, -1):
        c = prod[k]
        for i in range(e):
            prod[k - e + i] -= c * modulus[i]
    return sum(prod[k] % p * p ** k for k in range(e))


# the extension fields of order at most 125, both parities
EXTENSIONS_125 = [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6)] + ODD_EXTENSIONS_125


@pytest.mark.parametrize("p,e", EXTENSIONS_125)
def test_mul_matches_polynomial_product_exhaustive(p, e):
    f = field_new(p, e)
    for a in range(f.q):
        assert [f.mul(a, b) for b in range(f.q)] == [_poly_mul_ref(a, b, p, f.modulus) for b in range(f.q)]


# the top of the table tier, GF(3^7) and GF(2^11) past it, and GF(3^12),
# GF(31^4) and GF(2^20) near MAX_ORDER
@pytest.mark.parametrize("p,e", [(2, 10), (3, 6), (31, 2), (3, 7), (2, 11), (3, 12), (31, 4), (2, 20)])
def test_mul_matches_polynomial_product_sampled(p, e):
    f = field_new(p, e)
    rng = random.Random(p ** e)
    for a, b in [(0, 0), (f.q - 1, 1), (1, f.q - 1)] + [(rng.randrange(f.q), rng.randrange(f.q)) for _ in range(500)]:
        assert f.mul(a, b) == _poly_mul_ref(a, b, p, f.modulus)
        if a:
            assert _poly_mul_ref(a, f.inv(a), p, f.modulus) == 1


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_prime_field_sub_is_integers_mod_p(p):
    f = field_new(p)
    for a in range(p):
        assert [f.sub(a, b) for b in range(p)] == [(a - b) % p for b in range(p)]


def test_prime_field_sub_is_integers_mod_p_sampled():
    p = 1_048_573
    f = field_new(p)
    rng = random.Random(p)
    for a, b in [(0, 0), (0, 1), (p - 1, 1), (1, p - 1)] + [(rng.randrange(p), rng.randrange(p)) for _ in range(500)]:
        assert f.sub(a, b) == (a - b) % p


@pytest.mark.parametrize("p", [7, 2])
def test_prime_field_scalar_ops_read_no_table(p):
    # reading a cached property moves the instance's attributes into a dict,
    # and every scalar op on it gets slower; prime fields must never do so
    f = FiniteField(p)
    for a in range(p):
        for b in range(p):
            f.add(a, b), f.neg(b), f.sub(a, b), f.mul(a, b)
            if b:
                f.inv(b)
    tables = {name for name, v in vars(FiniteField).items() if isinstance(v, functools.cached_property)}
    assert tables >= {"_add_rows", "_neg_list", "_mul_rows", "_exp_log", "add_array", "mul_array"}
    assert tables.isdisjoint(vars(f))


def test_zero_form_builds_no_log_table():
    # every op on zero returns before a table is read: classifying the zero
    # form over GF(2^20) must not build the 56 MB log tables
    f = FiniteField(2, 20)
    assert classify(QuadraticForm.zero(f, 800)).rank == 0
    assert "_exp_log" not in vars(f)


# the numpy table is the vectorised layer's and is built before tracing;
# tolist() of the whole table would hold 33.6 MB and 29.1 MB here
@pytest.mark.parametrize("p,e,rows,array", [(2, 10, "_mul_rows", "mul_array"), (31, 2, "_add_rows", "add_array")])
def test_row_tables_share_the_element_ints(p, e, rows, array):
    f = FiniteField(p, e)
    table = getattr(f, array)
    tracemalloc.start()
    try:
        got = getattr(f, rows)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 12 * 2 ** 20 and peak < 16 * 2 ** 20
    assert got == table.tolist()
    assert len({id(x) for row in got for x in row}) == f.q


def _digit_sum(p, a, b):
    """a + b in GF(p^e), base-p digit by digit."""
    s, w = 0, 1
    while a or b:
        s += (a % p + b % p) % p * w
        a, b, w = a // p, b // p, w * p
    return s


# the q x q tables are built from uint16 sums of digits or logs, never
# through q x q int64 arrays (8 MB each at q = 1024); the log tables of
# GF(2^20) hold at most 64 MB, built a block of powers at a time
@pytest.mark.parametrize("p,e,array", [
    (2, 10, "mul_array"), (31, 2, "add_array"), (31, 2, "mul_array"),
    (1021, 1, "add_array"), (1021, 1, "mul_array"), (2, 20, "_exp_log"),
])
def test_table_build_peaks_within_four_tables(p, e, array):
    f = FiniteField(p, e)
    tracemalloc.start()
    try:
        table = getattr(f, array)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    rng = random.Random(p ** e)
    if array == "_exp_log":
        assert held <= 64 * 2 ** 20 and peak <= 4 * held
        exp, log, zech = table
        ks = [0, 1, f.q - 2] + [rng.randrange(f.q - 1) for _ in range(500)]
        assert [log[exp[k]] for k in ks] == ks
        assert [exp[(k + 1) % (f.q - 1)] for k in ks] == [f._mul_raw(exp[k], exp[1]) for k in ks]
        assert [exp[zech[k]] if zech[k] >= 0 else 0 for k in ks] == [_digit_sum(p, 1, exp[k]) for k in ks]
        return
    assert table.dtype == np.uint16 and table.shape == (f.q, f.q)
    assert peak <= 4 * table.nbytes
    op = f._mul_raw if array == "mul_array" else (lambda a, b: _digit_sum(p, a, b))
    pairs = [(0, 0), (0, f.q - 1), (f.q - 1, 1)] + [(rng.randrange(f.q), rng.randrange(f.q)) for _ in range(500)]
    assert [int(table[a, b]) for a, b in pairs] == [op(a, b) for a, b in pairs]


@pytest.mark.parametrize("p,e", PRIME_POWERS_64)
def test_trace_linear_and_surjective(p, e):
    f = field_new(p, e)
    traces = [f.trace(a) for a in range(f.q)]
    assert all(t < p for t in traces)
    assert set(traces) == set(range(p))
    for a in range(f.q):
        for b in range(f.q):
            assert traces[f.add(a, b)] == (traces[a] + traces[b]) % p


def test_trace_examples():
    assert field_new(2).trace(1) == 1
    f4 = field_new(2, 2)
    assert f4.trace(2) == 1  # alpha + alpha^2 = 1
    assert f4.trace(1) == 0


@pytest.mark.parametrize("p,e", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6)])
def test_trace_balanced_even_q(p, e):
    f = field_new(p, e)
    traces = [f.trace(a) for a in range(f.q)]
    assert traces.count(0) == f.q // 2
    assert traces.count(1) == f.q // 2


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (5, 2), (3, 3), (7, 2)])
def test_quadratic_character_balanced(p, e):
    f = field_new(p, e)
    chars = [f.quadratic_character(a) for a in range(f.q)]
    assert chars[0] == 0
    assert chars.count(1) == (f.q - 1) // 2
    assert chars.count(-1) == (f.q - 1) // 2
    squares = {f.mul(a, a) for a in range(1, f.q)}
    for a in range(1, f.q):
        assert chars[a] == (1 if a in squares else -1)


def test_character_examples():
    assert field_new(3).quadratic_character(1) == 1
    assert field_new(3).quadratic_character(2) == -1
    assert field_new(5).quadratic_character(4) == 1


@pytest.mark.parametrize("p,e,expected", [(3, 1, 2), (5, 1, 2), (3, 2, None), (7, 1, None)])
def test_smallest_nonsquare(p, e, expected):
    f = field_new(p, e)
    squares = {f.mul(a, a) for a in range(f.q)}
    oracle = min(a for a in range(1, f.q) if a not in squares)
    assert f.smallest_nonsquare() == oracle
    if expected is not None:
        assert oracle == expected


@pytest.mark.parametrize("p,e,expected", [(2, 1, 1), (2, 2, 2), (2, 3, None), (2, 4, None)])
def test_smallest_trace_one(p, e, expected):
    f = field_new(p, e)
    oracle = min(a for a in range(1, f.q) if f.trace(a) == 1)
    assert f.smallest_trace_one() == oracle
    if expected is not None:
        assert oracle == expected


def test_error_paths():
    with pytest.raises(NonPrime):
        FiniteField(4, 1)
    with pytest.raises(NonPrime):
        FiniteField(6, 1)
    with pytest.raises(FieldTooLarge):
        FiniteField(2, 21)
    with pytest.raises(InverseOfZero):
        field_new(3).inv(0)
    with pytest.raises(EvenCharacteristic):
        field_new(2, 2).quadratic_character(1)
    with pytest.raises(EvenCharacteristic):
        field_new(2, 2).smallest_nonsquare()
    with pytest.raises(OddCharacteristic):
        field_new(3).smallest_trace_one()


# each call prints its time when it raises FieldTooLarge
ORDERS_PAST_THE_CAP = """
import time
from qfrm.errors import FieldTooLarge
from qfrm.field import field_new
for p, e in ((2 ** 61 - 1, 1), (3, 10 ** 8), (3, 2 * 10 ** 6)):
    start = time.perf_counter()
    try:
        field_new(p, e)
    except FieldTooLarge as exc:
        print(time.perf_counter() - start, exc)
"""


def test_orders_past_the_cap_are_refused_before_p_is_factored():
    # in a child with a timeout: trial division of the prime 2^61 - 1, or
    # building 3^(10^8), would not finish; str(3^(2 * 10^6)) passes
    # CPython's digit cap, so the message names GF(p^e), not q
    src = str(Path(qfrm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", ORDERS_PAST_THE_CAP], capture_output=True, text=True, timeout=30, env=env
    )
    lines = [line.split(" ", 1) for line in proc.stdout.splitlines()]
    assert [message for _, message in lines] == [
        "GF(2305843009213693951^1) exceeds the cap 1048576",
        "GF(3^100000000) exceeds the cap 1048576",
        "GF(3^2000000) exceeds the cap 1048576",
    ]
    assert all(float(seconds) < 0.1 for seconds, _ in lines)


def test_field_from_order():
    assert field_from_order(9) == field_new(3, 2)
    assert field_from_order(8) == field_new(2, 3)
    assert field_from_order(7) == field_new(7, 1)
    for bad in (1, 6, 12, 100):
        with pytest.raises(NonPrime):
            field_from_order(bad)


def test_large_field_scalar_fallback():
    # past the q x q tables: scalar arithmetic reads the log tables
    f = field_new(2, 17)
    a = 12345
    assert f.mul(a, f.inv(a)) == 1
    assert f.add(a, a) == 0
    assert f.trace(a) in (0, 1)


@given(
    st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (2, 3), (7, 1)]),
    st.integers(0, 10 ** 6),
    st.integers(0, 10 ** 6),
    st.integers(0, 10 ** 6),
)
def test_axioms_sampled(pe, x, y, z):
    f = field_new(*pe)
    a, b, c = x % f.q, y % f.q, z % f.q
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(a, b) == f.mul(b, a)
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.trace(f.add(a, b)) == (f.trace(a) + f.trace(b)) % f.p
