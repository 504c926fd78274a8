"""Budget refusals quote their exact counts in full, even past CPython's
4,300-digit cap on int-to-str conversion, so that library callers get
BudgetExceeded (and verify a SKIP) rather than a ValueError."""

import ast
import decimal
import sys
import time
from decimal import Decimal
from pathlib import Path

import pytest

import qfrm
from qfrm import codes, spectra
from qfrm.census import census_exhaustive
from qfrm.codes import brute_force_distribution
from qfrm.errors import BudgetExceeded, count_text
from qfrm.field import field_from_order
from qfrm.forms import QuadraticForm, affine_shift_steps, canonical_form, zero_count_exhaustive
from qfrm.spectra import merged_oracle, spectrum_oracle
from qfrm.verify import check_spectra, run_verification

DEFAULT_CAP = 4300


@pytest.fixture(autouse=True)
def default_digit_cap():
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(DEFAULT_CAP)
    yield
    sys.set_int_max_str_digits(saved)


def test_count_text_is_exact_past_the_cap():
    n = 7 ** 9000 - 1
    text = count_text(n)
    assert len(text) > DEFAULT_CAP
    with pytest.raises(ValueError):
        str(n)
    sys.set_int_max_str_digits(0)
    assert text == str(n)
    assert [count_text(v) for v in (0, 1, 10 ** 30, -12)] == ["0", "1", str(10 ** 30), "-12"]


def test_count_text_is_subquadratic():
    # census (2, 2000) charges 2^2003000 evaluations, 602,964 digits; one
    # int-to-Decimal conversion of that count takes seconds
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded) as refusal:
        census_exhaustive(2, 2000)
    assert time.perf_counter() - start < 1.0
    count, rest = str(refusal.value).split(" ", 1)
    assert rest == "evaluations exceed 67108864"
    assert len(count) == 602_964
    assert count[-30:] == str(pow(2, 2_003_000, 10 ** 30))
    with decimal.localcontext(decimal.Context(prec=decimal.MAX_PREC, traps=[decimal.Inexact])):
        assert Decimal(count) == Decimal(2) ** 2_003_000
    text = count_text(-(7 ** 20000) + 1)
    sys.set_int_max_str_digits(0)
    assert text == str(-(7 ** 20000) + 1)


def test_census_budget_past_the_cap():
    # 2^20100 forms of 2^200 points each: 6,111 digits
    with pytest.raises(BudgetExceeded, match=r"^\d{6111} evaluations exceed 67108864$"):
        census_exhaustive(2, 200)
    results = run_verification("census", [(2, 200)])
    assert [(r.name, r.status) for r in results] == [("census q=2 m=200", "SKIP")]


def test_codes_budget_past_the_cap():
    results = run_verification("codes", [(2, 200)])
    brute = [r for r in results if r.name.endswith("formula=brute")]
    assert [r.status for r in brute] == ["SKIP"] * 3
    assert all(r.detail.endswith(" transform steps exceed 2147483648") for r in brute)
    assert not any(r.status == "FAIL" for r in results)


@pytest.mark.parametrize("first,second", [("rm2", "prm2"), ("prm2", "rm2")])
def test_admission_comes_before_the_shared_tallies(first, second):
    # over q > 2 rm2 and prm2 read one kept enumeration; a family over its
    # own budget is refused even when the other family has filled it.
    # (3, 2): 3^3 parts of affine_shift_steps(3, 2) = 108 steps each
    codes._codeword_tallies.cache_clear()
    brute_force_distribution(first, 3, 2)
    with pytest.raises(BudgetExceeded, match=r"^2916 transform steps exceed 2915$"):
        brute_force_distribution(second, 3, 2, max_steps=2915)
    brute_force_distribution(second, 3, 2, max_steps=2916)
    assert codes._codeword_tallies.cache_info()[:2] == (1, 1)  # (hits, misses)


def test_admission_comes_before_the_kept_batch():
    # check_spectra keeps the tallies of every form of (3, 2); a form of that
    # batch is still charged its 108 transform steps before they are read
    check_spectra(3, 2)
    form = canonical_form(field_from_order(3), 2, 2, 1)
    assert form in spectra._kept
    refusal = r"^108 transform steps per form exceed 107$"
    with pytest.raises(BudgetExceeded, match=refusal):
        spectrum_oracle(form, "zero", max_evals=107)
    with pytest.raises(BudgetExceeded, match=refusal):
        merged_oracle(form, max_evals=107)


def test_spectra_budget_past_the_cap():
    # 4^7201 + 7199 * 4^7202 transform steps per form: 4,340 digits (over
    # GF(2) the same m needs only 2,172)
    steps = count_text(affine_shift_steps(4, 7200))
    assert len(steps) == 4340
    results = check_spectra(4, 7200)
    assert {(r.status, r.detail) for r in results} == {
        ("SKIP", f"{steps} transform steps per form exceed 16777216")
    }
    assert len(results) == 3 * (1 + 3600 + 2 * 3600)


def test_zero_count_budget_past_the_cap():
    # (2^20)^720 = 2^14400 points
    form = QuadraticForm.zero(field_from_order(1 << 20), 720)
    with pytest.raises(BudgetExceeded, match=r"^\d{4335} points exceed 16777216$"):
        zero_count_exhaustive(form)


class _BudgetRaises(ast.NodeVisitor):
    """The innermost function around each ``raise BudgetExceeded``."""

    def __init__(self):
        self.scope = ["<module>"]
        self.sites = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Raise(self, node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if getattr(exc, "id", getattr(exc, "attr", None)) == "BudgetExceeded":
            self.sites.append(self.scope[-1])
        self.generic_visit(node)


def test_one_admission_rule():
    # every oracle admits its work through errors.admit, the one place that
    # raises BudgetExceeded, so every refusal has one rule and one message
    sites = []
    for path in sorted(Path(qfrm.__file__).parent.glob("*.py")):
        visitor = _BudgetRaises()
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        sites += [(path.name, name) for name in visitor.sites]
    assert sites == [("errors.py", "admit")]
