"""Budget refusals quote their exact counts in full, even past CPython's
4,300-digit cap on int-to-str conversion, so that library callers get
BudgetExceeded (and verify a SKIP) rather than a ValueError."""

import sys

import pytest

from qfrm.census import census_exhaustive
from qfrm.errors import BudgetExceeded, count_text
from qfrm.field import field_from_order
from qfrm.forms import QuadraticForm, zero_count_exhaustive
from qfrm.spectra import oracle_constants
from qfrm.verify import run_verification

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


def test_census_budget_past_the_cap():
    # 2^20100 forms of 2^200 points each: 6,111 digits
    with pytest.raises(BudgetExceeded, match=r"^\d{6111} evaluations exceed the budget 67108864$"):
        census_exhaustive(2, 200)
    results = run_verification("census", [(2, 200)])
    assert [(r.name, r.status) for r in results] == [("census q=2 m=200", "SKIP")]


def test_codes_budget_past_the_cap():
    results = run_verification("codes", [(2, 200)])
    brute = [r for r in results if r.name.endswith("formula=brute")]
    assert [r.status for r in brute] == ["SKIP"] * 3
    assert all("symbol evaluations exceed" in r.detail for r in brute)
    assert not any(r.status == "FAIL" for r in results)


def test_spectra_budget_past_the_cap():
    # q^(2m) = 2^14400 evaluations: 4,335 digits
    with pytest.raises(BudgetExceeded, match=r"^\d{4335} evaluations exceed 16777216$"):
        oracle_constants(field_from_order(2), 7200, "zero", 1 << 24)


def test_zero_count_budget_past_the_cap():
    # (2^20)^720 = 2^14400 points
    form = QuadraticForm.zero(field_from_order(1 << 20), 720)
    with pytest.raises(BudgetExceeded, match=r"^domain has \d{4335} points, budget is 16777216$"):
        zero_count_exhaustive(form)
