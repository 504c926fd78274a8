"""Command-line surface: outputs, formats, exit codes, determinism."""

import decimal
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from decimal import Decimal
from pathlib import Path

import pytest

import qfrm
from qfrm import census, cli, codes, forms, spectra, verify
from qfrm.census import census_formula
from qfrm.cli import MAX_FILE_BYTES, MAX_FORM_COEFFS, MAX_OUTPUT_BITS, main, parse_form_text
from qfrm.codes import distribution, rm2_distribution
from qfrm.field import MAX_ORDER
from qfrm.forms import affine_shift_steps, triangle_size

GOLD_HRM_3_4 = "1 + 1560*Z^36 + 21060*Z^48 + 18800*Z^54 + 16848*Z^60 + 780*Z^72"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dist_text_golden(capsys):
    code, out, _ = run(capsys, "dist", "--family", "hrm2", "--q", "3", "--m", "4")
    assert code == 0
    assert out.strip() == GOLD_HRM_3_4


def test_dist_rejects_binary_m1(capsys):
    code, _, err = run(capsys, "dist", "--family", "rm2", "--q", "2", "--m", "1")
    assert code == 2
    assert "error" in err


def test_dist_json_prm(capsys):
    code, out, _ = run(capsys, "dist", "--family", "prm2", "--q", "3", "--m", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == "prm2"
    assert (payload["n"], payload["k"], payload["d"]) == (121, 15, 54)
    freqs = {e["weight"]: e["frequency"] for e in payload["distribution"]}
    assert freqs[81] == "9740258"
    assert all(isinstance(e["frequency"], str) for e in payload["distribution"])


def test_dist_csv(capsys):
    code, out, _ = run(capsys, "dist", "--family", "rm2", "--q", "2", "--m", "7", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "weight,frequency"
    assert lines[1] == "0,1"
    assert "64,300503590" in lines


def test_classify_even_minus(capsys):
    code, out, _ = run(
        capsys, "classify", "--q", "2", "--m", "2", "--coeffs",
        "c[1][1]=1 c[1][2]=1 c[2][2]=1",
    )
    assert code == 0
    assert "rank=2" in out and "type=minus" in out
    assert "zeros=1" in out
    assert "canonical=c[1][1]=1 c[1][2]=1 c[2][2]=1" in out


def test_classify_zero_form(capsys):
    code, out, _ = run(capsys, "classify", "--q", "3", "--m", "2", "--coeffs", "")
    assert code == 0
    assert "rank=0" in out and "type=plus" in out and "canonical=0" in out


def test_classify_odd_q_product(capsys):
    # the function x1 x2 over GF(3) carries cross coefficient 2 = inv(2)
    code, out, _ = run(capsys, "classify", "--q", "3", "--m", "2", "--coeffs", "c[1][2]=2")
    assert code == 0
    assert "rank=2" in out and "type=plus" in out


def test_classify_even_q_past_enumeration_frontier(capsys):
    # 2^25 points: the type comes from the Arf invariant, not from counting zeros
    code, out, _ = run(capsys, "classify", "--q", "2", "--m", "25", "--coeffs", "c[1][2]=1")
    assert code == 0
    assert "rank=2" in out and "type=plus" in out and "zeros=25165824" in out


def test_classify_file_and_json(capsys, tmp_path):
    path = tmp_path / "form.txt"
    path.write_text("q=2 m=3; c[1][2]=1 c[3][3]=1\n")
    code, out, _ = run(capsys, "classify", "--file", str(path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 3 and payload["type"] == "untyped"


@pytest.mark.parametrize("flags, named", [
    (("--q", "5", "--m", "7"), "--q --m"),
    (("--coeffs", "c[1][1]=2"), "--coeffs"),
    (("--q", "6"), "--q"),
    (("--m", "2", "--coeffs", "c[1][1]=2"), "--coeffs --m"),
])
def test_classify_file_refuses_form_flags(capsys, tmp_path, flags, named):
    # the refusal comes before the file is read: a missing file gives the same
    path = tmp_path / "form.txt"
    path.write_text("q=3 m=2; c[1][1]=1\n")
    for target in (path, tmp_path / "missing.txt"):
        code, out, err = run(capsys, "classify", "--file", str(target), *flags)
        assert (code, out) == (2, "")
        assert err == f"error: classify --file takes no {named}: the file holds q, m and the coefficients\n"


def test_classify_parse_error(capsys):
    code, _, err = run(capsys, "classify", "--q", "2", "--m", "2", "--coeffs", "c[2][1]=1")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "classify", "--q", "2", "--m", "2", "--coeffs", "garbage")
    assert code == 2


def test_classify_refuses_a_coefficient_given_twice(capsys, tmp_path):
    code, out, err = run(capsys, "classify", "--q", "9", "--m", "2", "--coeffs", "c[1][1]=3 c[1][1]=2")
    assert (code, out, err) == (2, "", "error: coefficient c[1][1] given twice\n")
    path = tmp_path / "form.txt"
    path.write_text("q=3 m=3; c[1][2]=1 c[2][3]=1 c[1][2]=1\n")
    code, out, err = run(capsys, "classify", "--file", str(path))
    assert (code, out, err) == (2, "", "error: coefficient c[1][2] given twice\n")


# the child caps its own address space at 1.5 GB before it imports qfrm
CAPPED_QFRM = (
    "import resource, runpy; "
    "resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29)); "
    "runpy.run_module('qfrm', run_name='__main__')"
)


def run_capped(*argv):
    """Run qfrm in a memory-capped child process; returns the finished
    process and its wall time."""
    src = str(Path(qfrm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", CAPPED_QFRM, *argv],
        capture_output=True, text=True, timeout=60, env=env,
    )
    return proc, time.perf_counter() - start


def test_classify_refuses_huge_m_before_building_the_form():
    # the m(m+1)/2 coefficient table of m = 10^8 would not fit in 1.5 GB
    proc, seconds = run_capped("classify", "--q", "2", "--m", "100000000", "--coeffs", "c[1][2]=1")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == (
        "error: a form in 100000000 variables has 5000000050000000 coefficients, "
        f"over the cap of {MAX_FORM_COEFFS}\n"
    )
    assert seconds < 5.0


def test_classify_refuses_huge_m_from_a_file(capsys, tmp_path):
    path = tmp_path / "form.txt"
    path.write_text("q=3 m=1024; c[1][2]=1\n")
    code, out, err = run(capsys, "classify", "--file", str(path))
    assert code == 2 and out == "" and f"over the cap of {MAX_FORM_COEFFS}" in err


@pytest.mark.parametrize(
    "text,err",
    [
        ("q=" + "9" * 400_000 + " m=1; c[1][1]=1", "q has more than 7 digits, past its cap 1048576"),
        ("q=3 m=1; c[1][1]=" + "1" * 400_000, "a coefficient value has more than 7 digits, past its cap 1048575"),
        ("q=3 m=" + "1" * 400_000 + ";", "m has more than 4 digits, past its cap 1023"),
        ("q=3 m=2; c[1][" + "2" * 400_000 + "]=1", "a coefficient index has more than 4 digits, past its cap 1023"),
    ],
    ids=["q", "value", "m", "index"],
)
def test_classify_file_refuses_long_numbers_before_converting_them(capsys, tmp_path, text, err):
    # int() of n digits takes O(n^2) time, and the number is not echoed
    path = tmp_path / "form.txt"
    path.write_text(text)
    start = time.perf_counter()
    code, out, got = run(capsys, "classify", "--file", str(path))
    assert time.perf_counter() - start < 1.0
    assert (code, out, got) == (2, "", f"error: {err}\n")


def test_classify_file_reads_a_bounded_prefix(capsys, tmp_path):
    path = tmp_path / "form.txt"
    head = "q=2 m=1; c[1][1]=1"
    path.write_text(head + " " * (MAX_FILE_BYTES - len(head)))
    code, out, _ = run(capsys, "classify", "--file", str(path))
    assert code == 0 and out.startswith("rank=1\n")
    with open(path, "a") as handle:
        handle.write(" ")
    start = time.perf_counter()
    code, out, err = run(capsys, "classify", "--file", str(path))
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (2, "", f"error: {path} holds more than {MAX_FILE_BYTES} bytes\n")


def test_classify_file_that_is_not_utf8_exits_2(capsys, tmp_path):
    path = tmp_path / "form.txt"
    path.write_bytes(b"q=2 m=1; c[1][1]=1 \xff")
    assert run(capsys, "classify", "--file", str(path)) == (2, "", "error: unparsed text in coefficient list\n")


def test_classify_refuses_unspaced_coefficients(capsys):
    # the grammar puts whitespace between coefficients: two run together
    # make one token that is no coefficient
    code = run(capsys, "classify", "--q", "4", "--m", "2", "--coeffs", "c[1][2]=1c[2][2]=1")
    assert code == (2, "", "error: unparsed text in coefficient list\n")


def test_classify_sparse_form_near_the_coefficient_cap_answers(capsys):
    code, out, _ = run(capsys, "classify", "--q", "2", "--m", "1000", "--coeffs", "c[1][2]=1")
    assert code == 0
    assert out.splitlines()[:2] == ["rank=2", "type=plus"]
    assert out.splitlines()[2] == f"zeros={2 ** 999 + 2 ** 998}"


def test_classify_coefficient_cap_keeps_zero_counts_under_the_output_cap():
    # the largest zero count classify prints is q^m, for the zero form; the
    # coefficient cap alone keeps it inside MAX_OUTPUT_BITS for every field
    m = max(m for m in range(2048) if triangle_size(m) <= MAX_FORM_COEFFS)
    assert m * math.log2(MAX_ORDER) <= MAX_OUTPUT_BITS


def test_classify_singular_pivot_block_exits_3(capsys, monkeypatch):
    # the rank and the determinant come from two row reductions; a rank
    # reported one too high leaves a singular pivot block, which must be
    # refused, not classified
    real = forms._row_reduce
    calls = []

    def row_reduce(field, rows):
        pivots, det = real(field, rows)
        calls.append(rows)
        if len(calls) == 1:
            pivots = pivots + [next(j for j in range(len(rows[0])) if j not in pivots)]
        return pivots, det

    monkeypatch.setattr(forms, "_row_reduce", row_reduce)
    code, out, err = run(capsys, "classify", "--q", "3", "--m", "2", "--coeffs", "c[1][1]=1")
    assert code == 3 and out == ""
    assert err.startswith("error: ") and "pivot block" in err


@pytest.mark.parametrize(
    "family,q", [("rm2", 2), ("rm2", 3), ("rm2", 4), ("hrm2", 3), ("prm2", 3), ("prm2", 4)]
)
def test_dist_refuses_a_census_count_one_off(capsys, monkeypatch, family, q):
    # each census count of rank >= 1 one too many, in turn: the table's own
    # checks (its q^k mass, and for binary rm2 the division by 2^m) must
    # refuse it
    m = 5
    real = codes.census_formula
    keys = [key for key in real(q, m + (family == "prm2")).entries if key[0] >= 1]
    for bad in keys:

        def census_formula(*args, bad=bad):
            table = real(*args)
            table.entries[bad] += 1
            return table

        monkeypatch.setattr(codes, "census_formula", census_formula)
        code, out, err = run(capsys, "dist", "--family", family, "--q", str(q), "--m", str(m))
        assert (code, out, err.startswith("error: ")) == (3, "", True), bad


@pytest.mark.parametrize("q", [3, 4, 5])
def test_dist_refuses_a_shifted_coset_row(capsys, monkeypatch, q):
    # one zero count of the rank-4 coset rows one too many, its multiplicity
    # kept: the frequencies still total q^k, but the first power moment breaks
    # (over GF(2) the division by 2^m already refuses such a row)
    real = codes.merged_rows

    def merged_rows(q, m, rank, type_tag):
        rows = real(q, m, rank, type_tag)
        if rank == 4:
            rows[0] = (rows[0][0] + 1, rows[0][1])
        return rows

    monkeypatch.setattr(codes, "merged_rows", merged_rows)
    code, out, err = run(capsys, "dist", "--family", "rm2", "--q", str(q), "--m", "40")
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and "power moment" in err


@pytest.mark.parametrize("family,q", [("hrm2", 2), ("hrm2", 3), ("hrm2", 5), ("prm2", 2)])
def test_dist_refuses_a_shifted_zero_count(capsys, monkeypatch, family, q):
    # one class's zero count one too many: the table keeps its q^k mass and its
    # minimum weight, and only the first power moment sees the shifted weight
    real = codes.zero_count_formula

    def zero_count_formula(rank, type_tag, q, m):
        return real(rank, type_tag, q, m) + (rank == 4 and type_tag == 1)

    monkeypatch.setattr(codes, "zero_count_formula", zero_count_formula)
    code, out, err = run(capsys, "dist", "--family", family, "--q", str(q), "--m", "40")
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and "power moment" in err


def test_dist_exits_3_on_a_nan_zero_count(capsys, monkeypatch):
    # a NaN reaching the exact decimal context raises there, and the command
    # exits 3 with one error line, no traceback
    monkeypatch.setattr(codes, "zero_count_formula", lambda *args: Decimal("NaN"))
    code, out, err = run(capsys, "dist", "--family", "hrm2", "--q", "3", "--m", "4")
    assert (code, out) == (3, "")
    assert err == "error: exact decimal arithmetic failed (InvalidOperation)\n"


def test_count_exits_3_on_a_nan_census_count(capsys, monkeypatch):
    real = cli.census_formula

    def census_formula(*args):
        table = real(*args)
        table.entries[(2, "minus")] = Decimal("NaN")
        return table

    monkeypatch.setattr(cli, "census_formula", census_formula)
    for fmt in ("text", "json", "csv"):
        code, out, err = run(capsys, "count", "--q", "3", "--m", "4", "--format", fmt)
        assert (code, out) == (3, "")
        assert err == "error: exact decimal arithmetic failed (InvalidOperation)\n"


def test_count_refuses_a_census_count_one_off(capsys, monkeypatch):
    real = cli.census_formula

    def census_formula(*args):
        table = real(*args)
        table.entries[(3, "odd_total")] += 1
        return table

    monkeypatch.setattr(cli, "census_formula", census_formula)
    code, out, err = run(capsys, "count", "--q", "3", "--m", "40")
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and "q^(m(m+1)/2)" in err


@pytest.mark.parametrize("fault", ["one more form", "an empty class"])
@pytest.mark.parametrize("command", ["count", "dist"])
def test_census_refuses_a_corrupt_count_where_it_is_built(capsys, monkeypatch, command, fault):
    # every census checks itself as it is built, so count and dist both refuse
    # a count one too many, or a class emptied into another with the total kept
    class Corrupt(census.CensusTable):
        def __post_init__(self):
            if fault == "one more form":
                self.entries[(2, "minus")] += 1
            else:
                self.entries[(1, "odd_total")] += self.entries[(0, "plus")]
                self.entries[(0, "plus")] = 0
            super().__post_init__()

    monkeypatch.setattr(census, "CensusTable", Corrupt)
    argv = ["--q", "3", "--m", "4"] if command == "count" else ["--family", "rm2", "--q", "3", "--m", "4"]
    code, out, err = run(capsys, command, *argv)
    assert (code, out) == (3, "")
    assert err == "error: census counts are not all positive or miss q^(m(m+1)/2)\n"


def test_dist_and_count_leave_the_callers_decimal_context(capsys):
    before = decimal.getcontext().copy()
    for argv in (["dist", "--family", "rm2", "--q", "3", "--m", "4"], ["count", "--q", "3", "--m", "4"]):
        assert run(capsys, *argv)[0] == 0
        context = decimal.getcontext()
        assert (context.prec, context.traps, context.flags) == (before.prec, before.traps, before.flags)


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("c_class", ["zero", "nonzero"])
def test_spectrum_refuses_a_shifted_row_value(capsys, monkeypatch, q, c_class):
    # one zero count of the rank-4 rows one too many, its multiplicity kept.
    # Shifted zero-class rows still total their population, and only the
    # first moment sees the shifted value. A shifted merged row leaves the
    # nonzero class, the merged rows less the zero class, a negative row.
    name, reason = {
        "zero": ("_zero_rows", "first moment"),
        "nonzero": ("merged_rows", "negative multiplicity"),
    }[c_class]
    real = getattr(spectra, name)

    def shifted(*args):
        rows = real(*args)
        rows[1] = (rows[1][0] + 1, rows[1][1])
        return rows

    monkeypatch.setattr(spectra, name, shifted)
    code, out, err = run(
        capsys, "spectrum", "--q", str(q), "--m", "40", "--rank", "4", "--type", "plus",
        "--c-class", c_class,
    )
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and reason in err


def test_count_full_table(capsys):
    code, out, _ = run(capsys, "count", "--q", "2", "--m", "2")
    assert code == 0
    assert out.strip().splitlines() == [
        "rank=0 type=plus count=1",
        "rank=1 type=untyped count=3",
        "rank=2 type=plus count=3",
        "rank=2 type=minus count=1",
        "total=8",
    ]


def test_count_single_entries(capsys):
    code, out, _ = run(capsys, "count", "--q", "3", "--m", "4", "--rank", "1")
    assert code == 0 and out.strip() == "80"
    code, out, _ = run(capsys, "count", "--q", "2", "--m", "3", "--rank", "3")
    assert code == 0 and out.strip() == "28"
    code, out, _ = run(capsys, "count", "--q", "2", "--m", "2", "--rank", "2", "--type", "minus")
    assert code == 0 and out.strip() == "1"


def test_count_inconsistent(capsys):
    code, _, err = run(capsys, "count", "--q", "3", "--m", "4", "--rank", "1", "--type", "plus")
    assert code == 2
    code, _, err = run(capsys, "count", "--q", "3", "--m", "4", "--rank", "2")
    assert code == 2


def test_count_type_needs_rank(capsys):
    for q, m, type_name in (("3", "2", "minus"), ("2", "2", "plus"), ("3", "-2", "plus")):
        code, out, err = run(capsys, "count", "--q", q, "--m", m, "--type", type_name)
        assert (code, out, err) == (2, "", "error: count --type needs --rank\n")


def test_count_rejects_negative_m(capsys):
    code, out, err = run(capsys, "count", "--q", "3", "--m", "-2")
    assert code == 2 and out == "" and "m must be >= 0" in err


def test_count_rejects_non_prime_power(capsys):
    code, _, err = run(capsys, "count", "--q", "12", "--m", "2")
    assert code == 2 and "prime power" in err


def test_spectrum_merged_json(capsys):
    code, out, _ = run(
        capsys, "spectrum", "--q", "3", "--m", "2", "--rank", "1", "--type", "plus",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["population"] == "27"
    assert payload["entries"] == [
        {"value": "0", "multiplicity": "3"},
        {"value": "3", "multiplicity": "21"},
        {"value": "6", "multiplicity": "3"},
    ]


def test_spectrum_class_text(capsys):
    code, out, _ = run(
        capsys, "spectrum", "--q", "2", "--m", "3", "--rank", "3", "--c-class", "zero"
    )
    assert code == 0
    assert out.strip().splitlines() == ["population=8", "2 1", "4 4", "6 3"]


def test_spectrum_inconsistent_class(capsys):
    code, _, err = run(
        capsys, "spectrum", "--q", "3", "--m", "2", "--rank", "1", "--type", "plus",
        "--c-class", "nonzero",
    )
    assert code == 2
    # the ranges of m and rank are checked before the type is inferred or the
    # census looked up, and an omitted --type is not named in the refusal
    for argv, message in [
        (["spectrum", "--q", "3", "--m", "2", "--rank", "-1"], "error: rank -1 outside [0, 2]\n"),
        (["spectrum", "--q", "3", "--m", "2", "--rank", "3"], "error: rank 3 outside [0, 2]\n"),
        (["spectrum", "--q", "3", "--m", "-1", "--rank", "0"], "error: m must be >= 0, got -1\n"),
        (["count", "--q", "3", "--m", "2", "--rank", "-1"], "error: rank -1 outside [0, 2]\n"),
        (["count", "--q", "3", "--m", "2", "--rank", "3"], "error: rank 3 outside [0, 2]\n"),
        (
            ["count", "--q", "3", "--m", "4", "--rank", "2"],
            "error: no single census class for rank=2; rank 2 has classes: plus minus\n",
        ),
        (
            ["count", "--q", "3", "--m", "4", "--rank", "1", "--type", "plus"],
            "error: no single census class for rank=1 type=plus; rank 1 has classes: odd_total\n",
        ),
        # a refused type is named by the labels --type takes
        (
            ["spectrum", "--q", "2", "--m", "1", "--rank", "1", "--type", "plus"],
            "error: rank 1 over GF(2) takes type untyped, got plus\n",
        ),
        (
            ["spectrum", "--q", "3", "--m", "1", "--rank", "1", "--type", "untyped"],
            "error: rank 1 over GF(3) takes type plus or minus, got untyped\n",
        ),
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", message)


# sha256 of every (argv, exit code, stdout) in _rank_type_sweep, recorded
# before the form-class rule moved into forms and spectra; a refactor of that
# rule must leave every byte of these outputs as it was
RANK_TYPE_SWEEP_SHA256 = "807df6da7e4fcc9a7df8b313e00192130cf8bc0b2cd34444ff7729b90ba495cf"


def _rank_type_sweep(formats=("text", "json")):
    for q in (2, 3, 4, 9):
        for m in range(4):
            for rank in range(-1, m + 2):
                head = ["--q", str(q), "--m", str(m), "--rank", str(rank)]
                for fmt in formats:
                    for typ in (None, "plus", "minus"):
                        yield ["count", *head, "--format", fmt] + (["--type", typ] if typ else [])
                    for c_class in ("zero", "square", "nonsquare", "nonzero", "merged"):
                        for typ in (None, "plus", "minus", "untyped"):
                            argv = ["spectrum", *head, "--c-class", c_class, "--format", fmt]
                            yield argv + (["--type", typ] if typ else [])


def test_rank_type_sweep_is_byte_identical(capsys):
    digest = hashlib.sha256()
    for argv in _rank_type_sweep():
        code = main(argv)
        digest.update(repr((argv, code, capsys.readouterr().out)).encode())
    assert digest.hexdigest() == RANK_TYPE_SWEEP_SHA256


# sha256 of every (argv, exit code, stdout) in _table_csv_commands, recorded
# before count and spectrum shared one table writer: every csv row of both
# commands, from the rank-type sweep and whole censuses at large m
TABLE_CSV_SHA256 = "b9c7856e1230415106607246c2cabd1a716fbae59d5bf38f73d85abd4ecdd561"


def _table_csv_commands():
    yield from _rank_type_sweep(formats=("csv",))
    for q in (2, 3, 4, 9):
        for m in (12, 40):
            yield ["count", "--q", str(q), "--m", str(m), "--format", "csv"]


def test_table_csv_is_byte_identical(capsys):
    digest = hashlib.sha256()
    for argv in _table_csv_commands():
        code = main(argv)
        digest.update(repr((argv, code, capsys.readouterr().out)).encode())
    assert digest.hexdigest() == TABLE_CSV_SHA256


# sha256 of every (argv, exit code, stdout) in _closed_form_commands, recorded
# before census_formula moved to the H_j ladder and prm2 stopped building its
# census twice; the closed-form tables must keep every byte
CLOSED_FORM_SHA256 = "317d73363f2f208a42a890fe325d28867d347a9c0d84247d012543eb4b9d88b3"

# the centre m per q of the benchmark's closed-form workload
CLOSED_FORM_PAIRS = [(2, 96), (3, 72), (4, 64), (5, 64), (8, 56), (9, 56)]


def _closed_form_commands():
    for q, m in CLOSED_FORM_PAIRS:
        head = ["--q", str(q), "--m", str(m)]
        for fmt in ("text", "json", "csv"):
            for family in ("rm2", "hrm2", "prm2"):
                yield ["dist", "--family", family, *head, "--format", fmt]
            yield ["count", *head, "--format", fmt]


def test_closed_form_tables_are_byte_identical(capsys):
    digest = hashlib.sha256()
    for argv in _closed_form_commands():
        code = main(argv)
        digest.update(repr((argv, code, capsys.readouterr().out)).encode())
    assert digest.hexdigest() == CLOSED_FORM_SHA256


# sha256 of every (argv, exit code, stdout) in _classify_commands, recorded
# before neg and sub over odd extension fields moved onto lists built once
# per field; classify must keep every byte of its rank, type, zero count and
# canonical form
CLASSIFY_SHA256 = "2eec6cfed86898bd7ffd74022f1f2d0ebc0664a367e587171924d100973ef1ca"

# prime, odd extension and even fields inside the table bound, and GF(3^7),
# whose scalar arithmetic runs digit by digit; at most this m for each q
CLASSIFY_PIN_M = {3: 6, 5: 6, 9: 6, 25: 5, 27: 5, 49: 4, 81: 4, 4: 6, 8: 5, 16: 5, 2187: 3}


def _classify_commands():
    # sparse and dense forms, so that every rank occurs, from a fixed seed
    rng = random.Random(20190)
    for q, top in CLASSIFY_PIN_M.items():
        for m in range(top + 1):
            for density in (0.1, 0.3, 0.6, 1.0) * 3:
                coeffs = [
                    f"c[{i + 1}][{j + 1}]={rng.randrange(1, q)}"
                    for i in range(m)
                    for j in range(i, m)
                    if rng.random() < density
                ]
                head = ["classify", "--q", str(q), "--m", str(m), "--format", "json"]
                yield head + ["--coeffs", " ".join(coeffs)]


def test_classify_is_byte_identical(capsys):
    digest = hashlib.sha256()
    for argv in _classify_commands():
        code = main(argv)
        digest.update(repr((argv, code, capsys.readouterr().out)).encode())
    assert digest.hexdigest() == CLASSIFY_SHA256


# the closed-form grid of the cross-route tests: the benchmark's centre pairs,
# and the fields left out of them at small m
CROSS_ROUTE_PAIRS = CLOSED_FORM_PAIRS + [(q, m) for q in (7, 16, 25, 27) for m in range(1, 13)]


@pytest.mark.parametrize("family", ["rm2", "hrm2", "prm2"])
@pytest.mark.parametrize("q,m", CROSS_ROUTE_PAIRS)
def test_dist_prints_the_int_library_table(capsys, family, q, m):
    # dist builds its table in exact decimal arithmetic, the library in ints;
    # every printed frequency must be str() of the library's int
    table = distribution(family, q, m)
    want = {w: str(f) for w, f in table.entries.items()}
    head = ["dist", "--family", family, "--q", str(q), "--m", str(m)]
    code, out, _ = run(capsys, *head)
    assert code == 0
    got = {}
    for term in out.strip().split(" + "):
        coeff, _, weight = term.partition("Z^")
        got[int(weight or 0)] = coeff.removesuffix("*") or "1"
    assert got == want
    code, out, _ = run(capsys, *head, "--format", "json")
    assert code == 0
    got = {e["weight"]: e["frequency"] for e in json.loads(out)["distribution"]}
    assert got == want
    code, out, _ = run(capsys, *head, "--format", "csv")
    assert code == 0
    got = {int(w): f for w, f in (line.split(",") for line in out.strip().splitlines()[1:])}
    assert got == want


@pytest.mark.parametrize("q,m", CROSS_ROUTE_PAIRS)
def test_count_prints_the_int_census(capsys, q, m):
    entries = census_formula(q, m).entries
    want = {(r, label): str(c) for (r, label), c in entries.items()}
    head = ["count", "--q", str(q), "--m", str(m)]
    code, out, _ = run(capsys, *head)
    assert code == 0
    *lines, total = out.strip().splitlines()
    got = {}
    for line in lines:
        rank, label, count = (field.split("=")[1] for field in line.split())
        got[(int(rank), label)] = count
    assert got == want and total == f"total={sum(entries.values())}"
    code, out, _ = run(capsys, *head, "--format", "json")
    assert code == 0
    got = {(e["rank"], e["type"]): e["count"] for e in json.loads(out)["entries"]}
    assert got == want
    code, out, _ = run(capsys, *head, "--format", "csv")
    assert code == 0
    rows = (line.split(",") for line in out.strip().splitlines()[1:])
    assert {(int(r), label): c for r, label, c in rows} == want


def test_verify_census(capsys):
    code, out, _ = run(capsys, "verify", "--scope", "census", "--q", "2", "--m", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("PASS census q=2 m=4")
    assert "1024 forms" in lines[0]
    assert lines[-1] == "passed=1 failed=0 skipped=0"


def test_verify_census_q3_m4_is_prompt(capsys):
    # 59,049 forms, classified in numpy blocks from point counts
    start = time.perf_counter()
    code, out, _ = run(capsys, "verify", "--scope", "census", "--q", "3", "--m", "4")
    assert time.perf_counter() - start < 5.0
    assert code == 0
    assert out.splitlines() == [
        "PASS census q=3 m=4 (59049 forms classified)",
        "passed=1 failed=0 skipped=0",
    ]


VERIFY_ALL_SHA256 = "d840486956895b85e734194b873d973bff4dfe89cb22f77de694b22889708246"


def test_verify_all_is_byte_identical(capsys):
    # every acceptance grid, PASS/SKIP line by line; the hash pins the stdout
    code, out, _ = run(capsys, "verify", "--scope", "all")
    assert code == 0
    assert out.endswith("passed=212 failed=0 skipped=0\n")
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_SHA256


# sha256 of `qfrm verify --scope codes --q 2-5,7 --m 1-2` stdout, recorded
# before rm2 and prm2 shared one enumeration; it reaches the m = 1 and q = 7
# pairs, which the --scope all grid does not
VERIFY_CODES_SHA256 = "fca82b48c29bd71fc2c34155c65e49fc43abf6fb2852064851c06f7e3845739e"


def test_verify_codes_m1_and_q7_are_byte_identical(capsys):
    code, out, _ = run(capsys, "verify", "--scope", "codes", "--q", "2-5,7", "--m", "1-2")
    assert code == 0
    assert out.endswith("passed=47 failed=0 skipped=1\n")
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_CODES_SHA256


# sha256 of `qfrm verify --scope spectra --q 2-5,7-9 --m 0-3` stdout, recorded
# before each pair's forms were transformed in one batch; it reaches m = 0
# and q = 7, 8, 9, which the --scope all grid does not
VERIFY_SPECTRA_SHA256 = "989f1c8518d9ba6361e664880b39f64c97fac7072c0f0bb5c3c7960112d93d47"


def test_verify_spectra_m0_and_q7_to_9_are_byte_identical(capsys):
    code, out, _ = run(capsys, "verify", "--scope", "spectra", "--q", "2-5,7-9", "--m", "0-3")
    assert code == 0
    assert out.endswith("passed=332 failed=0 skipped=0\n")
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_SPECTRA_SHA256


@pytest.mark.parametrize("q,m", [(2, 6), (4, 4), (3, 5)])
def test_verify_census_budget_counts_evaluations(capsys, q, m):
    # q^(m(m+1)/2) forms times q^m points each exceed the default 2^26
    start = time.perf_counter()
    code, out, _ = run(capsys, "verify", "--scope", "census", "--q", str(q), "--m", str(m))
    assert time.perf_counter() - start < 1.0
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith(f"SKIP census q={q} m={m}")
    assert lines[0].endswith("evaluations exceed 67108864)")
    assert lines[1] == "passed=0 failed=0 skipped=1"


def test_verify_census_refuses_fields_past_the_table_limit(capsys):
    # the census oracle evaluates forms through the field's q x q tables
    code, out, err = run(capsys, "verify", "--scope", "census", "--q", "2048", "--m", "1")
    assert code == 2
    assert out == ""
    assert "q <= 1024" in err


def test_verify_codes(capsys):
    code, out, _ = run(capsys, "verify", "--scope", "codes", "--q", "3", "--m", "2")
    assert code == 0
    assert "PASS codes rm2 q=3 m=2 formula=brute" in out
    assert "PASS codes rm2 q=3 m=2 formula=assembled" in out


def test_verify_codes_m0_skips(capsys):
    code, out, _ = run(capsys, "verify", "--scope", "codes", "--q", "2", "--m", "0")
    assert code == 0
    lines = out.strip().splitlines()
    assert not any(line.startswith("FAIL") for line in lines)
    assert "SKIP codes prm2 q=2 m=0 = hrm2/(q-1) (not defined: prm2 needs m >= 1)" in lines
    assert lines[-1] == "passed=0 failed=0 skipped=4"


def test_verify_codes_past_the_symbol_budget_skips(capsys):
    # the budget is checked before any point of the 2^24-point domain is listed
    code, out, _ = run(capsys, "verify", "--scope", "codes", "--q", "2", "--m", "24")
    assert code == 0
    lines = out.strip().splitlines()
    for family in ("rm2", "hrm2", "prm2"):
        assert any(line.startswith(f"SKIP codes {family} q=2 m=24 formula=brute (") for line in lines)
    assert lines[-1] == "passed=1 failed=0 skipped=3"


def test_verify_codes_past_the_step_budget_is_prompt():
    # each brute line is refused from its transform steps before any plane is
    # built; under the old symbol budget hrm2 alone ran for seconds here
    proc, seconds = run_capped("verify", "--scope", "codes", "--q", "5", "--m", "4")
    assert proc.returncode == 0 and seconds < 3.0
    lines = proc.stdout.splitlines()
    assert "SKIP codes hrm2 q=5 m=4 formula=brute (6103515625 transform steps exceed 2147483648)" in lines
    assert lines[-1] == "passed=2 failed=0 skipped=3"


def test_verify_spectra(capsys):
    code, out, _ = run(capsys, "verify", "--scope", "spectra", "--q", "3", "--m", "2")
    assert code == 0
    assert "failed=0" in out.strip().splitlines()[-1]


# sha256 of the stdout of `verify --scope spectra --q 2 --m 359`: the 1,617
# SKIP lines that check_spectra printed when it built every form before
# testing its budget, each now with the one transform-step detail of the pair
VERIFY_SPECTRA_2_359_SHA256 = "e32e70155a2dc680e677152464f77dfdc6832e1660aa7c65ad915db92447b2bf"


@pytest.mark.parametrize("q, m", [(2, 13), (3, 8), (4, 6), (5, 5), (1024, 1)])
def test_verify_spectra_within_one_transform_budget_runs_whole(capsys, q, m):
    # each form costs one transform of at most 2^24 steps, so every class runs
    start = time.perf_counter()
    code, out, _ = run(capsys, "verify", "--scope", "spectra", "--q", str(q), "--m", str(m))
    assert time.perf_counter() - start < 1.0
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[:-1] and all(line.startswith("PASS spectra ") for line in lines[:-1])
    assert lines[-1] == f"passed={len(lines) - 1} failed=0 skipped=0"


@pytest.mark.parametrize("q, m", [(2, 18), (7, 6)])
def test_verify_spectra_past_one_transform_budget_skips_whole(capsys, monkeypatch, q, m):
    monkeypatch.setattr(verify, "canonical_form", None)  # no form may be built
    start = time.perf_counter()
    code, out, _ = run(capsys, "verify", "--scope", "spectra", "--q", str(q), "--m", str(m))
    assert time.perf_counter() - start < 1.0
    assert code == 0
    lines = out.strip().splitlines()
    detail = f"({affine_shift_steps(q, m)} transform steps per form exceed {1 << 24})"
    assert lines[:-1] and all(
        line.startswith("SKIP spectra ") and line.endswith(" " + detail) for line in lines[:-1]
    )
    assert lines[-1] == f"passed=0 failed=0 skipped={len(lines) - 1}"


def test_verify_spectra_past_the_oracle_budget_builds_no_form(capsys, monkeypatch):
    # all 1,617 cases share one refusal, made before any form is built
    monkeypatch.setattr(verify, "canonical_form", None)
    start = time.perf_counter()
    code, out, _ = run(capsys, "verify", "--scope", "spectra", "--q", "2", "--m", "359")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert out.strip().splitlines()[-1] == "passed=0 failed=0 skipped=1617"
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_SPECTRA_2_359_SHA256


def test_verify_spectra_refuses_fields_past_the_table_limit(capsys):
    # the oracles run on q x q operation tables, so q = 2048 exits 2 at once,
    # as --scope codes does
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--scope", "spectra", "--q", "2048", "--m", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "q <= 1024" in err


def test_verify_huge_m_range_exits_at_once():
    # the range is walked lazily and stops at the first pair over the output
    # cap, m = 360 for q = 2: the same refusal as the short range 0-400
    proc, seconds = run_capped("verify", "--scope", "census", "--q", "2", "--m", "0-100000000")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == (
        "error: output would hold numbers of about 65703 bits (2^65703), "
        f"over the cap of {MAX_OUTPUT_BITS} bits\n"
    )
    assert seconds < 5.0


def test_verify_bad_range(capsys):
    code, _, err = run(capsys, "verify", "--scope", "census", "--q", "2-x", "--m", "2")
    assert code == 2
    code, _, err = run(capsys, "verify", "--scope", "census", "--q", "2")
    assert code == 2
    # every q is checked to be a prime power before any (q, m) size
    code, _, err = run(capsys, "verify", "--scope", "census", "--q", "2,6", "--m", "0-400")
    assert code == 2 and "6 is not a prime power" in err


def test_verify_refuses_a_negative_budget(capsys):
    # a negative budget would skip every oracle and exit 0; 0 stays valid
    for flag, value in [("--max-points", "-1"), ("--max-codewords", "-5")]:
        code, out, err = run(capsys, "verify", "--scope", "all", "--q", "2", "--m", "2", flag, value)
        assert (code, out, err) == (2, "", f"error: {flag} must be >= 0, got {value}\n")
        code, out, _ = run(capsys, "verify", "--scope", "all", "--q", "2", "--m", "2", flag, "0")
        assert code == 0 and "failed=0" in out.splitlines()[-1]


def test_describe_field(capsys):
    code, out, _ = run(capsys, "describe-field", "--q", "4")
    assert code == 0
    assert out.strip().splitlines() == [
        "q=4", "p=2", "e=2", "modulus=1,1,1", "smallest_trace_one=2",
    ]
    code, out, _ = run(capsys, "describe-field", "--q", "9", "--format", "json")
    payload = json.loads(out)
    assert payload["modulus"] == [1, 0, 1]
    assert payload["smallest_nonsquare"] == 4


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--q", "3", "--m", "2", "--coeffs", "c[1][1]=1"],
        ["describe-field", "--q", "4"],
    ],
    ids=["classify", "describe-field"],
)
def test_csv_format_is_refused_where_there_is_no_table(capsys, argv):
    # classify and describe-field print records, not tables: text and json only
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--format", "csv"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "invalid choice: 'csv'" in captured.err


def test_describe_field_rejects_huge_order_at_once(capsys):
    # 2^61 - 1 is prime; factoring it by trial division would not finish
    start = time.perf_counter()
    code, out, err = run(capsys, "describe-field", "--q", "2305843009213693951")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and "exceeds the cap" in err


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_dist_renders_frequencies_past_int_digit_cap(capsys, fmt):
    # binary rm2 m=180 has k = 16291, so its largest frequencies have more
    # than the 4300 decimal digits CPython converts by default
    cap = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "dist", "--family", "rm2", "--q", "2", "--m", "180", "--format", fmt)
    assert code == 0 and err == ""
    assert sys.get_int_max_str_digits() == cap
    sys.set_int_max_str_digits(0)  # for parsing the output back below
    try:
        if fmt == "text":
            entries = {}
            for term in out.strip().split(" + "):
                coeff, _, weight = term.partition("Z^")
                entries[int(weight or 0)] = int(coeff.rstrip("*") or 1)
        elif fmt == "json":
            entries = {e["weight"]: int(e["frequency"]) for e in json.loads(out)["distribution"]}
        else:
            rows = [line.split(",") for line in out.strip().splitlines()[1:]]
            entries = {int(w): int(f) for w, f in rows}
        assert max(len(str(f)) for f in entries.values()) > 4300
    finally:
        sys.set_int_max_str_digits(cap)
    assert entries == rm2_distribution(2, 180).entries


LIBRARY_RENDERERS = {
    "text": codes.weight_enumerator_text,
    "json": lambda wd: json.dumps(wd.to_json_dict()),
    "csv": lambda wd: wd.to_csv(),
}


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_library_int_table_renders_past_int_digit_cap(capsys, fmt):
    # the library's int table, not only dist's Decimal one, prints past
    # CPython's default 4300-digit cap, and prints what dist prints
    assert sys.get_int_max_str_digits() == sys.int_info.default_max_str_digits
    text = LIBRARY_RENDERERS[fmt](rm2_distribution(2, 180))
    code, out, _ = run(capsys, "dist", "--family", "rm2", "--q", "2", "--m", "180", "--format", fmt)
    assert code == 0 and out == text + "\n"


PAST_THE_DIGIT_CAP = [
    *[["spectrum", "--q", "2", "--m", "65535", "--rank", "2", "--type", "plus", "--format", fmt]
      for fmt in ("text", "json", "csv")],
    *[["dist", "--family", "rm2", "--q", "2", "--m", "180", "--format", fmt] for fmt in ("text", "json", "csv")],
    ["classify", "--q", "1048576", "--m", "800", "--coeffs", "", "--format", "text"],
    ["classify", "--q", "1048576", "--m", "800", "--coeffs", "", "--format", "json"],
    ["count", "--q", "3", "--m", "9" * 4200],
    ["verify", "--scope", "census", "--q", "2", "--m", "9" * 4301],
]


def test_output_past_the_digit_cap_leaves_the_cap_alone(capsys, monkeypatch):
    # the numbers printed here (and the figures of the count and verify
    # refusals) run past CPython's default 4300-digit cap on str() of an
    # int; main renders them without touching that interpreter-wide cap,
    # and prints what it printed with the cap lifted
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        lifted = [run(capsys, *argv) for argv in PAST_THE_DIGIT_CAP]
    finally:
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)

    def refuse(digits):
        raise AssertionError("main changed the int-to-str digit cap")

    monkeypatch.setattr(sys, "set_int_max_str_digits", refuse)
    try:
        capped = [run(capsys, *argv) for argv in PAST_THE_DIGIT_CAP]
    finally:
        monkeypatch.undo()
        sys.set_int_max_str_digits(cap)
    assert [code for code, _, _ in capped] == [0] * 8 + [2, 2]
    for argv, (code, out, err), (code_0, out_0, _) in zip(PAST_THE_DIGIT_CAP, capped, lifted):
        assert (code, out) == (code_0, out_0), argv[:2]
        assert (err == "") == (code == 0), argv[:2]
    assert max(len(line) for _, out, _ in capped for line in out.split()) > 4300
    assert "more than 19 digits" in capped[-1][2]


@pytest.mark.parametrize("argv, bits", [
    (["count", "--q", "3", "--m", "5000"], 19815994),
    (["spectrum", "--q", "3", "--m", "100000000", "--rank", "2", "--type", "plus"], 158496252),
    (["dist", "--family", "hrm2", "--q", "2", "--m", "3000"], 4501500),
    (["dist", "--family", "rm2", "--q", "3", "--m", "400"], 127750),
    (["spectrum", "--q", "2", "--m", "65536", "--rank", "0"], 65537),
    (["verify", "--scope", "census", "--q", "2", "--m", "0-400"], 65703),
])
def test_output_size_cap_exits_at_once(capsys, argv, bits):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert f"about {bits} bits" in err and f"cap of {MAX_OUTPUT_BITS} bits" in err


def test_output_size_cap_edge_answers(capsys):
    # the population 2^65536 (19,729 digits) is the largest number at m = 65535
    code, out, _ = run(capsys, "spectrum", "--q", "2", "--m", "65535", "--rank", "0")
    assert code == 0
    population = out.splitlines()[0].removeprefix("population=")
    assert len(population) == 19729 and int(population[-12:]) == pow(2, 65536, 10 ** 12)
    code, out, _ = run(capsys, "count", "--q", "2", "--m", "361", "--rank", "0")
    assert code == 0 and out == "1\n"


def test_output_flag(capsys, tmp_path):
    path = tmp_path / "out.txt"
    code, out, _ = run(
        capsys, "dist", "--family", "hrm2", "--q", "3", "--m", "4", "--output", str(path)
    )
    assert code == 0 and out == ""
    assert path.read_text().strip() == GOLD_HRM_3_4


def test_byte_determinism(capsys):
    outs = []
    for _ in range(2):
        _, out, _ = run(capsys, "dist", "--family", "rm2", "--q", "3", "--m", "4", "--format", "json")
        outs.append(out)
    assert outs[0] == outs[1]


def test_parse_form_text_roundtrip():
    form = parse_form_text("q=3 m=2; c[1][1]=1 c[2][2]=2")
    assert form.coeffs == (1, 0, 2)
    with pytest.raises(Exception):
        parse_form_text("m=2 q=3; c[1][1]=1")
