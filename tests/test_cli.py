"""Command-line surface: outputs, formats, exit codes, determinism."""

import hashlib
import json
import sys
import time

import pytest

from qfrm.cli import MAX_OUTPUT_BITS, main, parse_form_text
from qfrm.codes import rm2_distribution

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


def test_classify_parse_error(capsys):
    code, _, err = run(capsys, "classify", "--q", "2", "--m", "2", "--coeffs", "c[2][1]=1")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "classify", "--q", "2", "--m", "2", "--coeffs", "garbage")
    assert code == 2


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


# sha256 of every (argv, exit code, stdout) in _rank_type_sweep, recorded
# before the form-class rule moved into forms and spectra; a refactor of that
# rule must leave every byte of these outputs as it was
RANK_TYPE_SWEEP_SHA256 = "807df6da7e4fcc9a7df8b313e00192130cf8bc0b2cd34444ff7729b90ba495cf"


def _rank_type_sweep():
    for q in (2, 3, 4, 9):
        for m in range(4):
            for rank in range(-1, m + 2):
                head = ["--q", str(q), "--m", str(m), "--rank", str(rank)]
                for fmt in ("text", "json"):
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
    assert lines[0].endswith("evaluations exceed the budget 67108864)")
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


def test_verify_spectra(capsys):
    code, out, _ = run(capsys, "verify", "--scope", "spectra", "--q", "3", "--m", "2")
    assert code == 0
    assert "failed=0" in out.strip().splitlines()[-1]


# sha256 of the stdout of `verify --scope spectra --q 2 --m 359`, recorded
# while check_spectra still built every form before testing its budget
VERIFY_SPECTRA_2_359_SHA256 = "12f5c93cfe6aa848778c4e954801a98a47031639ffa5565935b67a30082fd2e7"


def test_verify_spectra_past_the_oracle_budget_builds_no_form(capsys):
    # all 1,617 cases are over budget: each is skipped before its form is built
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


def test_verify_bad_range(capsys):
    code, _, err = run(capsys, "verify", "--scope", "census", "--q", "2-x", "--m", "2")
    assert code == 2
    code, _, err = run(capsys, "verify", "--scope", "census", "--q", "2")
    assert code == 2


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


@pytest.mark.parametrize("argv, bits", [
    (["count", "--q", "3", "--m", "5000"], 19815994),
    (["spectrum", "--q", "3", "--m", "100000000", "--rank", "2", "--type", "plus"], 158496252),
    (["dist", "--family", "hrm2", "--q", "2", "--m", "3000"], 4501500),
    (["dist", "--family", "rm2", "--q", "3", "--m", "400"], 127750),
    (["spectrum", "--q", "2", "--m", "65536", "--rank", "0"], 65537),
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
