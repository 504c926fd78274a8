"""Output checks made apart from qfrm.

Every function returns a list of problems (empty when the output is right).
The formulas here are written from the literature, not from qfrm's code: the
census comes from group orders, the binary rm2 table from Sloane and
Berlekamp, the moments from the Pless power moments, and zero counts are
counted point by point.
"""

from __future__ import annotations

import json

import numpy as np

from gf import prime_power
from workloads import code_dimension


# -- formulas -------------------------------------------------------------------------------


def _prod(values) -> int:
    out = 1
    for v in values:
        out *= v
    return out


def census(q: int, m: int) -> dict[tuple[int, str], int]:
    """Forms on GF(q)^m per (rank, type), keyed like qfrm's census.

    A form of rank r is a choice of radical (an (m-r)-subspace, Gaussian
    binomial) times a nondegenerate form on the quotient, and those number
    |GL(r)| / |isometry group|: O^+-(2j) for even r, and for odd r = 2j+1
    Sp(2j) over even q or two classes of O(2j+1) over odd q.
    """
    def gl(r):
        return q ** (r * (r - 1) // 2) * _prod(q ** i - 1 for i in range(1, r + 1))

    def gauss(r):
        return _prod(q ** i - 1 for i in range(m - r + 1, m + 1)) // _prod(q ** i - 1 for i in range(1, r + 1))

    def sp(j):  # |Sp(2j, q)|, also |O(2j+1, q)| / 2 for odd q
        return q ** (j * j) * _prod(q ** (2 * i) - 1 for i in range(1, j + 1))

    out = {(0, "plus"): 1}
    for r in range(1, m + 1):
        j = r // 2
        if r % 2:
            out[(r, "untyped" if q % 2 == 0 else "odd_total")] = gauss(r) * gl(r) // sp(j)
        else:
            for label, eps in (("plus", 1), ("minus", -1)):
                orth = 2 * q ** (j * (j - 1)) * (q ** j - eps) * _prod(q ** (2 * i) - 1 for i in range(1, j))
                out[(r, label)] = gauss(r) * gl(r) // orth
    return out


def code_length(family: str, q: int, m: int) -> int:
    return (q ** (m + 1) - 1) // (q - 1) if family == "prm2" else q ** m


def sloane_berlekamp(m: int) -> dict[int, int]:
    """Weight distribution of binary RM(2, m)."""
    n, k = 2 ** m, code_dimension("rm2", 2, m)
    out = {0: 1, n: 1}
    rest = 2 ** k - 2
    for h in range(1, m // 2 + 1):
        a = 2 ** (h * (h + 1)) * _prod(2 ** i - 1 for i in range(m - 2 * h + 1, m + 1)) // _prod(4 ** i - 1 for i in range(1, h + 1))
        out[n // 2 - 2 ** (m - 1 - h)] = a
        out[n // 2 + 2 ** (m - 1 - h)] = a
        rest -= 2 * a
    out[n // 2] = rest
    return out


# -- checks -------------------------------------------------------------------------------------


def check_distribution(family: str, q: int, m: int, table: dict[int, int]) -> list[str]:
    """Mass, the first two Pless power moments, and the binary rm2 table."""
    where = f"{family} q={q} m={m}"
    n, k = code_length(family, q, m), code_dimension(family, q, m)
    problems = []
    if sum(table.values()) != q ** k:
        problems.append(f"{where}: frequencies sum to {sum(table.values())}, not q^k")
    # the zero point of GF(q)^m is a coordinate where every form of hrm2 vanishes
    n_live = n - 1 if family == "hrm2" else n
    first = sum(w * a for w, a in table.items())
    if first != q ** (k - 1) * (q - 1) * n_live:
        problems.append(f"{where}: first power moment {first} is wrong")
    if family != "hrm2" or q == 2:
        second = sum(w * w * a for w, a in table.items())
        if second != q ** (k - 2) * (q - 1) * n_live * ((q - 1) * n_live + 1):
            problems.append(f"{where}: second power moment {second} is wrong")
    if family == "rm2" and q == 2 and table != sloane_berlekamp(m):
        problems.append(f"{where}: differs from the Sloane-Berlekamp table")
    return problems


def check_census(q: int, m: int, entries: dict[tuple[int, str], int]) -> list[str]:
    problems = []
    if sum(entries.values()) != q ** (m * (m + 1) // 2):
        problems.append(f"census q={q} m={m}: counts total {sum(entries.values())}, not q^(m(m+1)/2)")
    if entries != census(q, m):
        problems.append(f"census q={q} m={m}: counts differ from the group-order formula")
    return problems


def check_merged_spectrum(q: int, m: int, entries: dict[int, int]) -> list[str]:
    # each point is a zero of Q + L + c for exactly one c, for each of the q^m L
    total = sum(v * k for v, k in entries.items())
    if total != q ** (2 * m):
        return [f"merged spectrum q={q} m={m}: zeros total {total}, not q^(2m)"]
    return []


def expected_zeros(q: int, m: int, rank: int, tau) -> int:
    if rank == 0:
        return q ** m
    if rank % 2:
        return q ** (m - 1)
    return q ** (m - 1) + tau * (q - 1) * q ** (m - 1 - rank // 2)


def count_zeros(q: int, m: int, coeffs) -> int:
    """Zeros of the form over prime q, counted at every point of GF(q)^m."""
    U = np.zeros((m, m), dtype=np.int64)
    k = 0
    for i in range(m):
        for j in range(i, m):
            U[i, j] = coeffs[k]
            if q % 2 and i != j:
                U[j, i] = coeffs[k]
            k += 1
    total, chunk = 0, 1 << 16
    weights = q ** np.arange(m - 1, -1, -1, dtype=np.int64)
    for lo in range(0, q ** m, chunk):
        idx = np.arange(lo, min(lo + chunk, q ** m), dtype=np.int64)
        X = (idx[:, None] // weights[None, :]) % q
        total += int(np.count_nonzero(((X @ U) * X).sum(axis=1) % q == 0))
    return total


def check_classification(op: dict, got, again, zeros) -> list[str]:
    """``got`` is (rank, type) for the op's table, ``again`` for the table
    after a further random substitution; ``zeros`` is the counted zero count,
    or None where it was not counted."""
    where = f"classify q={op['q']} m={op['m']}"
    problems = []
    if got != (op["rank"], op["type"]):
        problems.append(f"{where}: got {got}, the form was built as {(op['rank'], op['type'])}")
    if again != got:
        problems.append(f"{where}: {got} changes to {again} under an invertible substitution")
    if zeros is not None and zeros != expected_zeros(op["q"], op["m"], *got):
        problems.append(f"{where}: {zeros} zeros do not fit {got}")
    return problems


# -- CLI output parsers ------------------------------------------------------------------------


def parse_distribution(fmt: str, text: str) -> dict[int, int]:
    text = text.strip()
    if fmt == "json":
        return {e["weight"]: int(e["frequency"]) for e in json.loads(text)["distribution"]}
    if fmt == "csv":
        lines = text.splitlines()
        if lines[0] != "weight,frequency":
            raise ValueError("bad csv header")
        return {int(w): int(f) for w, f in (line.split(",") for line in lines[1:])}
    table = {}
    for term in text.split(" + "):
        coeff, _, power = term.partition("Z^")
        if not power:
            table[0] = int(coeff)
        else:
            table[int(power)] = int(coeff.rstrip("*")) if coeff else 1
    return table


def parse_census(fmt: str, text: str) -> dict[tuple[int, str], int]:
    text = text.strip()
    if fmt == "json":
        return {(e["rank"], e["type"]): int(e["count"]) for e in json.loads(text)["entries"]}
    lines = text.splitlines()
    if fmt == "csv":
        if lines[0] != "rank,type,count":
            raise ValueError("bad csv header")
        return {(int(r), t): int(c) for r, t, c in (line.split(",") for line in lines[1:])}
    out = {}
    for line in lines[:-1]:
        fields = dict(part.split("=") for part in line.split())
        out[(int(fields["rank"]), fields["type"])] = int(fields["count"])
    if lines[-1] != f"total={sum(out.values())}":
        raise ValueError("total line disagrees with the rows")
    return out


def expected_verify_passes(scope: str, q: int, m: int) -> int:
    """Number of PASS lines `qfrm verify --scope scope --q q --m m` prints."""
    if scope == "census":
        return 1
    if scope == "codes":
        defined = 2 if q == 2 and m < 2 else 3
        return defined + (1 if q > 2 else 0) + 1
    lines = 0
    for r in range(m + 1):
        tags = 1 if r == 0 or (r % 2 and q % 2 == 0) else 2
        classes = 3 if q % 2 and r % 2 else 2
        lines += tags * (classes + 1)
    return lines


def check_verify_output(op: dict, rc: int, text: str) -> list[str]:
    where = f"verify --scope {op['scope']} --q {op['q']} --m {op['m']}"
    want = expected_verify_passes(op["scope"], op["q"], op["m"])
    lines = text.strip().splitlines()
    problems = []
    if rc != 0:
        problems.append(f"{where}: exit code {rc}")
    if not lines or lines[-1] != f"passed={want} failed=0 skipped=0":
        problems.append(f"{where}: summary {lines[-1:]} is not passed={want} failed=0 skipped=0")
    if sum(line.startswith("PASS ") for line in lines) != want:
        problems.append(f"{where}: expected {want} PASS lines")
    return problems


def check_cli_output(op: dict, rc: int, text: str) -> list[str]:
    """Checks for one `qfrm dist` or `qfrm count` output."""
    q, m, fmt = op["q"], op["m"], op["format"]
    if rc != 0:
        return [f"{op}: exit code {rc}"]
    try:
        if op["kind"] == "count":
            return check_census(q, m, parse_census(fmt, text))
        return check_distribution(op["family"], q, m, parse_distribution(fmt, text))
    except (ValueError, KeyError, IndexError) as exc:
        return [f"{op}: unreadable output ({exc})"]


def is_prime(q: int) -> bool:
    return prime_power(q)[1] == 1
