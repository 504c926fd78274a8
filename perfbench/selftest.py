"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Each check is given a true output of qfrm and a corrupted copy of it: one
frequency moved from one weight to another, a census count off by one, a
flipped type, a failed verify line. It must pass the first and reject the
second. Exits 1 if any check lets a corruption through or rejects a true
output. Takes a few seconds.
"""

from __future__ import annotations

import json
import sys

import worker  # puts the checkout's src on sys.path and imports qfrm
import checks
from workloads import generate

qfrm = worker.qfrm
failures = 0


def expect(name: str, good: list[str], bad: list[str]) -> None:
    global failures
    ok = not good and bool(bad)
    failures += not ok
    detail = good[0] if good else (bad[0] if bad else "corruption not detected")
    print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")


def move_one(table: dict) -> dict:
    """Move one unit of the largest frequency to the smallest nonzero weight."""
    out = dict(table)
    src = max(out, key=lambda w: out[w])
    dst = min(w for w in out if w and w != src)
    out[src] -= 1
    out[dst] += 1
    return out


def render_distribution(fmt: str, table: dict) -> str:
    rows = sorted(table.items())
    if fmt == "json":
        return json.dumps({"distribution": [{"weight": w, "frequency": str(f)} for w, f in rows]})
    if fmt == "csv":
        return "\n".join(["weight,frequency"] + [f"{w},{f}" for w, f in rows])
    return " + ".join(str(f) if w == 0 else f"Z^{w}" if f == 1 else f"{f}*Z^{w}" for w, f in rows)


def render_census(fmt: str, entries: dict) -> str:
    rows = sorted(entries.items())
    if fmt == "json":
        return json.dumps({"entries": [{"rank": r, "type": t, "count": str(c)} for (r, t), c in rows]})
    if fmt == "csv":
        return "\n".join(["rank,type,count"] + [f"{r},{t},{c}" for (r, t), c in rows])
    return "\n".join([f"rank={r} type={t} count={c}" for (r, t), c in rows] + [f"total={sum(entries.values())}"])


def closed_form() -> None:
    for fmt in ("text", "json", "csv"):
        for family, q, m in (("rm2", 2, 7), ("rm2", 3, 4), ("hrm2", 2, 6), ("hrm2", 5, 4), ("prm2", 4, 3)):
            op = {"kind": "dist", "family": family, "q": q, "m": m, "format": fmt}
            rc, text = worker.prepare(op)()
            bad = render_distribution(fmt, move_one(checks.parse_distribution(fmt, text)))
            expect(f"closed-form {family} q={q} m={m} {fmt}, frequency moved",
                   worker.check_outputs("closed-form", [op], None, [(0, (rc, text))]),
                   worker.check_outputs("closed-form", [op], None, [(0, (rc, bad))]))
        op = {"kind": "count", "q": 3, "m": 5, "format": fmt}
        rc, text = worker.prepare(op)()
        entries = checks.parse_census(fmt, text)
        entries[(2, "minus")] += 1
        expect(f"closed-form count q=3 m=5 {fmt}, count off by one",
               worker.check_outputs("closed-form", [op], None, [(0, (rc, text))]),
               worker.check_outputs("closed-form", [op], None, [(0, (rc, render_census(fmt, entries)))]))
    # two units moved symmetrically about n/2 keep the mass and the first
    # moment; the second moment and the Sloane-Berlekamp table must see it
    table = qfrm.rm2_distribution(2, 6).entries
    skew = dict(table)
    skew[32] -= 2
    skew[24] += 1
    skew[40] += 1
    expect("closed-form rm2 q=2 m=6, mass and first moment kept",
           checks.check_distribution("rm2", 2, 6, table), checks.check_distribution("rm2", 2, 6, skew))
    op = {"kind": "coset", "q": 3, "m": 4}
    table = worker.prepare(op)()
    expect("closed-form coset q=3 m=4, frequency moved",
           worker.check_outputs("closed-form", [op], None, [(0, table)]),
           worker.check_outputs("closed-form", [op], None, [(0, move_one(table))]))


def oracle_grid() -> None:
    op = {"kind": "verify", "scope": "codes", "q": 3, "m": 2}
    rc, text = worker.prepare(op)()
    bad = text.replace("PASS", "FAIL", 1).replace("passed=5 failed=0", "passed=4 failed=1")
    expect("oracle-grid verify output, one FAIL line",
           checks.check_verify_output(op, rc, text), checks.check_verify_output(op, 1, bad))
    census = qfrm.census_exhaustive(2, 3).entries
    off = dict(census)
    off[(2, "plus")] += 1
    expect("oracle-grid census oracle q=2 m=3, count off by one",
           checks.check_census(2, 3, census), checks.check_census(2, 3, off))
    form = qfrm.canonical_form(qfrm.field_from_order(3), 2, 1, 1)
    merged = qfrm.merged_oracle(form).entries
    expect("oracle-grid merged spectrum oracle q=3 m=2, multiplicity moved",
           checks.check_merged_spectrum(3, 2, merged), checks.check_merged_spectrum(3, 2, move_one(merged)))
    for family, q, m in (("rm2", 2, 4), ("hrm2", 3, 2), ("prm2", 3, 2)):
        brute = qfrm.brute_force_distribution(family, q, m).entries
        expect(f"oracle-grid brute force {family} q={q} m={m}, frequency moved",
               checks.check_distribution(family, q, m, brute),
               checks.check_distribution(family, q, m, move_one(brute)))


def classify_stream() -> None:
    ops = generate("classify-stream", 1)["ops"]
    picks = {
        "even q=2, enumeration": next(o for o in ops if o["q"] == 2 and o["rank"] % 2 == 0 and o["m"] <= 12),
        "odd prime q=5": next(o for o in ops if o["q"] == 5 and o["rank"] % 2 == 0),
        "odd q=9, extension field": next(o for o in ops if o["q"] == 9),
    }
    for label, op in picks.items():
        out = worker.prepare(op)()
        flipped = (out[0], -out[1])
        expect(f"classify-stream {label}, flipped type",
               worker.check_outputs("classify-stream", [op], None, [(0, out)]),
               worker.check_outputs("classify-stream", [op], None, [(0, flipped)]))
    # the zero count alone must catch a type that is wrong everywhere else too
    op = picks["odd prime q=5"]
    lie = dict(op, type=-op["type"])
    zeros = checks.count_zeros(op["q"], op["m"], op["coeffs"])
    got = (op["rank"], lie["type"])
    expect("classify-stream q=5, flipped type seen only by the zero count",
           checks.check_classification(op, (op["rank"], op["type"]), (op["rank"], op["type"]), zeros),
           checks.check_classification(lie, got, got, zeros))


if __name__ == "__main__":
    closed_form()
    oracle_grid()
    classify_stream()
    print(f"{failures} of the checks above let a corruption through or rejected a true output")
    sys.exit(1 if failures else 0)
