"""One benchmark process: set up, run the timed window, check the outputs.

run.py starts this script with a file of generated inputs. The
worker imports qfrm from the checkout's ``src``, builds every field the
workload uses with its operation tables, prepares the ops and runs one
untimed pass over them, then prints ``READY``. In ``--mode setup`` it stops
there. In ``--mode run`` it runs whole passes until ``--seconds`` of passes
have gone by, reads its peak RSS, checks every distinct output and prints
one JSON line with the result.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import qfrm  # noqa: E402
import qfrm.cli  # noqa: E402

# checks of classify-stream count zeros point by point up to this many points
ZERO_COUNT_LIMIT = 600_000
MAX_DEVIANTS = 100


class Failed(tuple):
    """Output of an op that raised: (exception type, message)."""


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = qfrm.cli.main(argv)
    return rc, buf.getvalue()


def classify(form):
    rt = qfrm.classify(form)
    return rt.rank, rt.type_tag


def coset(q, m):
    return qfrm.coset_assembled_distribution(q, m).entries


def prepare(op):
    kind, q, m = op["kind"], op["q"], op["m"]
    if kind == "verify":
        return functools.partial(run_cli, ["verify", "--scope", op["scope"], "--q", str(q), "--m", str(m)])
    if kind == "dist":
        return functools.partial(run_cli, ["dist", "--family", op["family"], "--q", str(q), "--m", str(m), "--format", op["format"]])
    if kind == "count":
        return functools.partial(run_cli, ["count", "--q", str(q), "--m", str(m), "--format", op["format"]])
    if kind == "coset":
        return functools.partial(coset, q, m)
    if kind == "classify":
        return functools.partial(classify, qfrm.QuadraticForm(qfrm.field_from_order(q), m, tuple(op["coeffs"])))
    raise ValueError(f"unknown op kind {kind!r}")


def op_class(op) -> str:
    kind = op["kind"]
    if kind == "verify":
        return f"verify {op['scope']}"
    if kind == "dist":
        return f"dist {op['family']}"
    if kind == "classify":
        if op["q"] % 2:
            return "classify odd q"
        return "classify even q, enumeration" if op["rank"] and op["rank"] % 2 == 0 else "classify even q, radical only"
    return kind


def call(fn):
    try:
        return fn()
    except Exception as exc:  # an op that raises is counted as failed, not fatal
        return Failed((type(exc).__name__, str(exc)))


def timed_window(ops, reference, seconds):
    """Whole passes until ``seconds`` of passes have gone by."""
    clock = time.perf_counter
    times = [[] for _ in ops]
    deviants, passes, failed, busy = [], 0, 0, 0.0
    start = clock()
    while busy < seconds:
        t_pass = clock()
        for i, fn in enumerate(ops):
            t0 = clock()
            out = call(fn)
            times[i].append(clock() - t0)
            if type(out) is Failed:
                failed += 1
            if out != reference[i] and len(deviants) < MAX_DEVIANTS:
                deviants.append((i, out))
        busy += clock() - t_pass
        passes += 1
    return {"start": start, "end": clock(), "passes": passes, "busy": busy,
            "failed": failed, "times": times, "deviants": deviants}


# -- checks ---------------------------------------------------------------------------------------


def check_oracle_grid(ops, prepared, outputs):
    """Re-run each op once with the oracles' results captured, then check
    the printed summary and every captured oracle table."""
    from qfrm import verify

    import checks
    from tracing import Patcher

    captured = []

    def capture(kind):
        def make(fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                captured.append((kind, args, result))
                return result
            return wrapper
        return make

    patcher = Patcher()
    for kind in ("census_exhaustive", "merged_oracle", "brute_force_distribution"):
        patcher.patch(verify, kind, capture(kind))
    problems = []
    try:
        for fn in prepared:
            call(fn)
    finally:
        patcher.restore()
    for i, out in outputs:
        problems += checks.check_verify_output(ops[i], *out)
    for kind, args, result in captured:
        if kind == "census_exhaustive":
            problems += checks.check_census(args[0], args[1], result.entries)
        elif kind == "merged_oracle":
            problems += checks.check_merged_spectrum(args[0].field.q, args[0].m, result.entries)
        else:
            problems += checks.check_distribution(*args[:3], result.entries)
    want = {("census_exhaustive", op["q"], op["m"]) for op in ops if op["scope"] == "census"}
    got = {(k, a[0], a[1]) for k, a, _ in captured if k == "census_exhaustive"}
    if want != got:
        problems.append(f"census oracles ran for {sorted(got)}, expected {sorted(want)}")
    return problems


def check_closed_form(ops, outputs):
    import checks

    problems = []
    for i, out in outputs:
        op = ops[i]
        if op["kind"] == "coset":
            problems += checks.check_distribution("rm2", op["q"], op["m"], out)
        else:
            problems += checks.check_cli_output(op, *out)
    return problems


def check_classify_stream(ops, outputs):
    import checks

    problems = []
    for i, out in outputs:
        op = ops[i]
        field = qfrm.field_from_order(op["q"])
        again = classify(qfrm.QuadraticForm(field, op["m"], tuple(op["check_coeffs"])))
        zeros = None
        if checks.is_prime(op["q"]) and op["q"] ** op["m"] <= ZERO_COUNT_LIMIT:
            zeros = checks.count_zeros(op["q"], op["m"], op["coeffs"])
        problems += checks.check_classification(op, out, again, zeros)
    return problems


def check_outputs(workload, ops, prepared, outputs):
    outputs = [(i, out) for i, out in outputs if type(out) is not Failed]
    if workload == "oracle-grid":
        return check_oracle_grid(ops, prepared, outputs)
    if workload == "closed-form":
        return check_closed_form(ops, outputs)
    return check_classify_stream(ops, outputs)


# -- main -----------------------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--inputs", required=True, help="JSON file written by run.py")
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace-out", help="trace the run and write its spans to this file")
    args = parser.parse_args()
    if not Path(qfrm.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: qfrm was imported from {qfrm.__file__}, not from the checkout", file=sys.stderr)
        return 2
    tracer = None
    if args.trace_out:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer, qfrm)
    with open(args.inputs, encoding="utf-8") as handle:
        inputs = json.load(handle)
    ops = inputs["ops"]

    # set-up: fields with their operation tables, prepared ops, one warm pass
    for q in inputs["fields"]:
        field = qfrm.field_from_order(q)
        field.add_array, field.mul_array
    prepared = [prepare(op) for op in ops]
    reference = [call(fn) for fn in prepared]
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    window = timed_window(prepared, reference, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.restore()

    outputs = list(enumerate(reference)) + window["deviants"]
    problems = check_outputs(inputs["workload"], ops, prepared, outputs)
    if window["deviants"]:
        problems.append(f"{len(window['deviants'])} ops gave another output than in the warm-up pass")
    op_times: dict[str, list[float]] = {}
    for op, samples in zip(ops, window["times"]):
        op_times.setdefault(op_class(op), []).extend(samples)
    result = {
        "passes": window["passes"],
        "ops_per_pass": len(ops),
        "attempted": window["passes"] * len(ops),
        "failed": window["failed"],
        "busy_s": window["busy"],
        "ops_per_s": window["passes"] * len(ops) / window["busy"],
        "peak_rss_mb": peak_rss_mb,
        "correct": not problems,
        "problems": problems[:20],
        "op_times": op_times,
    }
    if tracer:
        from tracing import per_layer

        result["per_layer"] = per_layer(tracer.spans, window["start"], window["end"], window["passes"])
        result["spans_per_pass"] = sum(
            window["start"] <= span[1] and span[2] <= window["end"] for span in tracer.spans) / window["passes"]
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            json.dump({"workload": inputs["workload"], "seed": inputs["seed"],
                       "window": [window["start"], window["end"]], "passes": window["passes"],
                       "span_fields": ["name", "start", "end", "parent", "count"],
                       "spans": tracer.spans}, handle)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
