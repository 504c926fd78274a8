"""Two interleaved sets of benchmark runs, and whether they agree.

    python3 perfbench/run.py --steadiness

For run index i (0 to 9) and each workload in turn: one run of set A (seed
101 + i), one traced run (seed 301 + i) and one run of set B (seed 201 + i),
in the order A, traced, B for even i and B, traced, A for odd i, with the
run length and bounds of BENCHMARK.json. For every workload and end-to-end
metric it prints each set's median and quartiles, the spread (quartile
distance over median) and the drift of B's median from A's, and whether
they agree: every spread and the drift within the bound, every output
correct, and the same share of failed ops in all runs.

The tracing overhead is the median over i of 1 - traced ops_per_s / mean
of the A and B ops_per_s of the same i, so the traced run is compared with
the runs next to it. Beside it stands an estimate free of machine drift:
the time one tracing wrapper adds to a call, timed here on a no-op, times
the spans per pass of the traced runs, over the time of a pass.

Before each run a fixed pure-Python loop is timed, to show how the speed of
the machine drifts. Per-op-class times, the share of classify-stream calls
that enumerate, and every raw value go to ``perfbench/out/steadiness.json``.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
RUNS = 10  # runs per set, and traced runs per workload
SEEDS = {"A": 101, "B": 201, "T": 301}


def speed_probe() -> float:
    """Loops per second of a fixed pure-Python loop, over about 0.3 s."""
    loops, start = 0, time.perf_counter()
    while time.perf_counter() - start < 0.3:
        acc = 0
        for i in range(20000):
            acc += i * i % 7
        loops += 1
    return loops / (time.perf_counter() - start)


def wrapper_cost() -> float:
    """Seconds a tracing wrapper adds to one call: the best of five rounds
    of 100,000 calls of a wrapped no-op, less the same of the bare no-op."""
    from tracing import Tracer

    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer.span("noop")(noop)

    def best(fn, calls=100_000):
        times = []
        for _ in range(5):
            tracer.spans.clear()
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            times.append((time.perf_counter() - start) / calls)
        return min(times)

    return best(wrapped) - best(noop)


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def tail_percentile(samples):
    """Median and the highest percentile with at least ten samples beyond it."""
    samples = sorted(samples)
    n = len(samples)
    best = None
    for p in (50, 75, 90, 95, 99, 99.9):
        if n * (100 - p) / 100 >= 10:
            best = p
    out = {"n": n, "median_ms": 1000 * statistics.median(samples)}
    if best is not None and best > 50:
        out[f"p{best:g}_ms"] = 1000 * samples[min(n - 1, int(n * best / 100))]
    return out


def compare(spec, runs):
    """Per workload and metric: both sets' quartiles, spread, drift, verdict."""
    rows = []
    for workload in sorted({r["workload"] for r in runs}):
        sets = {s: [r for r in runs if r["workload"] == workload and r["set"] == s] for s in "AB"}
        every = sets["A"] + sets["B"]
        shares = sorted({r["failed"] / r["attempted"] for r in every})
        correct = all(r["correct"] for r in every)
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = {}
            for s, rs in sets.items():
                q1, med, q3 = quartiles([r["metrics"][name]["value"] for r in rs])
                stats[s] = {"q1": q1, "median": med, "q3": q3, "spread": (q3 - q1) / med}
            drift = stats["B"]["median"] / stats["A"]["median"] - 1
            worse = drift if metric["better"] == "lower" else -drift
            agree = (all(st["spread"] <= bound for st in stats.values()) and abs(drift) <= bound
                     and correct and len(shares) == 1)
            rows.append({"workload": workload, "metric": name, "unit": metric["unit"], "bound": bound,
                         "A": stats["A"], "B": stats["B"], "drift": drift, "worse_by": worse,
                         "failed_share": shares, "correct": correct, "agree": agree})
    return rows


def tracing_overhead(workloads, runs, cost):
    """Paired tracing overhead per workload, and the estimate from ``cost``."""
    overhead = {}
    for workload in workloads:
        by_set = {s: [r for r in runs if r["workload"] == workload and r["set"] == s] for s in "ABT"}
        paired = [1 - t["ops_per_s"] / ((a["ops_per_s"] + b["ops_per_s"]) / 2)
                  for a, b, t in zip(by_set["A"], by_set["B"], by_set["T"])]
        untraced = statistics.median(r["ops_per_s"] for r in by_set["A"] + by_set["B"])
        spans_per_pass = statistics.median(t["spans_per_pass"] for t in by_set["T"])
        pass_s = by_set["T"][0]["ops_per_pass"] / untraced
        q1, med, q3 = quartiles(paired)
        overhead[workload] = {"paired": paired, "median": med, "q1": q1, "q3": q3,
                              "untraced_ops_per_s": untraced,
                              "traced_ops_per_s": statistics.median(t["ops_per_s"] for t in by_set["T"]),
                              "spans_per_pass": spans_per_pass, "pass_s": pass_s,
                              "estimate": cost * spans_per_pass / pass_s}
    return overhead


def steadiness(run) -> int:
    """Run the sets with ``run`` (run.py's run function) and report."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    runs = []
    for i in range(RUNS):
        for workload in workloads:
            for s in ("ATB" if i % 2 == 0 else "BTA"):
                probe = speed_probe()
                result = run(workload, SEEDS[s] + i, seconds, s == "T")
                result.update(workload=workload, set=s, seed=SEEDS[s] + i, probe=probe)
                runs.append(result)
                shown = result["ops_per_s"] if s == "T" else " ".join(
                    f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
                print(f"[{i + 1}/{RUNS}] {workload} set {s} seed {result['seed']}: {shown}",
                      file=sys.stderr, flush=True)
    cost = wrapper_cost()

    rows = compare(spec, runs)
    print(f"steadiness: {RUNS} runs per set, run_seconds={seconds}")
    print(f"{'workload':16} {'metric':12} {'set A median [q1, q3]':34} {'set B median [q1, q3]':34} "
          f"{'spread A':>8} {'spread B':>8} {'drift':>7} {'bound':>6}  verdict")
    for r in rows:
        cell = {s: f"{r[s]['median']:.4g} [{r[s]['q1']:.4g}, {r[s]['q3']:.4g}] {r['unit']}" for s in "AB"}
        print(f"{r['workload']:16} {r['metric']:12} {cell['A']:34} {cell['B']:34} "
              f"{r['A']['spread']:8.2%} {r['B']['spread']:8.2%} {r['drift']:+7.2%} {r['bound']:6.0%}  "
              + ("agree" if r["agree"] else "DISAGREE"))
    for workload in workloads:
        row = next(r for r in rows if r["workload"] == workload)
        print(f"{workload}: failed share of attempted ops in both sets: {row['failed_share']}; "
              f"outputs {'all correct' if row['correct'] else 'NOT ALL CORRECT'}")

    overhead = tracing_overhead(workloads, runs, cost)
    print(f"tracing wrapper: {cost * 1e6:.2f} us per call")
    for workload, o in overhead.items():
        print(f"{workload}: tracing overhead {o['median']:+.1%} of ops_per_s, quartiles "
              f"[{o['q1']:+.1%}, {o['q3']:+.1%}] over {RUNS} traced runs; estimate {o['estimate']:.2%} "
              f"({o['spans_per_pass']:.0f} spans per pass of {o['pass_s']:.3g} s)")
    probes = [r["probe"] for r in runs]
    q1, med, q3 = quartiles(probes)
    print(f"machine speed probe: median {med:.1f} loops/s, quartiles [{q1:.1f}, {q3:.1f}], "
          f"range [{min(probes):.1f}, {max(probes):.1f}] over {len(probes)} probes")

    op_classes = {}
    for workload in workloads:
        pooled: dict[str, list[float]] = {}
        for r in runs:
            if r["workload"] == workload and r["set"] != "T":
                for cls, samples in r["op_times"].items():
                    pooled.setdefault(cls, []).extend(samples)
        op_classes[workload] = {cls: tail_percentile(samples) for cls, samples in sorted(pooled.items())}
    classify_counts = {cls: v["n"] for cls, v in op_classes.get("classify-stream", {}).items()}
    if classify_counts:
        share = classify_counts.get("classify even q, enumeration", 0) / sum(classify_counts.values())
        print(f"classify-stream: {share:.1%} of classify calls take the enumeration path")
    OUT.mkdir(exist_ok=True)
    (OUT / "steadiness.json").write_text(json.dumps(
        {"rows": rows, "overhead": overhead, "wrapper_cost_s": cost, "op_classes": op_classes,
         "runs": [{k: v for k, v in r.items() if k != "op_times"} for r in runs]}, indent=1))
    return 0 if all(r["agree"] for r in rows) else 1
