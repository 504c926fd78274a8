"""qfrm benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload oracle-grid --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The inputs are generated here from the
seed; each workload then runs in worker processes of one thread each (see
worker.py). With ``--trace 0`` the end-to-end metrics are reported:

- ``setup_s``: from starting a worker's interpreter to its first timed op,
  the median of several fresh starts;
- ``ops_per_s``: ops completed per second of the timed window;
- ``peak_rss_mb``: the worker's ``ru_maxrss`` at the end of the window.

``--seconds`` defaults to ``run_seconds`` in BENCHMARK.json. With
``--trace 1`` one traced worker reports the per-layer metrics and
writes its spans under ``perfbench/out``. The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``; a summary goes to stderr.
A failed output check sets ``correct`` to false in that line and the exit
code stays 0, so the result is still read; exit code 1 means no result.

``--steadiness`` runs two interleaved sets of runs of every workload and
reports whether they agree within the bounds in BENCHMARK.json (see
steadiness.py).
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, generate

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
WORKER = Path(__file__).resolve().parent / "worker.py"
# fresh interpreters whose set-up is timed; the median is reported
SETUP_STARTS = 5
# time a run may take beyond its window, for the set-ups and the checks
MARGIN_S = 140


class BenchError(Exception):
    pass


def _read_ready(proc, deadline):
    """Wait for the worker's READY line, reading byte by byte so that
    nothing after it is consumed here."""
    buf = b""
    fd = proc.stdout.fileno()
    while not buf.endswith(b"\n"):
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            raise BenchError("worker did not finish set-up in time")
        chunk = os.read(fd, 1)
        if not chunk:
            raise BenchError(f"worker ended during set-up with code {proc.wait()}")
        buf += chunk
    if buf != b"READY\n":
        raise BenchError(f"worker printed {buf!r} instead of READY")


def run_worker(inputs: Path, mode: str, seconds: float, deadline: float, trace_out=None):
    """Start a worker, time its set-up and, in run mode, wait for its result."""
    argv = [sys.executable, str(WORKER), "--inputs", str(inputs), "--mode", mode, "--seconds", str(seconds)]
    if trace_out:
        argv += ["--trace-out", str(trace_out)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, cwd=ROOT, env=env)
    try:
        _read_ready(proc, deadline)
        setup_s = time.perf_counter() - start
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker exited with code {proc.returncode}")
        return setup_s, json.loads(out.decode().splitlines()[-1]) if mode == "run" else None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def run_seconds() -> int:
    return json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + seconds + MARGIN_S
    if not (ROOT / "src" / "qfrm" / "__init__.py").is_file():
        raise BenchError(f"no qfrm sources under {ROOT / 'src'}")
    # byte-compile once, so no timed start pays for compiling the sources
    compileall.compile_dir(ROOT / "src", quiet=2)
    compileall.compile_dir(WORKER.parent, quiet=2, maxlevels=0)
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    payload = OUT / f"inputs-{tag}.json"
    payload.write_text(json.dumps(generate(workload, seed)))
    if trace:
        _, result = run_worker(payload, "run", seconds, deadline, OUT / f"spans-{tag}.json")
        from tracing import PER_LAYER

        metrics = {name: {"value": result["per_layer"][name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        setups = [run_worker(payload, "setup", seconds, deadline)[0] for _ in range(SETUP_STARTS - 1)]
        setup_s, result = run_worker(payload, "run", seconds, deadline)
        setups.append(setup_s)
        result["setup_samples"] = setups
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": result["ops_per_s"], "unit": "op/s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    result["metrics"] = metrics
    (OUT / f"run-{tag}.json").write_text(json.dumps(result))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="length of the timed window (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true",
                        help="run two interleaved sets of runs of every workload and compare them")
    args = parser.parse_args(argv)
    if args.steadiness:
        from steadiness import steadiness

        return steadiness(run)
    if not args.workload:
        parser.error("--workload is required")
    try:
        seconds = run_seconds() if args.seconds is None else args.seconds
        result = run(args.workload, args.seed, seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(f"{args.workload} attempted={result['attempted']} failed={result['failed']} "
          f"passes={result['passes']} correct={result['correct']}", file=sys.stderr)
    for problem in result["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
