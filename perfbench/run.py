"""Benchmark entry point; run from the repository root.

    python3 perfbench/run.py --workload apriori-1d --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Each workload runs in fresh single-threaded worker processes (BLAS and
OpenMP pinned to one thread, ellreg imported from ./src).  Untraced, it
starts SETUPS[workload] workers one after another: all but the last only set
up, the last sets up and then runs the timed phase; `setup_s` is the median
of their set-up times.
Traced, one worker runs and the per-layer metrics are printed instead.  The
last line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics` (for `--workload all`, one such line per workload).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("apriori-1d", "field-2d", "solve-iterate")
# set-up repeats per run: more where set-up is cheap, since its median is noisier
SETUPS = {"apriori-1d": 5, "field-2d": 3, "solve-iterate": 9}
PINS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
}


def _environment() -> dict:
    env = dict(os.environ, **PINS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # keep the checkout clean; same cost every run
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(args, mode: str, timeout: float):
    """Start one worker; returns (set-up seconds, RESULT payload or None)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--mode", mode,
    ]
    # time.monotonic() is CLOCK_MONOTONIC on Linux, shared by all processes,
    # so the worker's READY stamp minus this one is its set-up time.
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_environment(), cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{args.workload} worker ({mode}) exited with {proc.returncode}")
    setup, result = None, None
    for line in out.splitlines():
        if line.startswith("READY "):
            setup = float(line.split()[1]) - spawned
        elif line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    if setup is None or (mode == "run" and result is None):
        raise RuntimeError(f"{args.workload} worker ({mode}) printed no result")
    return setup, result


def run_workload(args) -> dict:
    budget = 150.0
    deadline = time.monotonic() + budget
    setups = []
    if not args.trace:
        for _ in range(SETUPS[args.workload] - 1):
            setups.append(_worker(args, "setup", deadline - time.monotonic())[0])
    setup, result = _worker(args, "run", deadline - time.monotonic())
    setups.append(setup)
    times = result["op_times"]
    p90 = statistics.quantiles(times, n=10)[-1] if len(times) > 1 else times[0]
    print(
        f"# {args.workload} seed {args.seed}: {len(times)} ops, "
        f"op p50 {statistics.median(times):.6f} s, p90 {p90:.6f} s; "
        f"set-up {', '.join(f'{s:.4f}' for s in setups)} s"
    )
    if args.trace:
        metrics = result["per_layer"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": result["ops_per_s"], "unit": "op/s"},
            "op_p50_s": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024.0, "unit": "MB"},
        }
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="ellreg benchmark")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ellreg" / "__init__.py").is_file():
        print(f"no ellreg sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        args.workload = name
        try:
            line = run_workload(args)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
