"""One workload in one process: set-up, warm-up op, timed phase.

Started by run.py with the thread pins and `src` on PYTHONPATH:

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace T --mode M

Set-up is the imports, the inputs and their references, and one checked,
untimed warm-up op.  It then prints `READY <time.monotonic()>`; run.py
subtracts its own monotonic clock at spawn.  With `--mode setup` the process
exits there.  With `--mode run` it repeats the op until S seconds have
passed (finishing the op in progress), checks every op, and prints
`RESULT <json>`.  An op that raises or fails its check counts as failed
(a failed check also clears `correct`).  With `--trace 1` the first half of the phase runs
untraced and the second half with every layer wrapped; the result then
holds the per-layer numbers and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np  # noqa: F401  (imported during set-up on purpose)

import ellreg
import workloads
from layertrace import Tracer

HERE = Path(__file__).resolve().parent


def _timed_phase(wl, seconds: float, state: dict, tracer=None):
    """Run whole ops until `seconds` have passed.

    Returns (wall time of every op, number of ops that passed their check).
    """
    times, passed = [], 0
    start = time.perf_counter()
    while True:
        record = tracer is not None and state["spans"] is None
        if record:  # keep the spans of the first traced op
            tracer.spans = []
        t0 = time.perf_counter()
        try:
            result = wl.op()
            problems = None
        except Exception as exc:  # an op that raises counts as failed
            problems = [f"{type(exc).__name__}: {exc}"]
        times.append(time.perf_counter() - t0)
        if record:
            state["spans"], tracer.spans = tracer.spans, None
        if problems is None:
            problems = wl.check(result)
            state["correct"] = state["correct"] and not problems
        if problems:
            state["failed"] += 1
            state["errors"].extend(problems)
        else:
            passed += 1
        if time.perf_counter() - start >= seconds:
            state["attempted"] += len(times)
            return times, passed


def _rate(times, passed) -> float:
    return passed / sum(times)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run"), default="run")
    args = ap.parse_args(argv)

    src = (HERE.parent / "src").resolve()
    if src not in Path(ellreg.__file__).resolve().parents:
        print(f"ellreg was imported from {ellreg.__file__}, not from {src}", file=sys.stderr)
        return 2
    out_root = HERE / "out" / f"{args.workload}-{os.getpid()}"
    try:
        wl = workloads.build(args.workload, args.seed, out_root)
        try:  # the warm-up op is checked like every other
            problems = wl.check(wl.op())
        except Exception as exc:
            problems = [f"{type(exc).__name__}: {exc}"]
        print(f"READY {time.monotonic()!r}", flush=True)
        if problems:
            print("warm-up op failed:\n  " + "\n  ".join(problems), file=sys.stderr)
        if args.mode == "setup":
            return 0

        state = {"attempted": 0, "failed": 0, "correct": not problems, "errors": [], "spans": None}
        result = {}
        if args.trace:
            untraced = _timed_phase(wl, args.seconds / 2.0, state)
            tracer = Tracer()
            wrapped = tracer.install()
            traced = _timed_phase(wl, args.seconds / 2.0, state, tracer)
            result["per_layer"] = tracer.per_op(len(traced[0]))
            # ops run per second, passed or not, with and without the wrappers
            fast, slow = (len(t) / sum(t) for t, _ in (untraced, traced))
            result["per_layer"].update({
                "trace.ops_per_s_untraced": {"value": fast, "unit": "op/s"},
                "trace.ops_per_s_traced": {"value": slow, "unit": "op/s"},
                "trace.overhead_pct": {"value": 100.0 * (fast - slow) / fast, "unit": "%"},
            })
            trace_dir = HERE / "trace"
            trace_dir.mkdir(exist_ok=True)
            with open(trace_dir / f"{args.workload}-seed{args.seed}.json", "w") as fh:
                json.dump({
                    "workload": args.workload, "seed": args.seed, "inputs": wl.inputs,
                    "functions_wrapped": wrapped, "traced_ops": len(traced[0]),
                    "per_layer": result["per_layer"],
                    "first_op_spans": {
                        "fields": ["name", "layer", "parent", "start", "end"],
                        "spans": state["spans"],
                    },
                }, fh)
            times, passed = untraced
        else:
            times, passed = _timed_phase(wl, args.seconds, state)
        result.update({
            "attempted": state["attempted"],
            "failed": state["failed"],
            "correct": state["correct"],
            "op_times": times,
            "ops_per_s": _rate(times, passed),
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        })
        for err in state["errors"][:10]:
            print(err, file=sys.stderr)
        print("RESULT " + json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(out_root, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
