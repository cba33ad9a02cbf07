"""Per-layer spans and counters, recorded from outside the program.

`Tracer.install()` replaces every public function of the nine ellreg layers
(and the handful of methods named in `_METHODS`) with a timing wrapper, in
every module namespace that binds it, so module-level aliases such as
`ellreg.besov.translate` are timed too.  Each call is attributed to the
layer that defines the function.  A layer's self time is its spans' time
minus the time covered by the spans they caused.  Generator functions are
left alone: their work happens in the caller's iteration.

The timed (untraced) runs never call `install()`.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter
from pathlib import Path

LAYERS = (
    "grid", "pdo", "besov", "mollify", "resolvent", "localize", "profiles", "casework", "cli",
)

# Class methods that are timed as part of their module's layer.
_METHODS = {
    "__call__", "__add__", "__sub__", "__mul__", "__rmul__", "_phase",
}

_SOLVERS = {"solve_constant", "solve_neumann_lower_order", "solve_frozen_localized"}


class Tracer:
    def __init__(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.inclusive_s = Counter()
        self.counts = Counter()
        self.spans = None  # a list while spans are being recorded
        self._stack = []  # [child_time, span_id] per open call

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, func, layer: str, name: str):
        clock = time.perf_counter
        stack = self._stack
        self_s, calls, inclusive = self.self_s, self.calls, self.inclusive_s
        hook = self._hooks().get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [0.0, None]
            if tracer.spans is not None:
                frame[1] = len(tracer.spans)
                parent = stack[-1][1] if stack else None
                tracer.spans.append([name, layer, parent, 0.0, 0.0])
            stack.append(frame)
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                span = t1 - t0
                self_s[layer] += span - frame[0]
                calls[layer] += 1
                inclusive[name] += span
                if stack:
                    stack[-1][0] += span
                if frame[1] is not None:
                    tracer.spans[frame[1]][3:] = [t0, t1]
            if hook is not None:
                hook(args, result)
            return result

        wrapper.__wrapped__ = func
        wrapper.__name__ = func.__name__
        wrapper.__qualname__ = func.__qualname__
        return wrapper

    def _hooks(self):
        counts = self.counts

        def transform(args, result):
            data = args[0]
            arr = data.samples if hasattr(data, "samples") else data.coefficients
            counts["grid.transforms"] += 1
            counts["grid.fft_points"] += arr.size

        def freqs(args, result):
            counts["grid.freqs_calls"] += 1

        def pdo_apply(args, result):
            counts["pdo.apply_calls"] += 1

        def solve(args, result):
            counts["resolvent.solves"] += 1
            counts["resolvent.iterations"] += result.iterations

        def mollify(args, result):
            counts["mollify.calls"] += 1

        def artifacts(args, result):
            out_dir = Path(args[0])
            counts["cli.artifact_bytes"] += sum(p.stat().st_size for p in out_dir.iterdir())

        hooks = {
            "grid.dft": transform,
            "grid.idft": transform,
            "grid.GridSpec.freqs": freqs,
            "grid.GridSpec._phase": freqs,
            "pdo.apply": pdo_apply,
            "mollify.mollify": mollify,
            "cli.write_artifacts": artifacts,
        }
        hooks.update({f"resolvent.{s}": solve for s in _SOLVERS})
        return hooks

    def install(self) -> int:
        """Wrap the layers' functions in place; returns how many were wrapped."""
        modules = {layer: importlib.import_module(f"ellreg.{layer}") for layer in LAYERS}
        namespaces = list(modules.values()) + [importlib.import_module("ellreg")]
        wrapped = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                    and not inspect.isgeneratorfunction(obj)
                ):
                    wrapped[id(obj)] = self._wrap(obj, layer, f"{layer}.{attr}")
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if (
                            inspect.isfunction(fn)
                            and (not meth.startswith("_") or meth in _METHODS)
                            and not inspect.isgeneratorfunction(fn)
                        ):
                            key = id(fn)
                            if key not in wrapped:
                                wrapped[key] = self._wrap(fn, layer, f"{layer}.{attr}.{meth}")
                            setattr(obj, meth, wrapped[key])
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    setattr(module, attr, wrapped[id(obj)])
        return len(wrapped)

    # -- results -------------------------------------------------------------

    def per_op(self, ops: int) -> dict:
        """Every per-layer metric, divided by the number of traced ops."""
        c = self.counts
        values = {
            "grid.transforms": (c["grid.transforms"], "count"),
            "grid.fft_points": (c["grid.fft_points"], "count"),
            "grid.freqs_calls": (c["grid.freqs_calls"], "count"),
            "grid.self_s": (self.self_s["grid"], "s"),
            "besov.calls": (self.calls["besov"], "count"),
            "besov.second_difference_s": (
                self.inclusive_s["besov.second_difference_seminorm"], "s"),
            "besov.self_s": (self.self_s["besov"], "s"),
            "pdo.apply_calls": (c["pdo.apply_calls"], "count"),
            "pdo.self_s": (self.self_s["pdo"], "s"),
            "resolvent.solves": (c["resolvent.solves"], "count"),
            "resolvent.iterations": (c["resolvent.iterations"], "count"),
            "resolvent.self_s": (self.self_s["resolvent"], "s"),
            "mollify.calls": (c["mollify.calls"], "count"),
            "mollify.self_s": (self.self_s["mollify"], "s"),
            "localize.self_s": (self.self_s["localize"], "s"),
            "casework.self_s": (self.self_s["casework"], "s"),
            "profiles.self_s": (self.self_s["profiles"], "s"),
            "cli.self_s": (self.self_s["cli"], "s"),
            "cli.artifact_bytes": (c["cli.artifact_bytes"], "B"),
        }
        return {k: {"value": v / ops, "unit": u} for k, (v, u) in values.items()}
