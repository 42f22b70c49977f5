"""Run one pass of commands in this process through ``zenogrover.cli.main``.

Usage: python inproc.py SPEC.json RESULT.json

SPEC holds ``{"commands": [[name, argv], ...], "trace": bool}``.  With
tracing on, the module attributes that the callers look up are replaced by
wrappers that record a span per call (name, command, start, end, parent,
work units) or only count calls; the spans stay in memory and are written
to RESULT with each command's exit code, printed output and wall time.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
import time
import traceback
from collections import Counter
from typing import Callable, Optional


def _steps(record) -> dict:
    return {"steps": len(record.steps) - 1}


def _final_distance_steps(args, kwargs) -> dict:
    n = args[1] if len(args) > 1 else kwargs.get("n")
    return {"steps": args[0].n_G if n is None else n}


def _suite(results) -> dict:
    return {
        "failed": sum(not r.passed() for r in results),
        "max_dev": max((max(r.max_fidelity_deviation, r.max_survival_deviation)
                        for r in results), default=0.0),
    }


#: span name -> (attributes wrapped, work units of a call from its args and result)
SPANS: dict[str, tuple[tuple[str, ...], Optional[Callable]]] = {
    "model.make_params": (("model.make_params", "cli.make_params", "scaling.make_params"), None),
    "stroboscopic.final_distance": (
        ("cli.final_distance",), lambda a, k, r: _final_distance_steps(a, k)),
    "stroboscopic.accumulate_process": (
        ("stroboscopic.accumulate_process", "fullspace.accumulate_process"),
        lambda a, k, r: _steps(r[1])),
    "effective.integrate_effective": (
        ("cli.integrate_effective",), lambda a, k, r: _steps(r)),
    "fullspace.equivalence_suite": (("cli.equivalence_suite",), lambda a, k, r: _suite(r)),
    "fullspace.simulate_full_protocol": (
        ("fullspace.simulate_full_protocol",), lambda a, k, r: {**_steps(r), "N": a[0]}),
    "scaling.quality_factor_sweep": (
        ("cli.quality_factor_sweep",), lambda a, k, r: {"points": len(r)}),
    "scaling.scaled_process_check": (("cli.scaled_process_check",), None),
    "scaling.plan_scaled_instance": (("cli.plan_scaled_instance",), None),
}

#: counter name -> attribute; calls are counted without a span
COUNTERS = {
    "effective.heff_evals": "effective.continuous_heff",
    "effective.attempts": "effective.rk4_propagate",
}


class Tracer:
    """Spans and counters of one pass, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.command = ""

    def span(self, name: str, fn: Callable, units: Optional[Callable]) -> Callable:
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, self.command, 0.0, 0.0, stack[-1] if stack else None, {}])
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx][2:4] = t0, t1
            if units is not None:
                spans[idx][5] = units(args, kwargs, result)
            return result

        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, package) -> None:
        """Wrap every listed attribute that the package still has."""
        def resolve(path: str):
            module, attr = path.split(".")
            mod = getattr(package, module)
            return (mod, attr) if hasattr(mod, attr) else None

        for name, (paths, units) in SPANS.items():
            found = [t for t in map(resolve, paths) if t is not None]
            if found:
                wrapper = self.span(name, getattr(*found[0]), units)
                for mod, attr in found:
                    setattr(mod, attr, wrapper)
        for name, path in COUNTERS.items():
            found = resolve(path)
            if found is not None:
                setattr(*found, self.counter(name, getattr(*found)))


def run_pass(commands: list, trace: bool) -> dict:
    import zenogrover
    import zenogrover.cli

    tracer = Tracer() if trace else None
    main = zenogrover.cli.main
    if tracer is not None:
        tracer.install(zenogrover)
        main = tracer.span("cli.main", main, None)
    results = []
    start = time.perf_counter()
    for name, argv in commands:
        if tracer is not None:
            tracer.command = name
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash fails this command, as it would a process
                traceback.print_exc()
                code = 1
        results.append({"name": name, "code": code, "wall_s": time.perf_counter() - t0,
                        "stdout": buf.getvalue()})
    out = {"wall_s": time.perf_counter() - start, "commands": results}
    if tracer is not None:
        out["spans"] = tracer.spans
        out["counts"] = dict(tracer.counts)
    return out


if __name__ == "__main__":
    spec_path, result_path = sys.argv[1:3]
    with open(spec_path) as f:
        spec = json.load(f)
    result = run_pass(spec["commands"], spec["trace"])
    with open(result_path, "w") as f:
        json.dump(result, f)
