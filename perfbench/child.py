"""One benchmark iteration in a fresh interpreter.

    python3 perfbench/child.py <workload> <seed> <trace 0|1>
    python3 perfbench/child.py setup

Times ``import derhamkit`` (all that ``setup`` does) between samples of the
reference loop, then runs the workload's suite calls through
``derhamkit.suites.run_suite`` under the speed probe (see speed.py), wrapped
by the span tracer when trace is 1, and prints one JSON object as its last
line of standard output.  Each suite report is returned as canonical JSON
without ``elapsed_ms``.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import traceback

from speed import SpeedProbe, time_loop

# Reference-loop samples taken on each side of the import.
SETUP_PROBES = 5


def run_calls(calls, seed: int, tracer=None) -> list[dict]:
    """Run each (suite, params, pinned seed) call; a call fails if it raises,
    has a failing or truncated-evidence case, or has no cases."""
    from derhamkit.suites import run_suite

    results = []
    for suite, params, pinned in calls:
        call_seed = seed if pinned is None else pinned
        entry = {"suite": suite, "ok": False}
        start = time.perf_counter()
        try:
            if tracer is None:
                report = run_suite(suite, dict(params), seed=call_seed)
            else:
                with tracer.run("suites." + suite):
                    report = run_suite(suite, dict(params), seed=call_seed)
        except Exception:
            entry["error"] = traceback.format_exc(limit=3)
            print(entry["error"], file=sys.stderr)
        else:
            data = json.loads(report.to_json())
            del data["elapsed_ms"]
            summary = report.summary
            entry["ok"] = bool(report.cases) and not summary["fail"] and not summary["truncated"]
            entry["report"] = json.dumps(data, sort_keys=True, separators=(",", ":"))
        entry["wall_s"] = time.perf_counter() - start
        results.append(entry)
    return results


def trace_summary(tracer) -> dict:
    from spans import self_times

    per_name = self_times(tracer.spans)
    return {
        "functions": {
            name: {"calls": calls, "self_s": self_s}
            for name, (calls, self_s) in per_name.items() if not name.startswith("suites.")
        },
        "cells": dict(tracer.cells),
        "useful": dict(tracer.useful),
    }


def main(argv: list[str]) -> int:
    time_loop()  # warms the loop up; not a sample
    probes = [time_loop() for _ in range(SETUP_PROBES)]
    start = time.perf_counter()
    import derhamkit  # noqa: F401  (timed: this is the CLI's cold start)
    setup_s = time.perf_counter() - start
    probes += [time_loop() for _ in range(SETUP_PROBES)]
    setup = {"setup_s": setup_s, "setup_probe_s": statistics.median(probes)}
    if argv == ["setup"]:
        print(json.dumps(setup))
        return 0
    workload, seed, trace = argv[0], int(argv[1]), argv[2] == "1"

    from derhamkit.witt import structure_polynomials
    from workloads import CELL_ARGS, OUTCOMES, TRACED, WORKLOADS

    calls = WORKLOADS[workload]
    out = dict(setup)
    if trace:
        from spans import Tracer

        with Tracer(TRACED, CELL_ARGS, OUTCOMES) as tracer, SpeedProbe() as probe:
            out["suites"] = run_calls(calls, seed, tracer)
        out["trace"] = trace_summary(tracer)
    else:
        with SpeedProbe() as probe:
            out["suites"] = run_calls(calls, seed)
    out["probe"] = probe.summary()
    info = structure_polynomials.cache_info()
    out["cache"] = {"hits": info.hits, "misses": info.misses}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
