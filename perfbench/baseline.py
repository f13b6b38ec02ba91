"""Run every workload untraced and traced, print the end-to-end table, and
optionally record the results with the environment they were measured in.

    python3 perfbench/baseline.py [--seed 1] [--seconds 30] [--out perfbench/results/baseline.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "seed": args.seed,
        "seconds": args.seconds,
    }
    results = {}
    for workload in WORKLOADS:
        results[workload] = {"untraced": run_workload(workload, args.seed, args.seconds, 0),
                             "traced": run_workload(workload, args.seed, args.seconds, 1)}

    names = list(next(iter(results.values()))["untraced"]["metrics"])
    print(f"{'metric':<14} {'unit':<6}" + "".join(f"{w:>14}" for w in results))
    for name in names:
        unit = results[next(iter(results))]["untraced"]["metrics"][name]["unit"]
        print(f"{name:<14} {unit:<6}" + "".join(
            f"{r['untraced']['metrics'][name]['value']:>14.4f}" for r in results.values()))
    print(f"{'fail_ratio':<14} {'ratio':<6}" + "".join(
        f"{(r['untraced']['failed'] + r['traced']['failed']) / (r['untraced']['attempted'] + r['traced']['attempted']):>14.4f}"
        for r in results.values()))
    print(f"{'trace.overhead':<14} {'ratio':<6}" + "".join(
        f"{r['traced']['metrics']['trace.overhead']['value']:>14.4f}" for r in results.values()))
    print(f"{'correct':<21}" + "".join(
        f"{str(r['untraced']['correct'] and r['traced']['correct']):>14}" for r in results.values()))
    if args.out:
        args.out.write_text(json.dumps({"environment": env, "results": results}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
