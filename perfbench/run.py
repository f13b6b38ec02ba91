"""derhamkit benchmark: fixed suite workloads, one fresh process per iteration.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

A closed loop with one caller: each iteration is a new interpreter
(``perfbench/child.py``) that imports derhamkit and runs every suite call of
the workload, as ``derhamkit verify`` does from a cold start.  BLAS/OpenMP
threads are capped at 1.  Iterations repeat until ``--seconds`` is used up
(at least ``MIN_ITERATIONS``).  Times are in reference seconds: each
iteration's time scaled by the CPU's speed measured during it (speed.py).
Every metric is the median over the run's samples (see ``end_to_end``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced iterations and reports the per-layer metrics.  Both
check every suite report; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  Exit codes: 0 a
result was printed, 1 the benchmark could not run, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from speed import speed_of  # noqa: E402
from workloads import CELL_ARGS, OUTCOMES, SUITE_NAMES, TRACED, WORKLOADS  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
MIN_ITERATIONS = 3
MIN_TRACED_PAIRS = 2
SETUP_SAMPLES = 9
# Children still running this long after the start are killed, so that a
# hung library cannot keep the benchmark from exiting.
DEADLINE_S = 160


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    # An installed derhamkit imports from cached bytecode; so do the children.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def check_library(deadline: float) -> None:
    if not (SRC / "derhamkit" / "__init__.py").is_file():
        raise BenchError(f"derhamkit sources not found under {SRC}")
    # Compiles the bytecode once, so that no timed iteration pays for it.
    if run_child(deadline, "setup")["crashed"]:
        raise BenchError("import derhamkit failed")


def run_child(deadline: float, *args: str) -> dict:
    """One child process (see child.py for ``args``); adds the wall, CPU and
    peak RSS of the whole process.  A child that dies, or is killed at the
    ``time.monotonic()`` deadline, fails every suite call."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(CHILD), *args],
                            env=child_env(), cwd=ROOT, stdout=subprocess.PIPE)
    killer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    try:
        output = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall_s = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        killer.cancel()
        proc.stdout.close()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    lines = output.decode().splitlines()
    if proc.returncode or not lines:
        calls = WORKLOADS[args[0]] if args[0] in WORKLOADS else ()
        return {"crashed": True, "wall_s": wall_s,
                "suites": [{"suite": call[0], "ok": False, "error": f"child exit {proc.returncode}"}
                           for call in calls]}
    result = json.loads(lines[-1])
    result.update(crashed=False, wall_s=wall_s, cpu_s=usage.ru_utime + usage.ru_stime,
                  peak_rss_mb=usage.ru_maxrss / 1024.0,
                  setup_ref_s=result["setup_s"] * speed_of([result["setup_probe_s"]]))
    if "probe" in result:
        # The probe's own samples are taken out; the rest is the workload's.
        speed, probe_s = result["probe"]["speed"], result["probe"]["probe_s"]
        result.update(wall_ref_s=(wall_s - probe_s) * speed, cpu_ref_s=(result["cpu_s"] - probe_s) * speed)
    return result


def run_iterations(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> list[dict]:
    """Untraced iterations, or untraced/traced pairs when ``trace``, until the
    time is used up.  An iteration starts only if the median so far says it
    ends in time, once the minimum count is reached."""
    kinds = (False, True) if trace else (False,)
    minimum = MIN_TRACED_PAIRS if trace else MIN_ITERATIONS
    start = time.perf_counter()
    rounds: list[float] = []
    iterations: list[dict] = []
    while True:
        begun = time.perf_counter()
        for traced in kinds:
            child = run_child(deadline, workload, str(seed), "1" if traced else "0")
            iterations.append(dict(child, traced=traced))
            if iterations[-1]["crashed"]:
                return iterations
        rounds.append(time.perf_counter() - begun)
        if len(rounds) >= minimum and time.perf_counter() - start + statistics.median(rounds) > seconds:
            return iterations


def digest(report: str) -> str:
    return hashlib.sha256(report.encode()).hexdigest()[:16]


def check_reports(iterations: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems): suite runs, failed suite runs, and every
    report that is not identical across iterations."""
    attempted = failed = 0
    problems = []
    first: dict[int, str] = {}
    for it in iterations:
        for position, entry in enumerate(it["suites"]):
            attempted += 1
            if not entry["ok"]:
                failed += 1
                problems.append(f"{entry['suite']} failed: {entry.get('error', 'fail, truncated or no cases')}")
                continue
            report = entry["report"]
            if first.setdefault(position, report) != report:
                problems.append(f"{entry['suite']} report differs between iterations")
    return attempted, failed, problems


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def setup_samples(deadline: float) -> list[float]:
    """Import times, in reference seconds, of ``SETUP_SAMPLES`` children that
    only import derhamkit."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        child = run_child(deadline, "setup")
        if child["crashed"]:
            raise BenchError("import derhamkit failed")
        samples.append(child["setup_ref_s"])
    return samples


def end_to_end(iterations: list[dict], setups: list[float]) -> dict:
    """Medians over the run: times in reference seconds, and memory.

    Every iteration does the same seeded work; the speed probe takes out how
    fast the shared machine happened to run it (see speed.py).
    """
    ok = [it for it in iterations if not it["crashed"]]
    if not ok:
        raise BenchError("no iteration completed")
    return {
        "setup_s": (median(setups + [it["setup_ref_s"] for it in ok]), "s"),
        "wall_ref_s": (median([it["wall_ref_s"] for it in ok]), "s"),
        "cpu_ref_s": (median([it["cpu_ref_s"] for it in ok]), "s"),
        "peak_rss_mb": (median([it["peak_rss_mb"] for it in ok]), "MB"),
    }


def per_suite_wall(iterations: list[dict]) -> dict[str, float]:
    """Median over iterations of each suite's summed wall time in one iteration."""
    samples: dict[str, list[float]] = {}
    for it in iterations:
        totals: dict[str, float] = {}
        for entry in it["suites"]:
            totals[entry["suite"]] = totals.get(entry["suite"], 0.0) + entry.get("wall_s", 0.0)
        for suite, total in totals.items():
            samples.setdefault(suite, []).append(total)
    return {suite: median(values) for suite, values in samples.items()}


def per_layer(iterations: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics, and every count that differs between traced iterations."""
    plain = [it for it in iterations if not it["traced"] and not it["crashed"]]
    traced = [it for it in iterations if it["traced"] and not it["crashed"]]
    if not plain or not traced:
        raise BenchError("no complete traced and untraced iteration")
    series: dict[str, list[int]] = {}
    for it in traced:
        trace = it["trace"]
        counted = [(f"{n}.calls", trace["functions"].get(n, {}).get("calls", 0)) for n in TRACED]
        counted += [(f"{n}.cells", trace["cells"].get(n, 0)) for n in CELL_ARGS]
        counted += [(f"{n}.useful", trace["useful"].get(n, 0)) for n in OUTCOMES]
        for key, value in counted:
            series.setdefault(key, []).append(value)
    drift = [f"{key} {values}" for key, values in series.items() if len(set(values)) > 1]

    metrics: dict[str, tuple[float, str]] = {}
    for name in TRACED:
        metrics[f"{name}.calls"] = (series[f"{name}.calls"][0], "count")
        metrics[f"{name}.self_s"] = (
            median([it["trace"]["functions"].get(name, {}).get("self_s", 0.0) for it in traced]), "s")
    for name in CELL_ARGS:
        metrics[f"{name}.cells"] = (series[f"{name}.cells"][0], "count")
    slices = series["complexes.homology_quotient.calls"][0]
    nonzero = series["complexes.homology_quotient.useful"][0]
    metrics["complexes.homology_quotient.nonzero_ratio"] = (nonzero / slices if slices else 0.0, "ratio")
    cache = traced[0]["cache"]
    lookups = cache["hits"] + cache["misses"]
    metrics["witt.structure_polynomials.hit_ratio"] = (cache["hits"] / lookups if lookups else 0.0, "ratio")
    walls = per_suite_wall(plain)
    for suite in SUITE_NAMES:
        metrics[f"suites.{suite}.wall_s"] = (walls.get(suite, 0.0), "s")
    # Each traced iteration directly follows its untraced twin.
    pairs = zip(iterations[::2], iterations[1::2])
    metrics["trace.overhead"] = (median([t["wall_ref_s"] / u["wall_ref_s"] for u, t in pairs
                                         if not (u["crashed"] or t["crashed"])]), "ratio")
    return metrics, drift


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # SystemExit unwinds run_child, which then kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    deadline = time.monotonic() + DEADLINE_S
    try:
        check_library(deadline)
        iterations = run_iterations(args.workload, args.seed, args.seconds, bool(args.trace), deadline)
        attempted, failed, problems = check_reports(iterations)
        if args.trace:
            metrics, drift = per_layer(iterations)
            problems += [f"count drifts between traced runs: {d}" for d in drift]
        else:
            metrics = end_to_end(iterations, setup_samples(deadline))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"iterations {len(iterations)}")
    done = [it for it in iterations if not it["crashed"]]
    print("  iteration wall_s: " + " ".join(
        f"{it['wall_s']:.3f}{'t' if it['traced'] else ''}" for it in done))
    print("  iteration speed:  " + " ".join(f"{it['probe']['speed']:.3f}" for it in done))
    print("  iteration wall_ref_s: " + " ".join(f"{it['wall_ref_s']:.3f}" for it in done))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<58} {value:>14.6g} {unit}")
    print(f"  {'fail_ratio':<58} {failed / attempted:>14.6g} ratio ({failed}/{attempted} suite runs)")
    seen = {}
    for entry in iterations[0]["suites"]:
        if entry["ok"]:
            seen.setdefault(entry["suite"], []).append(digest(entry["report"]))
    for suite, digests in seen.items():
        print(f"  report {suite}: {' '.join(digests)}")
    for problem in problems:
        print(f"  PROBLEM {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
