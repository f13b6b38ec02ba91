"""Tests of the benchmark's own code.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import derhamkit  # noqa: E402
import run  # noqa: E402
from child import run_calls  # noqa: E402
from spans import Tracer, self_times  # noqa: E402
from speed import REFERENCE_S, SENSITIVITY, SpeedProbe, speed_of  # noqa: E402
from workloads import CELL_ARGS, OUTCOMES, TRACED  # noqa: E402


def test_self_time_of_nested_spans():
    spans = [
        ("root", 0.0, 10.0, -1, 1),
        ("a", 1.0, 4.0, 0, 1),
        ("b", 2.0, 3.0, 1, 1),
        ("a", 5.0, 9.0, 0, 1),
        ("b", 6.0, 8.5, 3, 1),
        ("b", 7.0, 8.0, 4, 1),  # b inside b: only the outer b loses it
    ]
    got = self_times(spans)
    assert got["root"] == (1, pytest.approx(10.0 - 3.0 - 4.0))
    assert got["a"] == (2, pytest.approx((3.0 - 1.0) + (4.0 - 2.5)))
    assert got["b"] == (3, pytest.approx(1.0 + (2.5 - 1.0) + 1.0))
    total = sum(self_s for _, self_s in got.values())
    assert total == pytest.approx(10.0)


def test_overlapping_children_are_covered_once():
    spans = [("p", 0.0, 10.0, -1, 1), ("c", 1.0, 5.0, 0, 1), ("c", 3.0, 12.0, 0, 1)]
    assert self_times(spans)["p"] == (1, pytest.approx(1.0))


def _snapshot():
    mods = {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if name == "derhamkit" or name.startswith("derhamkit.")}
    classes = {}
    for target in TRACED:
        parts = target.split(".")
        if len(parts) == 3:
            cls = getattr(sys.modules[f"derhamkit.{parts[0]}"], parts[1])
            classes[target] = (cls, dict(vars(cls)))
    return mods, classes


def test_tracer_rebinds_every_reference_and_restores_originals():
    from derhamkit import complexes, exactlin, witt

    before_mods, before_classes = _snapshot()
    howell = exactlin.howell_form
    eval_poly = witt.WittRing.__dict__["eval_poly"]
    with Tracer(TRACED, CELL_ARGS, OUTCOMES) as tracer:
        assert exactlin.howell_form is not howell
        assert complexes.howell_form is exactlin.howell_form
        assert witt.WittRing.__dict__["eval_poly"] is not eval_poly
        with tracer.run("suites.test"):
            complexes.howell_form(np.array([[2, 1, 0], [0, 3, 1]]), exactlin.ModRing(2, 2))
    assert exactlin.howell_form is howell
    after_mods, after_classes = _snapshot()
    for name, attrs in before_mods.items():
        for attr, value in attrs.items():
            assert after_mods[name][attr] is value, f"{name}.{attr} not restored"
    for target, (cls, attrs) in before_classes.items():
        for attr, value in attrs.items():
            assert vars(cls)[attr] is value, f"{target} class attribute {attr} not restored"
    names = [s[0] for s in tracer.spans]
    assert names[0] == "suites.test" and names.count("exactlin.howell_form") >= 1
    assert all(s[4] == 1 for s in tracer.spans)
    assert tracer.cells["exactlin.howell_form"] >= 6


def test_tracer_restores_after_a_failed_install():
    from derhamkit import exactlin

    howell = exactlin.howell_form
    with pytest.raises(KeyError):
        Tracer(("exactlin.howell_form", "nosuchmodule.f")).install()
    assert exactlin.howell_form is howell


def test_a_suite_that_raises_or_has_no_cases_counts_as_failed():
    entries = run_calls([("no-such-suite", {}, None),
                         ("dold-kan-roundtrip", {"cases": 0}, None),
                         ("koszul-gamma", {"cases": 1}, None)], seed=1)
    assert [e["ok"] for e in entries] == [False, False, True]
    assert "KeyError" in entries[0]["error"]
    attempted, failed, problems = run.check_reports([{"suites": entries}])
    assert (attempted, failed) == (3, 2)
    assert len(problems) == 2


def test_reports_must_repeat_across_iterations():
    one = [{"suite": "s", "ok": True, "report": "{}"}]
    two = [{"suite": "s", "ok": True, "report": '{"x":1}'}]
    attempted, failed, problems = run.check_reports([{"suites": one}, {"suites": two}])
    assert (attempted, failed) == (2, 0)
    assert problems == ["s report differs between iterations"]


def _iteration(traced, calls, wall=1.0):
    it = {"traced": traced, "crashed": False, "wall_s": wall, "wall_ref_s": wall / 2,
          "cache": {"hits": 3, "misses": 1},
          "suites": [{"suite": "koszul-gamma", "ok": True, "report": "{}", "wall_s": wall}]}
    if traced:
        it["trace"] = {"functions": {"exactlin.howell_form": {"calls": calls, "self_s": 0.5}},
                       "cells": {"exactlin.howell_form": 10 * calls}, "useful": {}}
    return it


def test_per_layer_counts_must_repeat_exactly():
    steady = [_iteration(False, 0), _iteration(True, 4, 1.5), _iteration(False, 0), _iteration(True, 4, 1.5)]
    metrics, drift = run.per_layer(steady)
    assert drift == []
    assert metrics["exactlin.howell_form.calls"] == (4, "count")
    assert metrics["exactlin.howell_form.cells"] == (40, "count")
    assert metrics["witt.structure_polynomials.hit_ratio"] == (0.75, "ratio")
    assert metrics["trace.overhead"] == (1.5, "ratio")
    drifting = steady[:3] + [_iteration(True, 5)]
    _, drift = run.per_layer(drifting)
    assert drift == ["exactlin.howell_form.calls [4, 5]", "exactlin.howell_form.cells [40, 50]"]


def test_speed_is_the_mean_speed_over_samples():
    # Half the time at the reference speed, half with the loop three times slower.
    assert speed_of([REFERENCE_S, 3 * REFERENCE_S]) == pytest.approx((1 + 3 ** -SENSITIVITY) / 2)


def test_speed_probe_samples_and_restores_the_alarm_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe(interval=0.01) as probe:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    summary = probe.summary()
    assert summary["samples"] >= 5
    assert summary["speed"] > 0 and summary["probe_s"] == pytest.approx(sum(probe.samples))


@pytest.mark.parametrize("args", [
    ["--workload", "no-such-workload"],
    ["--workload", "witt-tilt", "--seconds", "0"],
    ["--workload", "witt-tilt", "--seconds", "-3"],
    ["--workload", "witt-tilt", "--trace", "2"],
])
def test_usage_errors_exit_2_without_traceback(args):
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert done.stdout == ""


def test_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "derham-pd",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    assert done.stdout == ""
