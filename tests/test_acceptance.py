"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria run through the suite registry at their pinned parameters and
seeds; runtime limits are asserted where stated.
"""

import os
import subprocess
import sys
import time

import pytest

from derhamkit.suites import run_suite


def _run(criterion, name, params=None, seed=1, limit=None):
    t0 = time.perf_counter()
    report = run_suite(name, params or {}, seed=seed)
    elapsed = time.perf_counter() - t0
    summary = report.summary
    ok = summary["fail"] == 0 and summary["truncated"] == 0
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {criterion:>2} [{verdict}] {name} {report.params}: "
          f"{summary['pass']} pass / {summary['fail']} fail "
          f"({elapsed:.1f}s)")
    assert ok, f"criterion {criterion}: {name} failed: {report.to_text()}"
    if limit is not None:
        assert elapsed < limit, f"criterion {criterion}: {elapsed:.1f}s exceeds {limit}s"
    return report


def test_criterion_01_dold_kan_roundtrip():
    _run(1, "dold-kan-roundtrip", {"cases": 20, "max_degree": 5, "max_rank": 3}, limit=10)


def test_criterion_02_eilenberg_zilber():
    _run(2, "eilenberg-zilber", {"cases": 10}, limit=30)


def test_criterion_03_cotangent_regular_quotient():
    _run(3, "cotangent-regular")


def test_criterion_04_quillen_shift():
    _run(4, "quillen-shift", {"power": 3})


def test_criterion_05_koszul_gamma_exactness():
    _run(5, "koszul-gamma", {"cases": 20})


def test_criterion_06_derived_derham_pd_mod_p():
    _run(6, "drpd-modp", {"weight_bound": 5}, limit=60)


def test_criterion_06_reaches_weight_bound_6():
    _run(6, "drpd-modp", {"weight_bound": 6}, limit=60)


def _reach_criterion_06(weight_bound):
    # a child process, so that its peak RSS is its own (os.wait4)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "derhamkit.cli", "verify", "drpd-modp", "--weight-bound", str(weight_bound)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    elapsed = time.perf_counter() - t0
    peak_mb = usage.ru_maxrss / 1024  # kilobytes on Linux
    print(f"criterion  6 drpd-modp weight bound {weight_bound}: exit {proc.returncode}, "
          f"{elapsed:.1f}s, peak RSS {peak_mb:.0f} MB")
    assert proc.returncode == 0 and " 0 fail," in out, out
    assert elapsed < 60, f"{elapsed:.1f}s exceeds 60s"
    assert peak_mb < 1024, f"peak RSS {peak_mb:.0f} MB exceeds 1 GB"


def test_criterion_06_reaches_weight_bound_7():
    _reach_criterion_06(7)


def test_criterion_06_reaches_weight_bound_9():
    _reach_criterion_06(9)


def test_criterion_07_derived_derham_pd_mod_pn():
    _run(7, "drpd-envelope", {"weight_bound": 4})


def test_criterion_08_universal_thickening():
    _run(8, "universal-thickening")


def test_criterion_09_witt_layer():
    _run(9, "witt-layer", {"cases": 100})


def test_criterion_10_theta_and_epsilon():
    _run(10, "theta-epsilon", {"p": 2, "m": 3, "n": 2, "k": 2}, limit=120)


def test_criterion_11_ramification_table():
    t0 = time.perf_counter()
    for p in (2, 3, 5):
        report = run_suite("different-valuation", {"p": p, "r_max": 3}, seed=1)
        summary = report.summary
        assert summary["fail"] == 0 and summary["truncated"] == 0, report.to_text()
    elapsed = time.perf_counter() - t0
    print(f"criterion 11 [PASS] different-valuation p in (2,3,5) r <= 3 ({elapsed:.1f}s)")
    assert elapsed < 10
