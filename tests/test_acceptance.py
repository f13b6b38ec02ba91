"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria run through the suite registry at their pinned parameters and
seeds; runtime limits are asserted where stated.  Each report is also
pinned: the sha256 prefix of its canonical JSON (without ``elapsed_ms``)
must equal the digest recorded for it, so a change that moves any case's
expected or computed value fails here even when every case still passes.
"""

import hashlib
import json
import time

import pytest
from memory import run_cli

from derhamkit.suites import run_suite


def _digest(report):
    data = json.loads(report.to_json())
    del data["elapsed_ms"]
    return hashlib.sha256(json.dumps(data, sort_keys=True, separators=(",", ":")).encode()).hexdigest()[:16]


def _run(criterion, name, params=None, seed=1, limit=None, *, digest):
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
    assert _digest(report) == digest, f"criterion {criterion}: the report changed: {report.to_json()}"
    return report


def test_criterion_01_dold_kan_roundtrip():
    _run(1, "dold-kan-roundtrip", {"cases": 20, "max_degree": 5, "max_rank": 3}, limit=10, digest="1178b051fb6deadf")


def test_criterion_02_eilenberg_zilber():
    _run(2, "eilenberg-zilber", {"cases": 10}, limit=30, digest="e09363b61db8fd50")


def test_criterion_03_cotangent_regular_quotient():
    _run(3, "cotangent-regular", digest="b52c3f84cfb854f7")


def test_criterion_04_quillen_shift():
    _run(4, "quillen-shift", {"power": 3}, digest="7743dff1f63e4f2a")


def test_criterion_05_koszul_gamma_exactness():
    _run(5, "koszul-gamma", {"cases": 20}, digest="7e5db2660715fbb7")


def test_criterion_06_derived_derham_pd_mod_p():
    _run(6, "drpd-modp", {"weight_bound": 5}, limit=60, digest="9eb69c4f19842dd8")


def test_criterion_06_reaches_weight_bound_6():
    _run(6, "drpd-modp", {"weight_bound": 6}, limit=60, digest="80f8a9151c16c025")


def _reach_criterion_06(weight_bound):
    run = run_cli("verify", "drpd-modp", "--weight-bound", str(weight_bound))
    print(f"criterion  6 drpd-modp weight bound {weight_bound}: exit {run.returncode}, "
          f"{run.elapsed:.1f}s, peak RSS {run.peak_mb:.0f} MB")
    assert run.returncode == 0 and " 0 fail," in run.out, run.out
    assert run.elapsed < 60, f"{run.elapsed:.1f}s exceeds 60s"
    assert run.peak_mb < 1024, f"peak RSS {run.peak_mb:.0f} MB exceeds 1 GB"


def test_criterion_06_reaches_weight_bound_7():
    _reach_criterion_06(7)


def test_criterion_06_reaches_weight_bound_9():
    _reach_criterion_06(9)


def test_criterion_07_derived_derham_pd_mod_pn():
    _run(7, "drpd-envelope", {"weight_bound": 4}, digest="ab7235194625fe2e")


def test_criterion_08_universal_thickening():
    _run(8, "universal-thickening", digest="51d47108410d82bd")


def test_criterion_09_witt_layer():
    _run(9, "witt-layer", {"cases": 100}, digest="c4769fcbcd1b631c")


def test_criterion_10_theta_and_epsilon():
    _run(10, "theta-epsilon", {"p": 2, "m": 3, "n": 2, "k": 2}, limit=120, digest="59bbc1993b89304e")


def test_criterion_11_ramification_table():
    t0 = time.perf_counter()
    digests = {2: "b7f7016aa9b79d50", 3: "304396a6b130b8d1", 5: "58690a37b8c070bd"}
    for p, digest in digests.items():
        report = run_suite("different-valuation", {"p": p, "r_max": 3}, seed=1)
        summary = report.summary
        assert summary["fail"] == 0 and summary["truncated"] == 0, report.to_text()
        assert _digest(report) == digest, f"criterion 11: the report changed: {report.to_json()}"
    elapsed = time.perf_counter() - t0
    print(f"criterion 11 [PASS] different-valuation p in (2,3,5) r <= 3 ({elapsed:.1f}s)")
    assert elapsed < 10
