"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria run through the suite registry at their pinned parameters and
seeds; runtime limits are asserted where stated.  Each report is also
pinned: the sha256 prefix of its canonical JSON (without ``elapsed_ms``)
must equal the digest recorded for it, so a change that moves any case's
expected or computed value fails here even when every case still passes.
Every suite also runs at the least value of each parameter it bounds.
"""

import hashlib
import json
import time

import pytest
from memory import run_cli

from derhamkit.suites import MINIMUMS, list_suites, run_suite


def _digest(text):
    data = json.loads(text)
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
    assert _digest(report.to_json()) == digest, f"criterion {criterion}: the report changed: {report.to_json()}"
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


def _reach(criterion, args, path, seconds, megabytes, *, digest):
    """``derhamkit verify *args`` in a child process: it must pass inside the
    time and peak-RSS bounds and write the report recorded for it."""
    run = run_cli("verify", *args, "--json", str(path))
    print(f"criterion {criterion:>2} {' '.join(args)}: exit {run.returncode}, "
          f"{run.elapsed:.1f}s, peak RSS {run.peak_mb:.0f} MB")
    assert run.returncode == 0 and " 0 fail," in run.out, run.out
    assert run.elapsed < seconds, f"{run.elapsed:.1f}s exceeds {seconds}s"
    assert run.peak_mb < megabytes, f"peak RSS {run.peak_mb:.0f} MB exceeds {megabytes} MB"
    assert _digest(path.read_text()) == digest, f"criterion {criterion}: the report changed"


def test_criterion_06_reaches_weight_bound_7(tmp_path):
    _reach(6, ("drpd-modp", "--weight-bound", "7"), tmp_path / "report.json", 60, 1024, digest="3895945d7f014961")


def test_criterion_06_reaches_weight_bound_9(tmp_path):
    _reach(6, ("drpd-modp", "--weight-bound", "9"), tmp_path / "report.json", 60, 1024, digest="b65f7601aa4ab1e1")


def test_criterion_06_reaches_weight_bound_11(tmp_path):
    # one prime's complex at a time: 405 MB when the p = 2 complex stayed
    # alive through the p = 3 build, about 285 MB since
    _reach(6, ("drpd-modp", "--weight-bound", "11"), tmp_path / "report.json", 60, 350, digest="baf0957d0802e155")


def test_criterion_07_derived_derham_pd_mod_pn():
    _run(7, "drpd-envelope", {"weight_bound": 4}, digest="ab7235194625fe2e")


def test_criterion_07_reaches_weight_bound_8(tmp_path):
    _reach(7, ("drpd-envelope", "--weight-bound", "8"), tmp_path / "report.json", 5, 256, digest="8a405f198f855c6b")


def test_criterion_08_universal_thickening():
    _run(8, "universal-thickening", digest="51d47108410d82bd")


def test_criterion_09_witt_layer():
    _run(9, "witt-layer", {"cases": 100}, digest="c4769fcbcd1b631c")


def test_criterion_10_theta_and_epsilon():
    _run(10, "theta-epsilon", {"p": 2, "m": 3, "n": 2, "k": 2}, limit=120, digest="34f3d92c6abf0af1")


def test_criterion_10_reaches_the_odd_prime_model(tmp_path):
    _reach(10, ("theta-epsilon", "--p", "3", "--m", "2", "--n", "1", "--k", "1"), tmp_path / "report.json",
           5, 128, digest="a4e07248f4cb76a3")


def test_criterion_10_reaches_the_2_16_element_carrier(tmp_path):
    # W_2 of the 256-element tilt: about 0.5 s and 45 MB peak RSS when measured
    _reach(10, ("theta-epsilon", "--p", "2", "--m", "4", "--n", "2", "--k", "2"), tmp_path / "report.json",
           5, 64, digest="d19149b0ee57dd27")


def test_criterion_11_ramification_table():
    t0 = time.perf_counter()
    digests = {2: "b7f7016aa9b79d50", 3: "304396a6b130b8d1", 5: "58690a37b8c070bd"}
    for p, digest in digests.items():
        report = run_suite("different-valuation", {"p": p, "r_max": 3}, seed=1)
        summary = report.summary
        assert summary["fail"] == 0 and summary["truncated"] == 0, report.to_text()
        assert _digest(report.to_json()) == digest, f"criterion 11: the report changed: {report.to_json()}"
    elapsed = time.perf_counter() - t0
    print(f"criterion 11 [PASS] different-valuation p in (2,3,5) r <= 3 ({elapsed:.1f}s)")
    assert elapsed < 10


# Every suite at the least value of each parameter it bounds must still
# compare something; the two de Rham suites at weight bound 0 meet empty
# and wholly filtered slices, and their reports are pinned.
AT_MINIMUM_DIGESTS = {("drpd-modp", "weight_bound"): "e2f1f31d6b06c9df",
                      ("drpd-envelope", "weight_bound"): "9b181f510cc4aabb"}


@pytest.mark.parametrize("name,param", [(desc.name, k) for desc in list_suites()
                                        for (k, _, _) in desc.params if k in MINIMUMS])
def test_every_suite_checks_something_at_each_minimum(name, param):
    report = run_suite(name, {param: MINIMUMS[param]}, seed=1)
    assert report.exit_code() == 0 and report.cases, report.to_text()
    if (name, param) in AT_MINIMUM_DIGESTS:
        assert _digest(report.to_json()) == AT_MINIMUM_DIGESTS[(name, param)], report.to_json()
