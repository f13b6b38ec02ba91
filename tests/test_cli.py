"""CLI surface: list, verify, JSON schema, exit codes, reproducibility."""

import json
import subprocess
import sys
import time

import pytest

from derhamkit.cli import build_parser, main
from derhamkit.suites import list_suites, run_suite


def test_list_contains_registered_suites(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("dold-kan-roundtrip", "drpd-envelope", "theta-epsilon"):
        assert name in out


def test_list_suites_deterministic_order():
    names = [d.name for d in list_suites()]
    assert names == sorted(names)
    assert all(d.anchor for d in list_suites())


def test_verify_exit_codes_and_json(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(["verify", "different-valuation", "--p", "3", "--r-max", "2",
                 "--seed", "7", "--json", str(path)])
    assert code == 0
    data = json.loads(path.read_text())
    assert set(data) == {"suite", "params", "seed", "cases", "summary", "elapsed_ms"}
    assert data["suite"] == "different-valuation"
    assert data["params"] == {"p": 3, "r_max": 2}
    assert data["seed"] == 7
    assert data["summary"]["fail"] == 0
    for case in data["cases"]:
        assert set(case) == {"name", "expected", "computed", "status"}
        assert case["status"] in ("pass", "fail", "truncated-evidence")
    # case list sorted by name
    names = [c["name"] for c in data["cases"]]
    assert names == sorted(names)


def test_usage_errors():
    assert main(["verify", "no-such-suite"]) == 2
    # flag not accepted by the suite
    assert main(["verify", "different-valuation", "--m", "3"]) == 2


_SCHEMA_FLAGS = [(d.name, k, t) for d in list_suites() for (k, t, _) in d.params]


@pytest.mark.parametrize("suite,param,typ", _SCHEMA_FLAGS,
                         ids=[f"{s}-{k}" for (s, k, _) in _SCHEMA_FLAGS])
def test_verify_accepts_every_schema_parameter(suite, param, typ):
    value = "x^3" if typ is str else "1"
    args = build_parser().parse_args(["verify", suite, "--" + param.replace("_", "-"), value])
    assert getattr(args, param) == typ(value)


def test_unknown_parameter_via_api():
    with pytest.raises(ValueError):
        run_suite("different-valuation", {"bogus": 1})
    with pytest.raises(KeyError):
        run_suite("missing-suite")


def test_reports_reproducible_modulo_timing():
    r1 = run_suite("cotangent-regular", {}, seed=11)
    r2 = run_suite("cotangent-regular", {}, seed=11)
    d1 = json.loads(r1.to_json())
    d2 = json.loads(r2.to_json())
    d1.pop("elapsed_ms")
    d2.pop("elapsed_ms")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)
    # byte-identical canonical serialization apart from the timing field
    s1 = json.dumps({k: v for k, v in json.loads(r1.to_json()).items() if k != "elapsed_ms"},
                    sort_keys=True, separators=(",", ":"))
    s2 = json.dumps({k: v for k, v in json.loads(r2.to_json()).items() if k != "elapsed_ms"},
                    sort_keys=True, separators=(",", ":"))
    assert s1 == s2


def test_seed_changes_random_cases():
    r1 = run_suite("koszul-gamma", {"cases": 3}, seed=1)
    r2 = run_suite("koszul-gamma", {"cases": 3}, seed=2)
    assert r1.summary["fail"] == 0 and r2.summary["fail"] == 0


def test_console_script_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "derhamkit.cli", "verify", "different-valuation",
         "--p", "2", "--r-max", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "pass" in proc.stdout


def test_import_builds_the_classes_without_dataclasses():
    # a cold ``derhamkit verify`` pays for every class the package builds
    code = "import json, sys, derhamkit; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    modules = json.loads(proc.stdout)
    assert "derhamkit.suites" in modules and "dataclasses" not in modules


def test_truncated_evidence_exit_semantics():
    from derhamkit.suites import SuiteCase, SuiteReport

    rep = SuiteReport(
        "synthetic", {}, 0,
        [SuiteCase("bounded-claim", "holds up to weight W", "verified up to weight W",
                   "truncated-evidence")],
        0,
    )
    assert rep.summary == {"pass": 0, "fail": 0, "truncated": 1}
    assert rep.exit_code(allow_truncated=False) == 1
    assert rep.exit_code(allow_truncated=True) == 0


@pytest.mark.parametrize("suite,flag,value,least", [
    ("dold-kan-roundtrip", "--cases", "0", 1),
    ("koszul-gamma", "--cases", "-3", 1),
    ("different-valuation", "--r-max", "0", 1),
    ("quillen-shift", "--power", "0", 1),
    ("drpd-modp", "--window-top", "0", 1),
    ("drpd-modp", "--weight-bound", "-1", 0),
    ("drpd-envelope", "--weight-bound", "-1", 0),
])
def test_count_parameters_below_one_are_usage_errors(suite, flag, value, least, capsys):
    param = flag[2:].replace("-", "_")
    with pytest.raises(ValueError, match=param):
        run_suite(suite, {param: int(value)})
    assert main(["verify", suite, flag, value]) == 2
    assert f"at least {least}, got {value}" in capsys.readouterr().err


def test_every_default_meets_its_minimum():
    from derhamkit.suites import MINIMUMS

    bounded = [(k, d) for desc in list_suites() for (k, _, d) in desc.params if k in MINIMUMS]
    assert {k for k, _ in bounded} == MINIMUMS.keys()
    assert all(d >= MINIMUMS[k] for k, d in bounded)


def test_report_without_cases_fails():
    from derhamkit.suites import SuiteReport

    rep = SuiteReport("synthetic", {}, 0, [], 0)
    assert rep.exit_code() == 1
    assert rep.exit_code(allow_truncated=True) == 1


def test_modulus_too_large_is_a_usage_error(capsys):
    assert main(["verify", "dold-kan-roundtrip", "--p", "2", "--n", "40", "--cases", "1"]) == 2
    assert "2^31" in capsys.readouterr().err


def test_oversized_witt_carrier_is_a_usage_error(capsys):
    # W_3 of the 256-element tilt has 2^24 elements: rejected before any
    # array of that length is made
    start = time.perf_counter()
    assert main(["verify", "theta-epsilon", "--p", "2", "--m", "4", "--n", "3", "--k", "3"]) == 2
    assert "16777216 elements exceeds the enumeration bound 2^16" in capsys.readouterr().err
    assert time.perf_counter() - start < 5


def test_dold_kan_roundtrip_at_the_largest_odd_modulus(capsys):
    assert main(["verify", "dold-kan-roundtrip", "--p", "3", "--n", "19", "--cases", "3"]) == 0
    assert "6 pass, 0 fail" in capsys.readouterr().out
