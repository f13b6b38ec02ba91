"""Command line entry point: list suites and run verifications.

Usage:
    derhamkit list
    derhamkit verify <suite> [--p P] [--n N] [--m M] [--k K] [--r-max R]
                     [--cases C] [--power POW] [--max-degree D]
                     [--max-rank RK] [--rank RANK] [--weight-bound W]
                     [--window-top T] [--f POLY] [--seed S]
                     [--json PATH] [--allow-truncated]

The parameter flags are generated from the suite schemas (`derhamkit list`
shows them); a suite rejects a flag it does not declare.

Exit codes: 0 all cases pass (truncated evidence counts as failure unless
--allow-truncated), 1 failures, 2 usage errors.
"""

from __future__ import annotations

import argparse
import sys

from .suites import MINIMUMS, SUITES, list_suites, run_suite


def _suite_params() -> dict:
    """Every suite parameter name with its type, from the suite schemas."""
    return {k: t for desc in SUITES.values() for (k, t, _) in desc.params}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="derhamkit", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("list", help="list the registered verification suites")

    verify = sub.add_parser("verify", help="run one suite and report")
    verify.add_argument("suite")
    for name, typ in _suite_params().items():
        verify.add_argument("--" + name.replace("_", "-"), dest=name, type=typ)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--json", dest="json_path")
    verify.add_argument("--allow-truncated", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        for desc in list_suites():
            print(f"{desc.name:24} {desc.anchor}")
            if desc.params:
                schema = ", ".join(f"{k}: {t.__name__} = {d}"
                                   + (f" (>= {MINIMUMS[k]})" if k in MINIMUMS else "")
                                   for (k, t, d) in desc.params)
                print(f"{'':24}   parameters: {schema}")
        return 0
    if args.command != "verify":
        parser.print_usage(sys.stderr)
        return 2
    if args.suite not in SUITES:
        print(f"unknown suite {args.suite!r}; see `derhamkit list`", file=sys.stderr)
        return 2
    known = {k for (k, _, _) in SUITES[args.suite].params}
    params = {}
    for name in _suite_params():
        value = getattr(args, name)
        if value is not None:
            if name not in known:
                print(f"suite {args.suite!r} does not accept --{name.replace('_', '-')}",
                      file=sys.stderr)
                return 2
            params[name] = value
    try:
        report = run_suite(args.suite, params, seed=args.seed)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.to_text())
    if args.json_path:
        with open(args.json_path, "w") as handle:
            handle.write(report.to_json())
            handle.write("\n")
    return report.exit_code(allow_truncated=args.allow_truncated)


if __name__ == "__main__":
    raise SystemExit(main())
