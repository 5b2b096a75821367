"""Command line entry point.

Subcommands:
  run <scenario-file-or-builtin>   execute a scenario pipeline, emit reports
  list-builtins                    print the builtin scenario names
  describe <builtin>               print a builtin scenario as JSON

Exit status: 0 success, 2 parse or validation error, 3 strict-mode
mathematical failure or, in either mode, a computed state that fails
State's checks, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .process import ValidationFailure
from .report import emit_report
from .scenarios import ScenarioError, builtin_scenarios, run_scenario, scenario_from_file

EXIT_OK = 0
EXIT_SCENARIO = 2
EXIT_MATH = 3
EXIT_IO = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qqsp",
        description="Quantum quadratic stochastic process laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario file or builtin")
    run_p.add_argument("scenario", help="path to a scenario JSON file, or a builtin name")
    mode = run_p.add_mutually_exclusive_group()
    mode.add_argument("--strict", action="store_const", const="strict", dest="mode",
                      help="abort on validation or axiom failures")
    mode.add_argument("--permissive", action="store_const", const="permissive", dest="mode",
                      help="propagate and report instead of aborting")
    run_p.add_argument("--out-dir", default=".", help="directory for report files")
    run_p.add_argument("--seed", type=int, default=None, help="deterministic run seed")
    run_p.add_argument("--format", default="structured",
                       choices=["structured", "csv-bundle"], dest="fmt")

    sub.add_parser("list-builtins", help="list builtin scenario names")

    desc_p = sub.add_parser("describe", help="print a builtin scenario as JSON")
    desc_p.add_argument("builtin")
    return parser


def _load_scenario(arg: str):
    path = Path(arg)
    if path.exists():
        return scenario_from_file(path)
    catalog = builtin_scenarios()
    if arg in catalog:
        return catalog[arg]
    raise ScenarioError(f"{arg!r} is neither a scenario file nor a builtin "
                        f"(builtins: {', '.join(sorted(catalog))})")


def _cmd_run(args) -> int:
    scenario = _load_scenario(args.scenario)
    report = run_scenario(scenario, mode=args.mode, seed=args.seed)
    written = emit_report(report, args.out_dir, args.fmt)
    for path in written:
        print(path)
    bad = [k for k, v in report.verdicts.items() if v is False]
    if bad:
        print(f"note: verdicts not met: {', '.join(sorted(bad))}", file=sys.stderr)
    return EXIT_OK


def _cmd_list(_args) -> int:
    for name in sorted(builtin_scenarios()):
        print(name)
    return EXIT_OK


def _cmd_describe(args) -> int:
    catalog = builtin_scenarios()
    if args.builtin not in catalog:
        raise ScenarioError(f"unknown builtin {args.builtin!r} "
                            f"(builtins: {', '.join(sorted(catalog))})")
    print(json.dumps(catalog[args.builtin].to_dict(), sort_keys=True, indent=2))
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {"run": _cmd_run, "list-builtins": _cmd_list,
               "describe": _cmd_describe}[args.command]
    try:
        return handler(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    except ValidationFailure as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_MATH
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
