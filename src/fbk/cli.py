"""Command-line runner: scenarios, link files, JSON reports.

Reports go to standard output as JSON (sorted keys, so identical runs are
byte-identical); progress and failure notes go to standard error. Exit
codes: 0 success, 2 check mismatch, 3 parse/validation error, 4 numerical
failure, 5 unknown scenario.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import FbkError, ParseError, UnknownScenario, ValidationError
from .framedlink import InvariantReport, invariant_report, load_link_file
from .scenarios import (
    REGISTRY,
    check_report,
    expected_fields,
    run_scenario,
)
from .tracer import write_loop_csv

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_INPUT = 3
EXIT_NUMERICAL = 4
EXIT_UNKNOWN_SCENARIO = 5


def _parse_override(item: str) -> tuple[str, object]:
    if "=" not in item:
        raise ValidationError(f"override {item!r} is not of the form key=value")
    key, raw = item.split("=", 1)
    value: object
    try:
        value = int(raw)
    except ValueError:
        try:
            value = float(raw)
        except ValueError:
            value = raw
    return key.strip(), value


def _emit(report: InvariantReport, label_key: str, label: str) -> None:
    doc = report.to_dict()
    doc[label_key] = label
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _run_link_file(path: str, csv_dir: str | None) -> InvariantReport:
    link = load_link_file(path)
    report = invariant_report(link)
    if csv_dir is not None:
        os.makedirs(csv_dir, exist_ok=True)
        for n, (loop, _framing) in enumerate(link.components):
            write_loop_csv(loop, os.path.join(csv_dir, f"component_{n:02d}.csv"))
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fbk",
        description="Z2 degree of framed circles: scenario runner and link-file checker",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_scenario = sub.add_parser("scenario", help="run a registered scenario")
    p_scenario.add_argument("name")
    p_scenario.add_argument("--check", action="store_true", help="verify expected fields")
    p_scenario.add_argument(
        "--set",
        metavar="key=value",
        action="append",
        default=[],
        dest="overrides",
        help="override a scenario option (repeatable)",
    )

    p_link = sub.add_parser("link", help="evaluate a JSON link file")
    p_link.add_argument("path")
    p_link.add_argument("--csv", metavar="DIR", default=None, help="dump loop geometry as CSV")

    sub.add_parser("list", help="list registered scenarios")

    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            for name in sorted(REGISTRY):
                sys.stdout.write(f"{name}\t{REGISTRY[name].summary}\n")
            return EXIT_OK
        if args.command == "scenario":
            overrides = dict(_parse_override(item) for item in args.overrides)
            report = run_scenario(args.name, overrides)
            _emit(report, "scenario", args.name)
            if args.check:
                problems = check_report(report, expected_fields(args.name, overrides))
                if problems:
                    for line in problems:
                        sys.stderr.write(f"check failed: {line}\n")
                    return EXIT_CHECK_FAILED
                sys.stderr.write(f"check passed: {args.name}\n")
            return EXIT_OK
        if args.command == "link":
            report = _run_link_file(args.path, args.csv)
            _emit(report, "link_file", args.path)
            return EXIT_OK
    except UnknownScenario as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_UNKNOWN_SCENARIO
    except (ParseError, ValidationError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except FbkError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
