"""Digest of the CLI's scenario reports: one line per run, for byte-identity diffs.

    python tools/report_digest.py > digest.txt

Runs `python -m fbk scenario <name> --check` for every registered scenario
and for the override variants of the acceptance suite, with fbk imported
from `src/` of the checkout this file sits in. Each output line holds the
invocation, the exit code, and the sha256 of stdout and of stderr. Running
the tool on two checkouts and diffing the outputs shows whether a change
moved any report byte, failure note or exit code. The tool exits 1 when
some run exits nonzero, 0 otherwise.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCENARIOS = (
    "cylinder-spin",
    "euclidean-quadric",
    "euclidean-quadric-twisted",
    "pontryagin-circle",
    "s5-alt-section",
    "s5-vector-fields",
    "sphere-great-circle",
    "suspended-hopf",
)
# The override variants the acceptance suite runs, as --set arguments.
ACCEPTANCE_OVERRIDES = (
    ("pontryagin-circle", ("turns=1",)),
    ("pontryagin-circle", ("turns=2",)),
    ("pontryagin-circle", ("turns=3",)),
    ("cylinder-spin", ("spin=nonstandard", "circles=1")),
    ("cylinder-spin", ("spin=standard", "circles=2")),
    ("cylinder-spin", ("spin=nonstandard", "circles=2")),
    ("suspended-hopf", ("regular_value=alt",)),
)


def invocations() -> list[list[str]]:
    runs = [["scenario", name, "--check"] for name in SCENARIOS]
    for name, sets in ACCEPTANCE_OVERRIDES:
        args = ["scenario", name, "--check"]
        for item in sets:
            args += ["--set", item]
        runs.append(args)
    return runs


def digest(args: list[str]) -> tuple[int, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.run(
        [sys.executable, "-m", "fbk", *args], cwd=ROOT, env=env, capture_output=True
    )
    out = hashlib.sha256(proc.stdout).hexdigest()
    err = hashlib.sha256(proc.stderr).hexdigest()
    line = f"fbk {' '.join(args)}\texit={proc.returncode}\tstdout={out}\tstderr={err}"
    return proc.returncode, line


def main() -> int:
    failed = 0
    for args in invocations():
        code, line = digest(args)
        print(line, flush=True)
        failed += code != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
