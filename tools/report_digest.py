"""Digest of the CLI's scenario reports: one line per run, for byte-identity diffs.

    python tools/report_digest.py > digest.txt
    python tools/report_digest.py --against main

Runs `python -m fbk scenario <name> --check` for every registered scenario
and for the override variants of the acceptance suite, with fbk imported
from `src/` of the checkout this file sits in. Each output line holds the
invocation, the exit code, and the sha256 of stdout and of stderr. The tool
exits 1 when some run exits nonzero, 0 otherwise.

With --against REF, the `src/` of the git ref REF is unpacked with
`git archive` into a temporary directory and both trees are digested on
this machine, so CPU and BLAS differences cancel. The lines that differ are
printed (`-` for REF, `+` for this checkout), and the tool exits 1 when any
report byte, failure note or exit code moved.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import os
import subprocess
import sys
import tarfile
import tempfile

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


def digest(args: list[str], root: str = ROOT) -> tuple[int, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.run(
        [sys.executable, "-m", "fbk", *args], cwd=root, env=env, capture_output=True
    )
    out = hashlib.sha256(proc.stdout).hexdigest()
    err = hashlib.sha256(proc.stderr).hexdigest()
    line = f"fbk {' '.join(args)}\texit={proc.returncode}\tstdout={out}\tstderr={err}"
    return proc.returncode, line


def unpack_src(ref: str, into: str) -> None:
    """Write the `src/` tree of git ref `ref` below the directory `into`."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", ref, "src"], cwd=ROOT, capture_output=True
    )
    if archive.returncode != 0:
        raise SystemExit(f"git archive {ref} failed: {archive.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(into, filter="data")


def compare(ref: str) -> int:
    with tempfile.TemporaryDirectory(prefix="report-digest-") as other:
        unpack_src(ref, other)
        differ = 0
        runs = invocations()
        for args in runs:
            _, theirs = digest(args, other)
            _, ours = digest(args, ROOT)
            if theirs != ours:
                differ += 1
                print(f"- {theirs}\n+ {ours}", flush=True)
    print(f"{len(runs) - differ} of {len(runs)} lines identical to {ref}")
    return 1 if differ else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REF", help="git ref to compare this checkout with")
    ref = parser.parse_args().against
    if ref is not None:
        return compare(ref)
    failed = 0
    for args in invocations():
        code, line = digest(args)
        print(line, flush=True)
        failed += code != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
