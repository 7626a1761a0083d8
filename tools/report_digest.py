"""Digest of the CLI's scenario and link-file reports: one line per run, for byte-identity diffs.

    python tools/report_digest.py > digest.txt
    python tools/report_digest.py --against main

Runs `python -m fbk scenario <name> --check` for every registered scenario,
for the override variants of the acceptance suite and for two traced
scenarios whose lift refines (TRACED_REFINERS), then `python -m fbk
link <file>` on a fixed set of closed-form link documents (LINK_DOCUMENTS),
with fbk imported from `src/` of the checkout this file sits in. The link
documents are written to a temporary directory and every run starts there,
so each file is named by the same relative path on every machine. Each
output line holds the invocation, the exit code, and the sha256 of stdout
and of stderr. The tool exits 1 when some run exits with another code than
it should, 0 otherwise: every run should exit 0 except the link documents
that fail on purpose (FAILING_LINKS), whose stderr pins which of several
errors a report raises.

With --against REF, the `src/` of the git ref REF is unpacked with
`git archive` into a temporary directory and both trees are digested on
this machine, so CPU and BLAS differences cancel. The lines that differ are
printed (`-` for REF, `+` for this checkout), each followed by the dotted
keys of the JSON report whose values differ, such as
`components[0].samples` or `diagnostics.closure_errors[0]`, and the tool
exits 1 when any report byte, failure note or exit code moved. Both trees
read the same link documents.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
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

# Traced scenarios with a step cap tight enough that the lift refines: these
# runs reach the traced loop's resamplers (the Newton point, the transported
# frame, dw, and framings whose first field is negated). Kept apart from
# ACCEPTANCE_OVERRIDES, which tools/frame_timing.py reads too.
TRACED_REFINERS = (
    ("suspended-hopf", ("lift_angle_max=0.05",)),
    ("s5-alt-section", ("lift_angle_max=0.05",)),
)

LINK_SAMPLES = 48
# Link documents whose report fails on purpose, and the exit code of that
# failure (fbk.cli's EXIT_NUMERICAL).
FAILING_LINKS = {"r4-two-coarse-circles.json": 4}


def _unit(dim: int, index: int) -> list[float]:
    e = [0.0] * dim
    e[index] = 1.0
    return e


def _framed_circle(
    dim: int,
    clockwise: bool,
    fixed,
    radial: bool,
    turns: int = 0,
    center: int | None = None,
    bumps: tuple[int, ...] = (),
    twist_from: int = 0,
) -> dict:
    """Unit circle in the (0, 1) plane of R^dim, shifted by e_center when given.

    The framing is the outward radial field (when radial) followed by the
    constant coordinate fields e_i for i in fixed; turns rotates the first
    two fields that many full turns along the circle, evenly over the
    samples from twist_from on. Coordinate bumps[n] of the points moves by
    0.1 sin(2a + n) at angle a, so the circle leaves its plane.
    """
    sign = -1.0 if clockwise else 1.0
    points, fields = [], [[] for _ in range(int(radial) + len(fixed))]
    for k in range(LINK_SAMPLES):
        a = 2.0 * math.pi * k / LINK_SAMPLES
        p = [math.cos(a), sign * math.sin(a)] + [0.0] * (dim - 2)
        rows = ([p[:]] if radial else []) + [_unit(dim, i) for i in fixed]
        if center is not None:
            p[center] += 1.0
        for n, i in enumerate(bumps):
            p[i] += 0.1 * math.sin(2.0 * a + n)
        if turns:
            b = 2.0 * math.pi * turns * max(0, k - twist_from) / (LINK_SAMPLES - twist_from)
            c, s = math.cos(b), math.sin(b)
            f0, f1 = rows[0], rows[1]
            rows[0] = [c * x + s * y for x, y in zip(f0, f1)]
            rows[1] = [-s * x + c * y for x, y in zip(f0, f1)]
        points.append(p)
        for field, row in zip(fields, rows):
            field.append(row)
    return {"points": points, "framing": fields}


def link_documents() -> dict[str, dict]:
    """The link files `fbk link` is digested on, by file name."""
    r4 = {"kind": "euclidean", "dimension": 4}
    return {
        "r4-circle.json": {
            "ambient": r4,
            "components": [_framed_circle(4, True, (2, 3), radial=True)],
        },
        "r4-circle-twisted.json": {
            "ambient": r4,
            "components": [_framed_circle(4, True, (2, 3), radial=True, turns=1)],
        },
        "s4-great-circle.json": {
            "ambient": {"kind": "sphere", "dimension": 5},
            "components": [_framed_circle(5, False, (2, 3, 4), radial=False)],
        },
        "cylinder-nonstandard.json": {
            "ambient": {"kind": "cylinder", "dimension": 5, "spin_twist": "nonstandard"},
            "components": [_framed_circle(5, False, (2, 3, 4), radial=False)],
        },
        "r8-two-circles.json": {
            "ambient": {"kind": "euclidean", "dimension": 8},
            "components": [
                _framed_circle(8, True, range(2, 8), radial=True),
                _framed_circle(8, True, range(2, 8), radial=True, turns=1, center=2),
            ],
        },
        # the lift moves 3, 4 and 5 coordinates of the three components
        "r8-mixed-coordinates.json": {
            "ambient": {"kind": "euclidean", "dimension": 8},
            "components": [
                _framed_circle(8, True, range(2, 8), radial=True, turns=1),
                _framed_circle(8, True, range(2, 8), radial=True, turns=2, center=3, bumps=(5,)),
                _framed_circle(8, True, range(2, 8), radial=True, turns=1, center=4, bumps=(5, 6)),
            ],
        },
        # 60-degree framing steps and no refiner: component 0 fails its
        # refinement at parameter 0.5, where its twist starts, and
        # component 1 at parameter 0
        "r4-two-coarse-circles.json": {
            "ambient": r4,
            "components": [
                _framed_circle(4, True, (2, 3), radial=True, turns=4, twist_from=24),
                _framed_circle(4, True, (2, 3), radial=True, turns=8, center=2),
            ],
        },
    }


def write_link_documents(into: str) -> None:
    for name, document in link_documents().items():
        with open(os.path.join(into, name), "w", encoding="utf-8") as fh:
            json.dump(document, fh)


def invocations() -> list[list[str]]:
    runs = [["scenario", name, "--check"] for name in SCENARIOS]
    for name, sets in ACCEPTANCE_OVERRIDES + TRACED_REFINERS:
        args = ["scenario", name, "--check"]
        for item in sets:
            args += ["--set", item]
        runs.append(args)
    runs += [["link", name] for name in link_documents()]
    return runs


def expected_exit(args: list[str]) -> int:
    """The exit code the run `python -m fbk args` should give."""
    return FAILING_LINKS.get(args[1], 0) if args[0] == "link" else 0


def digest(args: list[str], root: str, cwd: str) -> tuple[int, str, bytes]:
    """Run `python -m fbk args` from cwd with the fbk of root/src.

    Returns the exit code, the digest line and the report (stdout).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.run(
        [sys.executable, "-m", "fbk", *args], cwd=cwd, env=env, capture_output=True
    )
    out = hashlib.sha256(proc.stdout).hexdigest()
    err = hashlib.sha256(proc.stderr).hexdigest()
    line = f"fbk {' '.join(args)}\texit={proc.returncode}\tstdout={out}\tstderr={err}"
    return proc.returncode, line, proc.stdout


_ABSENT = object()


def moved_keys(theirs: bytes, ours: bytes) -> list[str]:
    """Dotted keys whose values differ between two JSON reports, in key order.

    A key present in one report only counts as moved, and so does a list
    whose length changed. A report that is not JSON (a failed run prints
    none) yields no keys.
    """
    try:
        before, after = json.loads(theirs), json.loads(ours)
    except ValueError:
        return []
    moved: list[str] = []

    def walk(a, b, key: str) -> None:
        if isinstance(a, dict) and isinstance(b, dict):
            for name in sorted(set(a) | set(b)):
                walk(a.get(name, _ABSENT), b.get(name, _ABSENT), f"{key}.{name}" if key else name)
        elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
            for i, (x, y) in enumerate(zip(a, b)):
                walk(x, y, f"{key}[{i}]")
        elif a != b or type(a) is not type(b):
            moved.append(key or "(report)")

    walk(before, after, "")
    return moved


def unpack_src(ref: str, into: str) -> None:
    """Write the `src/` tree of git ref `ref` below the directory `into`."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", ref, "src"], cwd=ROOT, capture_output=True
    )
    if archive.returncode != 0:
        raise SystemExit(f"git archive {ref} failed: {archive.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(into, filter="data")


def compare(ref: str, docs: str) -> int:
    with tempfile.TemporaryDirectory(prefix="report-digest-") as other:
        unpack_src(ref, other)
        differ = 0
        runs = invocations()
        for args in runs:
            _, theirs, their_report = digest(args, other, docs)
            _, ours, our_report = digest(args, ROOT, docs)
            if theirs != ours:
                differ += 1
                print(f"- {theirs}\n+ {ours}", flush=True)
                keys = moved_keys(their_report, our_report)
                if keys:
                    print(f"  moved: {', '.join(keys)}", flush=True)
    print(f"{len(runs) - differ} of {len(runs)} lines identical to {ref}")
    return 1 if differ else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REF", help="git ref to compare this checkout with")
    ref = parser.parse_args().against
    with tempfile.TemporaryDirectory(prefix="report-digest-links-") as docs:
        write_link_documents(docs)
        if ref is not None:
            return compare(ref, docs)
        failed = 0
        for args in invocations():
            code, line, _ = digest(args, ROOT, docs)
            print(line, flush=True)
            failed += code != expected_exit(args)
        return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
