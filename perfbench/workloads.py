"""Seeded cases for the three workloads, each with an independent expectation.

A case is one closed-loop request: `run()` calls into fbk and returns what
the program produced, `check(output)` compares that output with a bit known
without running the code under test and returns mismatch messages. The
expected values live in `case.expected`, so a test can corrupt one.

The seed draws geometry only. The mix of case kinds per round is fixed, so
every seed does the same amount of lift, frame and tracer work.

Calls into fbk go through module attributes (`spinlift.loop_class`, not a
name imported here), so the traced run sees the wrappers it installs.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from fbk import framedlink, scenarios, spinlift
from fbk.scenarios import check_report, expected_fields
from fbk.spinlift import quaternion_loop_class

WORKLOADS = ("scenarios", "lift-generic", "link-files")

# Registered scenarios, plus the override variants the acceptance suite runs.
SCENARIO_NAMES = (
    "cylinder-spin",
    "euclidean-quadric",
    "euclidean-quadric-twisted",
    "pontryagin-circle",
    "s5-alt-section",
    "s5-vector-fields",
    "sphere-great-circle",
    "suspended-hopf",
)
SCENARIO_VARIANTS = (
    ("pontryagin-circle", {"turns": 1}),
    ("pontryagin-circle", {"turns": 2}),
    ("pontryagin-circle", {"turns": 3}),
    ("cylinder-spin", {"spin": "nonstandard", "circles": 1}),
    ("cylinder-spin", {"spin": "standard", "circles": 2}),
    ("cylinder-spin", {"spin": "nonstandard", "circles": 2}),
    ("suspended-hopf", {"regular_value": "alt"}),
)
TINY_SCENARIOS = (
    ("sphere-great-circle", {}),
    ("pontryagin-circle", {"turns": 1}),
    ("euclidean-quadric-twisted", {}),
)

# (dimension, turns, coarse, copies). A fine loop takes 30-degree steps and
# never refines; a coarse one takes 60-degree steps, so each step is split
# exactly once. The wobble moves a step by at most about 9 degrees, which
# keeps both counts the same for every seed. Generic m = 12 is left out: one
# step costs about 10 s with the sparse Clifford product.
#
# Every mix has a round of 5 (mod 10) cases, or 3: the whole rounds put the
# 50th and 90th percentiles in the middle of one case's repeated timings,
# not on the edge between two cases.
LIFT_MIX = (
    (3, 1, False, 3), (3, 1, True, 3), (3, 2, False, 3), (3, 2, True, 3),
    (4, 1, False, 2), (4, 1, True, 2), (4, 2, False, 2), (4, 2, True, 2),
    (6, 1, False, 1), (6, 1, True, 1), (6, 2, True, 1),
    (8, 1, True, 1), (8, 0, False, 1),
)
TINY_LIFT_MIX = ((3, 1, True, 1), (3, 2, False, 1), (4, 1, False, 1))
WOBBLE = 0.15

# (dimension, components, samples per component) for the link files.
LINK_MIX = ((4, 4, 64), (4, 4, 64), (8, 4, 64), (8, 4, 64), (12, 4, 64))
TINY_LINK_MIX = ((4, 4, 32), (8, 2, 32))
LINK_SPACING = 3.0


@dataclass
class Case:
    case_id: str
    run: Callable[[], object]
    check: Callable[[object, dict], list]
    expected: dict
    bits: int
    size_bytes: int = 0

    def mismatches(self, output) -> list:
        return self.check(output, self.expected)


def build_cases(workload: str, seed: int, workdir: str, tiny: bool = False) -> list:
    """One round of cases for a workload; the same seed gives the same cases."""
    rng = np.random.default_rng(seed)
    if workload == "scenarios":
        return scenario_cases(rng, tiny)
    if workload == "lift-generic":
        return lift_cases(rng, tiny)
    if workload == "link-files":
        return link_cases(rng, os.path.join(workdir, f"links-seed{seed}"), tiny)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


# -- scenarios ---------------------------------------------------------------


def scenario_cases(rng: np.random.Generator, tiny: bool) -> list:
    """Registry scenarios in a seeded order; their geometry is fixed by the registry."""
    specs = TINY_SCENARIOS if tiny else [(n, {}) for n in SCENARIO_NAMES] + list(SCENARIO_VARIANTS)
    cases = []
    for i in rng.permutation(len(specs)):
        name, overrides = specs[i]
        expected = expected_fields(name, overrides)
        label = ",".join(f"{k}={v}" for k, v in sorted(overrides.items()))
        cases.append(
            Case(
                f"{name}[{label}]",
                lambda name=name, overrides=overrides: scenarios.run_scenario(name, overrides),
                check_report,
                expected,
                len(expected["indices"]),
            )
        )
    return cases


def scenario_name(case_id: str) -> str:
    return case_id.split("[", 1)[0]


# -- lift-generic ------------------------------------------------------------


def random_rotation(rng: np.random.Generator, m: int) -> np.ndarray:
    Q, R = np.linalg.qr(rng.normal(size=(m, m)))
    Q = Q * np.sign(np.diag(R))
    if np.linalg.det(Q) < 0.0:
        Q[:, 0] = -Q[:, 0]
    return Q


def _cayley(A: np.ndarray) -> np.ndarray:
    """Orthogonal matrix (I - A)^-1 (I + A) of a skew-symmetric A."""
    eye = np.eye(A.shape[0])
    return np.linalg.solve(eye - A, eye + A)


def generic_loop(rng: np.random.Generator, m: int, turns: int, samples: int):
    """Loop Q P(turns) Q^T C(t) with refiner; its class is turns mod 2.

    P turns `turns` times in the (e_0, e_1) plane, conjugated by a random Q
    into a random plane. C is the Cayley image of a random skew-symmetric
    trigonometric loop; scaling that loop to zero contracts C, so C adds
    nothing to the class. The product is dense in every coordinate plane.
    """
    Q = random_rotation(rng, m)
    harmonics = []
    for k in (1, 2):
        a = rng.normal(size=(m, m))
        b = rng.normal(size=(m, m))
        harmonics.append((k, a - a.T, b - b.T))
    # Cayley(A) rotates by 2*atan(|A|_2) <= 2*|A|_F; keep the wobble small.
    scale = WOBBLE / (2.0 * sum(np.linalg.norm(a) + np.linalg.norm(b) for _, a, b in harmonics))

    def at(t: float) -> np.ndarray:
        ang = 2.0 * math.pi * t
        W = sum(scale * (math.cos(k * ang) * A + math.sin(k * ang) * B) for k, A, B in harmonics)
        c, s = math.cos(turns * ang), math.sin(turns * ang)
        P = np.eye(m)
        P[0, 0] = P[1, 1] = c
        P[1, 0], P[0, 1] = s, -s
        return Q @ P @ Q.T @ _cayley(W)

    params = [i / samples for i in range(samples)]
    return spinlift.RotationLoop([at(t) for t in params], at, params)


def _check_lift(bit, expected: dict) -> list:
    problems = []
    if int(bit) != expected["kappa"]:
        problems.append(f"loop class: expected {expected['kappa']}, got {int(bit)}")
    oracle = expected.get("quaternion_of")
    if oracle is not None:
        q = int(quaternion_loop_class(oracle))
        if q != expected["kappa"]:
            problems.append(f"quaternion oracle: expected {expected['kappa']}, got {q}")
    return problems


def lift_cases(rng: np.random.Generator, tiny: bool) -> list:
    cases = []
    for m, turns, coarse, copies in TINY_LIFT_MIX if tiny else LIFT_MIX:
        per_turn = 6 if coarse else 12
        samples = per_turn * turns if turns else 8
        for c in range(copies):
            loop = generic_loop(rng, m, turns, samples)
            expected = {"kappa": turns & 1, "quaternion_of": loop if m == 3 else None}
            cases.append(
                Case(
                    f"m{m}-turns{turns}-{'coarse' if coarse else 'fine'}-{c}",
                    lambda loop=loop: spinlift.loop_class(loop),
                    _check_lift,
                    expected,
                    1,
                )
            )
    return cases


# -- link-files --------------------------------------------------------------


def link_component(rng: np.random.Generator, dim: int, samples: int, turns: int, offset: float):
    """Points and framing of one twisted circle whose motion stays in coordinates 0-3.

    The clockwise circle in the (0, 1) plane with the radial field and the
    constant fields e_2 .. e_{dim-1} has index 0; a small random wobble in
    coordinates 0-3 is a homotopy and keeps it. Twisting the first two
    fields `turns` full times flips the index `turns` times, so the
    component's bit is turns mod 2.
    """
    ang = 2.0 * math.pi * np.arange(samples) / samples
    pts = np.zeros((samples, dim))
    pts[:, 0] = np.cos(ang)
    pts[:, 1] = -np.sin(ang)
    for k in (2, 3):
        u = rng.normal(size=4) * 0.02
        v = rng.normal(size=4) * 0.02
        pts[:, :4] += np.outer(np.cos(k * ang), u) + np.outer(np.sin(k * ang), v)
    pts[:, 3] += offset
    fields = np.zeros((dim - 1, samples, dim))
    fields[0, :, :2] = pts[:, :2]
    for i in range(1, dim - 1):
        fields[i, :, i + 1] = 1.0
    c = np.cos(turns * ang)[:, None]
    s = np.sin(turns * ang)[:, None]
    f0, f1 = fields[0].copy(), fields[1].copy()
    fields[0] = c * f0 + s * f1
    fields[1] = -s * f0 + c * f1
    return {"points": pts.tolist(), "framing": fields.tolist()}


def _check_link(report, expected: dict) -> list:
    problems = []
    got = [c.index for c in report.components]
    if got != expected["indices"]:
        problems.append(f"indices: expected {expected['indices']}, got {got}")
    if int(report.kappa) != expected["kappa"]:
        problems.append(f"kappa: expected {expected['kappa']}, got {int(report.kappa)}")
    return problems


def _link_case(path: str) -> object:
    link = framedlink.load_link_file(path)
    return framedlink.invariant_report(link)


def link_cases(rng: np.random.Generator, directory: str, tiny: bool) -> list:
    os.makedirs(directory, exist_ok=True)
    cases = []
    for n, (dim, components, samples) in enumerate(TINY_LINK_MIX if tiny else LINK_MIX):
        turns = [int(t) for t in rng.integers(0, 4, size=components)]
        doc = {
            "ambient": {"kind": "euclidean", "dimension": dim},
            "components": [
                link_component(rng, dim, samples, t, LINK_SPACING * i) for i, t in enumerate(turns)
            ],
        }
        name = f"{n}-R{dim}-{components}x{samples}"
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        bits = [t & 1 for t in turns]
        cases.append(
            Case(
                name,
                lambda path=path: _link_case(path),
                _check_link,
                {"indices": bits, "kappa": sum(bits) & 1},
                components,
                os.path.getsize(path),
            )
        )
    return cases
