"""Built-in scenario registry: every desk-scale example the CLI can run.

Each scenario builds its geometry from closed-form parametrizations or
analytic maps, runs the invariant pipeline, and knows which report fields
to expect, so the registry doubles as a regression suite (--check).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .errors import UnknownScenario, ValidationError
from .framedlink import (
    FramedLink,
    InvariantReport,
    NormalFraming,
    SampledLoop,
    cylinder_ambient,
    delta_pontryagin,
    euclidean_ambient,
    invariant_report,
    sphere_ambient,
    twist_framing,
)
from .numkit import Tolerances, _norm
from .tracer import MapSpec, SectionSpec, TraceOptions, kappa_of_map, section_index


@dataclass
class Scenario:
    name: str
    summary: str
    defaults: dict
    run: Callable[[dict], InvariantReport]
    expected: Callable[[dict], dict]


def _tolerances(options: dict) -> Tolerances:
    kwargs = {f.name: float(options[f.name]) for f in fields(Tolerances) if f.name in options}
    return Tolerances(**kwargs)


def _circle_loop(
    samples: int,
    dim: int,
    clockwise: bool = False,
    center: np.ndarray | None = None,
) -> SampledLoop:
    offset = np.zeros(dim) if center is None else np.asarray(center, dtype=float)
    sign = -1.0 if clockwise else 1.0

    def point(t: float) -> np.ndarray:
        a = 2.0 * math.pi * (t % 1.0)
        p = offset.copy()
        p[0] += math.cos(a)
        p[1] += sign * math.sin(a)
        return p

    pts = np.array([point(i / samples) for i in range(samples)])
    return SampledLoop(pts, point, [i / samples for i in range(samples)])


def _framing_from(loop: SampledLoop, fns) -> NormalFraming:
    def at(points) -> np.ndarray:
        return np.array([[fn(p) for p in points] for fn in fns], dtype=float)

    return NormalFraming(at(loop.points), lambda t: at([loop.point(t)])[:, 0])


def _constant_field(dim: int, index: int):
    e = np.zeros(dim)
    e[index] = 1.0
    return lambda p: e


def _report_with_delta(link: FramedLink, tol: Tolerances) -> InvariantReport:
    report = invariant_report(link, tol)
    if link.ambient.kind == "euclidean":
        report.diagnostics["delta"] = int(delta_pontryagin(link, tol))
    return report


def _run_pontryagin_circle(options: dict) -> InvariantReport:
    tol = _tolerances(options)
    samples = int(options["samples"])
    turns = int(options["turns"])
    loop = _circle_loop(samples, 4, clockwise=True)
    framing = _framing_from(
        loop, [lambda p: p, _constant_field(4, 2), _constant_field(4, 3)]
    )
    if turns:
        framing = twist_framing(loop, framing, turns)
    link = FramedLink([(loop, framing)], euclidean_ambient(4))
    return _report_with_delta(link, tol)


def _expect_pontryagin_circle(options: dict) -> dict:
    bit = int(options["turns"]) & 1
    return {"kappa": bit, "indices": [bit], "winding": [None], "delta": bit}


def _run_sphere_great_circle(options: dict) -> InvariantReport:
    tol = _tolerances(options)
    samples = int(options["samples"])
    loop = _circle_loop(samples, 5)
    framing = _framing_from(loop, [_constant_field(5, i) for i in (2, 3, 4)])
    link = FramedLink([(loop, framing)], sphere_ambient(5))
    return invariant_report(link, tol)


def _run_cylinder_spin(options: dict) -> InvariantReport:
    tol = _tolerances(options)
    samples = int(options["samples"])
    spin = str(options["spin"])
    circles = int(options["circles"])
    if circles not in (1, 2):
        raise ValidationError("cylinder-spin supports circles=1 or circles=2")
    ambient = cylinder_ambient(5, spin)
    centers = [np.zeros(5), np.array([0.0, 0.0, 1.5, 0.0, 0.0])]
    comps = []
    for c in range(circles):
        loop = _circle_loop(samples, 5, center=centers[c])
        framing = _framing_from(loop, [_constant_field(5, i) for i in (2, 3, 4)])
        comps.append((loop, framing))
    return invariant_report(FramedLink(comps, ambient), tol)


def _expect_cylinder_spin(options: dict) -> dict:
    bit = 1 if options["spin"] == "nonstandard" else 0
    k = int(options["circles"])
    return {
        "kappa": bit if k == 1 else 0,
        "indices": [bit] * k,
        "winding": [1] * k,
    }


def _qmul(a, b) -> tuple:
    """Quaternion product of two (w, x, y, z) sequences of Python floats."""
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return (
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


def _suspended_hopf(p: np.ndarray) -> np.ndarray:
    """(t, y) on S^4 -> (t, y i conj(y) / |y|) on S^3; smooth away from the poles.

    The quaternion products run on Python floats, which round exactly as
    float64 numpy scalars do, at a fraction of their per-operation cost.
    """
    t = float(p[0])
    ny = _norm(p[1:5])
    y = p[1:5].tolist()
    conj = (y[0], -y[1], -y[2], -y[3])
    h = _qmul(_qmul(y, (0.0, 1.0, 0.0, 0.0)), conj)
    return np.array([t, h[1] / ny, h[2] / ny, h[3] / ny])


_HOPF_VALUES = {
    "default": {
        "x0": np.array([0.0, 1.0, 0.0, 0.0]),
        "seed": np.array([0.02, 0.99, 0.12, -0.07, 0.05]),
    },
    "alt": {
        "x0": np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0),
        "seed": np.array([0.01, 0.92, 0.03, -0.02, 0.39]),
    },
}


def _run_suspended_hopf(options: dict) -> InvariantReport:
    tol = _tolerances(options)
    which = str(options["regular_value"])
    if which not in _HOPF_VALUES:
        raise ValidationError("regular_value must be 'default' or 'alt'")
    data = _HOPF_VALUES[which]
    spec = MapSpec(
        _suspended_hopf,
        dimension=5,
        target="sphere",
        regular_value=data["x0"],
        domain="unit_sphere",
    )
    opts = TraceOptions(seeds=[data["seed"]], tolerances=tol)
    return kappa_of_map(spec, opts, sphere_ambient(5))


def _quadric(x: np.ndarray) -> np.ndarray:
    return np.array([x[0] * x[0] + x[1] * x[1] - 1.0, x[2], x[3]])


def _quadric_jac(x: np.ndarray) -> np.ndarray:
    return np.array(
        [
            [2.0 * x[0], 2.0 * x[1], 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )


def _quadric_twisted(x: np.ndarray) -> np.ndarray:
    base = _quadric(x)
    rho = math.hypot(x[0], x[1])
    c = x[0] / rho
    s = x[1] / rho
    return np.array([c * base[0] - s * base[1], s * base[0] + c * base[1], base[2]])


def _run_quadric(options: dict, twisted: bool) -> InvariantReport:
    tol = _tolerances(options)
    if twisted:
        spec = MapSpec(_quadric_twisted, dimension=4)
    else:
        spec = MapSpec(_quadric, dimension=4, jacobian=_quadric_jac)
    opts = TraceOptions(seeds=[np.array([1.1, 0.0, 0.05, -0.02])], tolerances=tol)
    return kappa_of_map(spec, opts, euclidean_ambient(4))


def _s5_splitting(x: np.ndarray) -> np.ndarray:
    return np.array([-x[1], x[0], -x[3], x[2], -x[5], x[4]])


def _s5_section(x: np.ndarray) -> np.ndarray:
    return np.array([0.0, 0.0, -x[4], x[5], x[2], -x[3]])


_S5_SECTION_JAC = np.array(
    [
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, -1.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0, 0.0, 0.0],
    ]
)

_S5_V_JAC = np.array(
    [
        [0.0, -1.0, 0.0, 0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 0.0, 0.0, 1.0, 0.0],
    ]
)


def _s5_alt_section(x: np.ndarray) -> np.ndarray:
    # projection of the constant field e_3 onto the bundle: e_3 minus its
    # radial and splitting components
    out = np.zeros(6)
    out[2] = 1.0
    return out - x[2] * x + x[3] * _s5_splitting(x)


def _s5_alt_section_jac(x: np.ndarray) -> np.ndarray:
    e3 = np.zeros(6)
    e3[2] = 1.0
    e4 = np.zeros(6)
    e4[3] = 1.0
    v = _s5_splitting(x)
    return (
        -np.outer(x, e3)
        - x[2] * np.eye(6)
        + np.outer(v, e4)
        + x[3] * _S5_V_JAC
    )


def _run_s5(options: dict, alt: bool) -> InvariantReport:
    tol = _tolerances(options)
    if alt:
        spec = SectionSpec(5, _s5_splitting, _s5_alt_section, jacobian=_s5_alt_section_jac)
        seed = np.array([0.05, -0.04, 0.97, 0.12, 0.04, -0.03])
    else:
        spec = SectionSpec(5, _s5_splitting, _s5_section, jacobian=lambda x: _S5_SECTION_JAC)
        seed = np.array([0.97, 0.12, 0.05, -0.04, 0.06, -0.02])
    opts = TraceOptions(seeds=[seed], tolerances=tol)
    return section_index(spec, opts)


def _expect_bit(bit: int, components: int = 1, winding=None):
    def expected(options: dict) -> dict:
        return {
            "kappa": bit if components % 2 else 0,
            "indices": [bit] * components,
            "winding": [winding] * components,
        }

    return expected


REGISTRY: dict[str, Scenario] = {}


def _register(scenario: Scenario):
    REGISTRY[scenario.name] = scenario


_register(
    Scenario(
        "pontryagin-circle",
        "standard circle in R^4 with radial+constant framing, twistable",
        {"turns": 0, "samples": 96, },
        _run_pontryagin_circle,
        _expect_pontryagin_circle,
    )
)
_register(
    Scenario(
        "sphere-great-circle",
        "great circle in S^4 with constant normal framing",
        {"samples": 96},
        _run_sphere_great_circle,
        _expect_bit(0),
    )
)
_register(
    Scenario(
        "cylinder-spin",
        "product circles in S^1 x R^3 under both spin structures",
        {"samples": 96, "spin": "standard", "circles": 1},
        _run_cylinder_spin,
        _expect_cylinder_spin,
    )
)
_register(
    Scenario(
        "suspended-hopf",
        "suspension of the quaternionic Hopf map S^4 -> S^3, traced preimage",
        {"regular_value": "default"},
        _run_suspended_hopf,
        _expect_bit(1),
    )
)
_register(
    Scenario(
        "euclidean-quadric",
        "unit-circle preimage of a quadric map R^4 -> R^3",
        {},
        lambda options: _run_quadric(options, twisted=False),
        _expect_bit(0),
    )
)
_register(
    Scenario(
        "euclidean-quadric-twisted",
        "same quadric with residuals rotated by the polar angle",
        {},
        lambda options: _run_quadric(options, twisted=True),
        _expect_bit(1),
    )
)
_register(
    Scenario(
        "s5-vector-fields",
        "zero circle of a transverse section of the v-complement bundle on S^5",
        {},
        lambda options: _run_s5(options, alt=False),
        _expect_bit(1),
    )
)
_register(
    Scenario(
        "s5-alt-section",
        "same bundle with a different section and zero circle",
        {},
        lambda options: _run_s5(options, alt=True),
        _expect_bit(1),
    )
)


def resolve_options(scenario: Scenario, overrides: dict | None) -> dict:
    options = dict(scenario.defaults)
    if overrides:
        allowed = set(scenario.defaults) | {f.name for f in fields(Tolerances)}
        for key, value in overrides.items():
            if key not in allowed:
                raise ValidationError(
                    f"scenario {scenario.name!r} does not accept override {key!r}"
                )
            options[key] = value
    return options


def get_scenario(name: str) -> Scenario:
    if name not in REGISTRY:
        raise UnknownScenario(f"unknown scenario {name!r}; try 'fbk list'")
    return REGISTRY[name]


def run_scenario(name: str, overrides: dict | None = None) -> InvariantReport:
    scenario = get_scenario(name)
    options = resolve_options(scenario, overrides)
    return scenario.run(options)


def expected_fields(name: str, overrides: dict | None = None) -> dict:
    scenario = get_scenario(name)
    options = resolve_options(scenario, overrides)
    return scenario.expected(options)


def check_report(report: InvariantReport, expected: dict) -> list[str]:
    """Compare a report against expected fields; returns mismatch messages."""
    problems = []
    if "kappa" in expected and int(report.kappa) != expected["kappa"]:
        problems.append(f"kappa: expected {expected['kappa']}, got {int(report.kappa)}")
    if "delta" in expected:
        got = report.diagnostics.get("delta")
        if got != expected["delta"]:
            problems.append(f"delta: expected {expected['delta']}, got {got}")
    if "indices" in expected:
        got_idx = [c.index for c in report.components]
        if got_idx != expected["indices"]:
            problems.append(f"indices: expected {expected['indices']}, got {got_idx}")
    if "winding" in expected:
        got_w = [c.winding for c in report.components]
        if got_w != expected["winding"]:
            problems.append(f"winding: expected {expected['winding']}, got {got_w}")
    if int(report.nonzero_count_mod2) != int(report.kappa):
        problems.append("nonzero_count_mod2 does not match kappa")
    return problems
