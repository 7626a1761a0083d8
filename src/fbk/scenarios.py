"""Built-in scenario registry: every desk-scale example the CLI can run.

Each scenario builds its geometry from closed-form parametrizations or
analytic maps and knows which report fields to expect, so the registry
doubles as a regression suite (--check). The geometry is the whole
scenario: a traced spec with its seeds goes to kappa_of_map or
section_index, a FramedLink of closed-form circles to invariant_report.
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
from .numkit import Tolerances, _norm, _on_stack, _one_or_stack, stacked
from .spinlift import _MAX_REFINED_SAMPLES
from .tracer import MapSpec, SectionSpec, TraceOptions, kappa_of_map, section_index


@dataclass
class Scenario:
    name: str
    summary: str
    defaults: dict
    expected: Callable[[dict], dict]
    # for the scenarios that trace: the (spec, TraceOptions) the tracer takes
    traced: Callable[[dict], tuple] | None = None
    # for the scenarios that frame closed-form circles: the FramedLink reported on
    link: Callable[[dict], FramedLink] | None = None

    def run(self, options: dict) -> InvariantReport:
        """The report on the scenario's geometry; a Euclidean link's adds delta."""
        if self.traced is not None:
            spec, opts = self.traced(options)
            if isinstance(spec, SectionSpec):
                return section_index(spec, opts)
            return kappa_of_map(spec, opts)
        framed = self.link(options)
        tol = options["tolerances"]
        report = invariant_report(framed, tol)
        if framed.ambient.kind == "euclidean":
            report.diagnostics["delta"] = int(delta_pontryagin(framed, tol))
        return report


def _circle_loop(
    samples: int,
    dim: int,
    clockwise: bool = False,
    center: np.ndarray | None = None,
) -> SampledLoop:
    offset = np.zeros(dim) if center is None else np.asarray(center, dtype=float)
    sign = -1.0 if clockwise else 1.0

    @stacked
    def point(ts: np.ndarray) -> np.ndarray:
        """The (K, dim) points at a (K,) array of params, or the point at one param."""
        a = 2.0 * math.pi * (np.asarray(ts, dtype=float) % 1.0)
        P = np.tile(offset, (*a.shape, 1))
        P[..., 0] += np.cos(a)
        P[..., 1] += sign * np.sin(a)
        return P

    params = np.arange(samples) / samples
    return SampledLoop(point(params), point, params.tolist())


def _framing_from(loop: SampledLoop, fns) -> NormalFraming:
    """Fields fns (stack-native or per point) at the samples, with their stack-native resampler."""

    def at(points: np.ndarray) -> np.ndarray:
        return np.stack([_on_stack(fn, points, "framing field", loop.dimension) for fn in fns])

    resample = _one_or_stack(lambda ts: at(loop._points_at(ts)).transpose(1, 0, 2))
    return NormalFraming(at(loop.points), resample)


@stacked
def _identity_field(P: np.ndarray) -> np.ndarray:
    return P


def _constant_field(dim: int, index: int):
    e = np.zeros(dim)
    e[index] = 1.0
    return stacked(lambda P: np.broadcast_to(e, P.shape))


def _pontryagin_link(options: dict) -> FramedLink:
    turns = options["turns"]
    loop = _circle_loop(options["samples"], 4, clockwise=True)
    framing = _framing_from(
        loop, [_identity_field, _constant_field(4, 2), _constant_field(4, 3)]
    )
    if turns:
        framing = twist_framing(loop, framing, turns)
    return FramedLink([(loop, framing)], euclidean_ambient(4))


def _expect_pontryagin_circle(options: dict) -> dict:
    bit = options["turns"] & 1
    return {"kappa": bit, "indices": [bit], "winding": [None], "delta": bit}


def _great_circle_link(options: dict) -> FramedLink:
    loop = _circle_loop(options["samples"], 5)
    framing = _framing_from(loop, [_constant_field(5, i) for i in (2, 3, 4)])
    return FramedLink([(loop, framing)], sphere_ambient(5))


def _cylinder_link(options: dict) -> FramedLink:
    circles = options["circles"]
    if circles not in (1, 2):
        raise ValidationError("cylinder-spin supports circles=1 or circles=2")
    ambient = cylinder_ambient(5, options["spin"])
    centers = [np.zeros(5), np.array([0.0, 0.0, 1.5, 0.0, 0.0])]
    comps = []
    for c in range(circles):
        loop = _circle_loop(options["samples"], 5, center=centers[c])
        framing = _framing_from(loop, [_constant_field(5, i) for i in (2, 3, 4)])
        comps.append((loop, framing))
    return FramedLink(comps, ambient)


def _expect_cylinder_spin(options: dict) -> dict:
    bit = 1 if options["spin"] == "nonstandard" else 0
    k = options["circles"]
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
    a, b, c, d = p[1:5].tolist()
    # y i = (-b, a, d, -c), the product _qmul(y, i) with its zero terms folded
    h = _qmul((-b, a, d, -c), (a, -b, -c, -d))
    return np.array([t, h[1] / ny, h[2] / ny, h[3] / ny])


def _suspended_hopf_jac(p: np.ndarray) -> np.ndarray:
    """The 4 x 5 Jacobian of _suspended_hopf, on Python floats as the map is.

    With y = (a, b, c, d), h = y i conj(y) has the imaginary parts
    (a^2 + b^2 - c^2 - d^2, 2(bc + ad), 2(bd - ac)); row k of h_k / |y| is
    (dh_k - u_k y) / |y| with u_k = h_k / |y|^2, and row 0, of t, is e_0.
    """
    _, a, b, c, d = p.tolist()
    n2 = a * a + b * b + c * c + d * d
    r = 1.0 / math.sqrt(n2)
    u1 = (a * a + b * b - c * c - d * d) / n2
    u2 = 2.0 * (b * c + a * d) / n2
    u3 = 2.0 * (b * d - a * c) / n2
    plus, minus = (2.0 - u1) * r, (2.0 + u1) * r
    return np.array(
        [
            [1.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, a * plus, b * plus, -c * minus, -d * minus],
            [
                0.0,
                (2.0 * d - u2 * a) * r,
                (2.0 * c - u2 * b) * r,
                (2.0 * b - u2 * c) * r,
                (2.0 * a - u2 * d) * r,
            ],
            [
                0.0,
                (-2.0 * c - u3 * a) * r,
                (2.0 * d - u3 * b) * r,
                (-2.0 * a - u3 * c) * r,
                (2.0 * b - u3 * d) * r,
            ],
        ]
    )


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


def _hopf_problem(options: dict) -> tuple[MapSpec, TraceOptions]:
    which = options["regular_value"]
    if which not in _HOPF_VALUES:
        raise ValidationError("regular_value must be 'default' or 'alt'")
    data = _HOPF_VALUES[which]
    spec = MapSpec(
        _suspended_hopf,
        dimension=5,
        target="sphere",
        regular_value=data["x0"],
        jacobian=_suspended_hopf_jac,
        domain="unit_sphere",
    )
    return spec, TraceOptions(seeds=[data["seed"]], tolerances=options["tolerances"])


def _quadric(x: np.ndarray) -> np.ndarray:
    """(x0^2 + x1^2 - 1, x2, x3), on Python floats."""
    x0, x1, x2, x3 = x.tolist()
    return np.array([x0 * x0 + x1 * x1 - 1.0, x2, x3])


def _quadric_jac(x: np.ndarray) -> np.ndarray:
    return np.array(
        [
            [2.0 * x[0], 2.0 * x[1], 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )


def _quadric_twisted(x: np.ndarray) -> np.ndarray:
    """_quadric's (b0, b1) rotated by the angle of (x0, x1), and x3, on Python floats."""
    x0, x1, x2, x3 = x.tolist()
    b0 = x0 * x0 + x1 * x1 - 1.0
    rho = math.hypot(x0, x1)
    c = x0 / rho
    s = x1 / rho
    return np.array([c * b0 - s * x2, s * b0 + c * x2, x3])


def _quadric_twisted_jac(x: np.ndarray) -> np.ndarray:
    """The 3 x 4 Jacobian of _quadric_twisted, on Python floats.

    The map is (c b0 - s b1, s b0 + c b1, x3) with b0 = x0^2 + x1^2 - 1,
    b1 = x2, c = x0 / rho and s = x1 / rho, whose derivatives are
    dc = (s^2, -cs) / rho and ds = (-cs, c^2) / rho in (x0, x1).
    """
    x0, x1, x2, _ = x.tolist()
    rho = math.hypot(x0, x1)
    c = x0 / rho
    s = x1 / rho
    b0 = x0 * x0 + x1 * x1 - 1.0
    cs, cc, ss = c * s / rho, c * c / rho, s * s / rho
    return np.array(
        [
            [b0 * ss + 2.0 * c * x0 + x2 * cs, -b0 * cs + 2.0 * c * x1 - x2 * cc, -s, 0.0],
            [-b0 * cs + 2.0 * s * x0 + x2 * ss, b0 * cc + 2.0 * s * x1 - x2 * cs, c, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )


def _quadric_problem(options: dict, twisted: bool) -> tuple[MapSpec, TraceOptions]:
    if twisted:
        spec = MapSpec(_quadric_twisted, dimension=4, jacobian=_quadric_twisted_jac)
    else:
        spec = MapSpec(_quadric, dimension=4, jacobian=_quadric_jac)
    opts = TraceOptions(
        seeds=[np.array([1.1, 0.0, 0.05, -0.02])], tolerances=options["tolerances"]
    )
    return spec, opts


@stacked
def _s5_splitting(x: np.ndarray) -> np.ndarray:
    """(-x1, x0, -x3, x2, -x5, x4) at a point (6,) or at each row of a (K, 6) stack.

    The sections evaluate it at one point per walk step, so a point costs
    one array of six scalars, as a per-point field would.
    """
    y = x.T
    return np.array([-y[1], y[0], -y[3], y[2], -y[5], y[4]]).T


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


# The four terms of _s5_alt_section_jac, -x e_3^T, x_2 I, v e_4^T and
# x_3 dv with v = _s5_splitting(x), as the products x[_S5_ALT_INDEX[t]]_i
# _S5_ALT_FACTORS[t]_ij: each factor holds the constant of its term, its
# signed zeros included (v_i e_4j = x_(perm i) (sign_i e_4j)), so every
# product has the bits of the term it replaces.
_S5_ALT_INDEX = np.array([range(6), [2] * 6, [1, 0, 3, 2, 5, 4], [3] * 6])
_S5_ALT_FACTORS = np.array(
    [
        np.broadcast_to(-np.eye(6)[2], (6, 6)),
        np.eye(6),
        np.outer([-1.0, 1.0, -1.0, 1.0, -1.0, 1.0], np.eye(6)[3]),
        _S5_V_JAC,
    ]
)


def _s5_alt_section(x: np.ndarray) -> np.ndarray:
    """The projection of the constant field e_3 onto the bundle: e_3 - x_2 x + x_3 v(x).

    v is _s5_splitting; the entries are taken on Python floats, each
    (e_3 - x_2 x)_i + x_3 v_i in the order the array form rounds it.
    """
    x0, x1, x2, x3, x4, x5 = x.tolist()
    return np.array(
        [
            (0.0 - x2 * x0) + x3 * -x1,
            (0.0 - x2 * x1) + x3 * x0,
            (1.0 - x2 * x2) + x3 * -x3,
            (0.0 - x2 * x3) + x3 * x2,
            (0.0 - x2 * x4) + x3 * -x5,
            (0.0 - x2 * x5) + x3 * x4,
        ]
    )


def _s5_alt_section_jac(x: np.ndarray) -> np.ndarray:
    """The 6 x 6 Jacobian of _s5_alt_section: ((-x e_3^T - x_2 I) + v e_4^T) + x_3 dv.

    The four terms come from one product with _S5_ALT_FACTORS and are
    summed in that order into one fresh array.
    """
    P = x[_S5_ALT_INDEX][:, :, None] * _S5_ALT_FACTORS
    J = P[0] - P[1]
    J += P[2]
    J += P[3]
    return J


def _s5_problem(options: dict, alt: bool) -> tuple[SectionSpec, TraceOptions]:
    if alt:
        spec = SectionSpec(5, _s5_splitting, _s5_alt_section, jacobian=_s5_alt_section_jac)
        seed = np.array([0.05, -0.04, 0.97, 0.12, 0.04, -0.03])
    else:
        spec = SectionSpec(5, _s5_splitting, _s5_section, jacobian=lambda x: _S5_SECTION_JAC)
        seed = np.array([0.97, 0.12, 0.05, -0.04, 0.06, -0.02])
    return spec, TraceOptions(seeds=[seed], tolerances=options["tolerances"])


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
        _expect_pontryagin_circle,
        link=_pontryagin_link,
    )
)
_register(
    Scenario(
        "sphere-great-circle",
        "great circle in S^4 with constant normal framing",
        {"samples": 96},
        _expect_bit(0),
        link=_great_circle_link,
    )
)
_register(
    Scenario(
        "cylinder-spin",
        "product circles in S^1 x R^3 under both spin structures",
        {"samples": 96, "spin": "standard", "circles": 1},
        _expect_cylinder_spin,
        link=_cylinder_link,
    )
)
_register(
    Scenario(
        "suspended-hopf",
        "suspension of the quaternionic Hopf map S^4 -> S^3, traced preimage",
        {"regular_value": "default"},
        _expect_bit(1),
        _hopf_problem,
    )
)
_register(
    Scenario(
        "euclidean-quadric",
        "unit-circle preimage of a quadric map R^4 -> R^3",
        {},
        _expect_bit(0),
        lambda options: _quadric_problem(options, twisted=False),
    )
)
_register(
    Scenario(
        "euclidean-quadric-twisted",
        "same quadric with residuals rotated by the polar angle",
        {},
        _expect_bit(1),
        lambda options: _quadric_problem(options, twisted=True),
    )
)
_register(
    Scenario(
        "s5-vector-fields",
        "zero circle of a transverse section of the v-complement bundle on S^5",
        {},
        _expect_bit(1),
        lambda options: _s5_problem(options, alt=False),
    )
)
_register(
    Scenario(
        "s5-alt-section",
        "same bundle with a different section and zero circle",
        {},
        _expect_bit(1),
        lambda options: _s5_problem(options, alt=True),
    )
)


def resolve_options(scenario: Scenario, overrides: dict | None) -> dict:
    """The scenario's defaults with the overrides applied, each checked for its type.

    An override of a default must have the default's type, int or str (a
    bool is not an int). Tolerance keys take an int or float and are
    gathered, with the defaults for the rest, into one Tolerances under
    options["tolerances"]. A samples override may not pass the lift's cap
    of _MAX_REFINED_SAMPLES samples per loop, so it is rejected before
    anything is allocated. An unknown key or a bad value is a
    ValidationError.
    """
    options = dict(scenario.defaults)
    tol_names = {f.name for f in fields(Tolerances)}
    tol = {}
    for key, value in (overrides or {}).items():
        if key in tol_names:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValidationError(f"override {key}={value!r} must be a number")
            tol[key] = float(value)
        elif key in scenario.defaults:
            kind = type(scenario.defaults[key])
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValidationError(f"override {key}={value!r} must be of type {kind.__name__}")
            if key == "samples" and value > _MAX_REFINED_SAMPLES:
                raise ValidationError(
                    f"override samples={value} is above the cap of {_MAX_REFINED_SAMPLES} "
                    "samples per loop"
                )
            options[key] = value
        else:
            raise ValidationError(f"scenario {scenario.name!r} does not accept override {key!r}")
    try:
        options["tolerances"] = Tolerances(**tol)
    except ValueError as exc:
        raise ValidationError(f"bad tolerance override: {exc}") from exc
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
