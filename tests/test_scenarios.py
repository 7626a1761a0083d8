"""Exact integer diagnostics of every registered scenario and the acceptance overrides.

The counts are work, not tolerances: a change that moves one of them does
different work and has to say why. lift_steps is recorded by a scope around
the whole run, so it includes the lifts behind the "delta" cross-check; the
column sums to 1936, the lift steps of one round of the scenarios workload.
(perfbench/baseline.json records 1944 from before the walk factored each
Jacobian once by SVD: each traced circle then had 63 samples, not 62.) The
tracer's columns sum to 384 Newton calls, 1480 Newton iterations and 461
Jacobian evaluations a round: the corrector keeps one factorization while
its steps contract, and dw on a zero circle takes the walk's Jacobians.
Every traced scenario has an analytic Jacobian, checked against central
differences once per seed: 6 jacobian_checks a round, apart from those
counts.
"""

import dataclasses
import math
import re

import numpy as np
import pytest

from fbk import recording, run_scenario, scenarios
from fbk.errors import EvaluationFailure
from fbk.numkit import jacobian_fd
from fbk.scenarios import REGISTRY, resolve_options
from fbk.tracer import SectionSpec, _section_map, trace_component

# name, overrides, refinement_depth, seeds_skipped (None: not traced),
# number of closure errors (None: not traced), samples per component, lift_steps,
# then the tracer's newton_calls, newton_iterations and jacobian_evaluations
# (None: not traced)
TABLE = [
    ("cylinder-spin", {}, 0, None, None, [96], 96, None, None, None),
    ("euclidean-quadric", {}, 0, 0, 1, [62], 62, 64, 256, 67),
    ("euclidean-quadric-twisted", {}, 0, 0, 1, [62], 62, 64, 196, 129),
    ("pontryagin-circle", {}, 0, None, None, [96], 192, None, None, None),
    ("s5-alt-section", {}, 0, 0, 1, [62], 124, 64, 256, 67),
    ("s5-vector-fields", {}, 0, 0, 1, [62], 124, 64, 258, 66),
    ("sphere-great-circle", {}, 0, None, None, [96], 96, None, None, None),
    ("suspended-hopf", {}, 0, 0, 1, [62], 62, 64, 258, 66),
    ("pontryagin-circle", {"turns": 1}, 0, None, None, [96], 192, None, None, None),
    ("pontryagin-circle", {"turns": 2}, 0, None, None, [96], 192, None, None, None),
    ("pontryagin-circle", {"turns": 3}, 0, None, None, [96], 192, None, None, None),
    ("cylinder-spin", {"spin": "nonstandard", "circles": 1}, 0, None, None, [96], 96, None, None, None),
    ("cylinder-spin", {"spin": "standard", "circles": 2}, 0, None, None, [96, 96], 192, None, None, None),
    ("cylinder-spin", {"spin": "nonstandard", "circles": 2}, 0, None, None, [96, 96], 192, None, None, None),
    ("suspended-hopf", {"regular_value": "alt"}, 0, 0, 1, [62], 62, 64, 256, 66),
]


@pytest.mark.parametrize(
    "name, overrides, depth, skipped, closures, samples, lift_steps, calls, iterations, jacobians",
    TABLE,
    ids=[f"{row[0]}{row[1] or ''}" for row in TABLE],
)
def test_integer_diagnostics(
    name, overrides, depth, skipped, closures, samples, lift_steps, calls, iterations, jacobians
):
    with recording() as record:
        report = run_scenario(name, overrides)
    diagnostics = report.diagnostics
    assert diagnostics["refinement_depth"] == depth
    assert diagnostics.get("seeds_skipped") == skipped
    if closures is None:
        assert "closure_errors" not in diagnostics
    else:
        assert len(diagnostics["closure_errors"]) == closures
    assert [c.samples for c in report.components] == samples
    assert record["lift_steps"] == lift_steps
    assert record["refinement_depth"] == depth
    assert record.get("newton_calls") == calls
    assert record.get("newton_iterations") == iterations
    assert record.get("jacobian_evaluations") == jacobians


@pytest.mark.parametrize(
    "name, iterations, jacobians", [("s5-alt-section", 824, 443), ("s5-vector-fields", 826, 442)]
)
def test_zero_circle_terms_share_their_resampled_points(name, iterations, jacobians):
    # at lift_angle_max 0.05 both terms of the zero circle refine the one
    # traced loop at the same param stacks, and the second term takes the
    # first's corrected points, tangents and Jacobians: 188 Newton calls and
    # 376 Jacobians fewer than correcting each term's params anew (440 calls,
    # 819 and 818 Jacobians)
    with recording() as record:
        report = run_scenario(name, {"lift_angle_max": 0.05})
    assert int(report.kappa) == 1 and report.diagnostics["refinement_depth"] == 3
    assert record["lift_steps"] == record["frames_assembled"] == 500
    assert record["newton_calls"] == 252
    assert record["newton_iterations"] == iterations
    assert record["jacobian_evaluations"] == jacobians


TRACED = sorted(name for name, scenario in REGISTRY.items() if scenario.traced)


def traced_problem(name: str):
    """The scenario, and the (spec, TraceOptions) its default run hands the tracer."""
    scenario = REGISTRY[name]
    spec, opts = scenario.traced(resolve_options(scenario, {}))
    return scenario, spec, opts


def test_every_traced_scenario_has_an_analytic_jacobian():
    # the walk of no registry scenario takes central differences; the one
    # seed of each is checked against them once
    assert len(TRACED) == 5
    for name in TRACED:
        assert traced_problem(name)[1].jacobian is not None, name
        with recording() as record:
            run_scenario(name)
        assert record["jacobian_checks"] == 1, name


@pytest.mark.parametrize("name", TRACED)
def test_registry_jacobians_match_their_maps(name):
    # 50 points within 0.01 of the traced curve, each coordinate perturbed
    _, spec, opts = traced_problem(name)
    if isinstance(spec, SectionSpec):
        spec = _section_map(spec)
    loop = trace_component(spec, opts.seeds[0], opts)
    rng = np.random.default_rng(26)
    points = loop.points[rng.integers(len(loop), size=50)]
    points = points + rng.uniform(-0.01, 0.01, size=points.shape)
    for p in points:
        J = np.asarray(spec.jacobian(p), dtype=float)
        F = jacobian_fd(spec.evaluator, p)
        assert np.max(np.abs(J - F)) <= 1e-7 * (1.0 + np.max(np.abs(F))), p


def scaled(J):
    return 1.5 * J


def negated_row(J):
    J = J.copy()
    J[1] = -J[1]
    return J


def swapped_rows(J):
    return J[[1, 0, *range(2, len(J))]]


@pytest.mark.parametrize("wrong", [scaled, negated_row, swapped_rows])
@pytest.mark.parametrize(
    "name", ["euclidean-quadric", "euclidean-quadric-twisted", "s5-alt-section"]
)
def test_a_wrong_jacobian_is_an_evaluation_failure(name, wrong):
    # without the seed's check each of these walks stalls at its seed, and
    # the report reads kappa 0 with the seed skipped
    scenario, spec, opts = traced_problem(name)
    right = spec.jacobian
    spec = dataclasses.replace(spec, jacobian=lambda x: wrong(np.asarray(right(x), dtype=float)))
    scenario = dataclasses.replace(scenario, traced=lambda options: (spec, opts))
    with pytest.raises(EvaluationFailure, match="disagrees with central differences") as caught:
        scenario.run(resolve_options(scenario, {}))
    # the entry named is the one farthest from the map's derivative, and both values are given
    i, j, given, differences = re.search(
        r"entry \((\d+), (\d+)\) is (\S+), central differences give (\S+)$", str(caught.value)
    ).groups()
    seed = opts.seeds[0]
    gap = np.abs(wrong(np.asarray(right(seed), dtype=float)) - right(seed))
    assert gap[int(i), int(j)] == gap.max() > 0.0
    assert float(given) != pytest.approx(float(differences))


@pytest.mark.parametrize("name", ["euclidean-quadric-twisted", "suspended-hopf"])
def test_the_finite_difference_walk_keeps_its_table_row(name):
    # the fallback without an analytic Jacobian: the registry's bit and the
    # same samples and work as the analytic walk, checking nothing
    scenario, spec, opts = traced_problem(name)
    fd = dataclasses.replace(spec, jacobian=None)
    scenario = dataclasses.replace(scenario, traced=lambda options: (fd, opts))
    [row] = [row for row in TABLE if row[:2] == (name, {})]
    samples, lift_steps, calls, iterations, jacobians = row[5:]
    options = resolve_options(scenario, {})
    with recording() as record:
        report = scenario.run(options)
    assert int(report.kappa) == scenario.expected(options)["kappa"] == 1
    assert [c.samples for c in report.components] == samples
    assert record["lift_steps"] == lift_steps
    assert record["newton_calls"] == calls
    assert record["newton_iterations"] == iterations
    assert record["jacobian_evaluations"] == jacobians
    assert "jacobian_checks" not in record


def array_s5_alt_section(x):
    """_s5_alt_section as an array expression: e_3 - x_2 x + x_3 v(x)."""
    e3 = np.zeros(6)
    e3[2] = 1.0
    return e3 - x[2] * x + x[3] * scenarios._s5_splitting(x)


def array_s5_alt_section_jac(x):
    """_s5_alt_section_jac from fresh outer products: -x e_3^T - x_2 I + v e_4^T + x_3 dv."""
    e3, e4 = np.eye(6)[2], np.eye(6)[3]
    v = scenarios._s5_splitting(x)
    return -np.outer(x, e3) - x[2] * np.eye(6) + np.outer(v, e4) + x[3] * scenarios._S5_V_JAC


def unfolded_suspended_hopf(p):
    """_suspended_hopf with both quaternion products taken in full, y i by _qmul too."""
    y = p[1:5].tolist()
    conj = (y[0], -y[1], -y[2], -y[3])
    h = scenarios._qmul(scenarios._qmul(y, (0.0, 1.0, 0.0, 0.0)), conj)
    ny = np.linalg.norm(p[1:5])
    return np.array([float(p[0]), h[1] / ny, h[2] / ny, h[3] / ny])


@pytest.mark.parametrize(
    "fast, reference, dim",
    [
        (scenarios._s5_alt_section, array_s5_alt_section, 6),
        (scenarios._s5_alt_section_jac, array_s5_alt_section_jac, 6),
        (scenarios._suspended_hopf, unfolded_suspended_hopf, 5),
    ],
    ids=["s5-alt-section", "s5-alt-section-jacobian", "suspended-hopf"],
)
def test_registry_callbacks_keep_the_bits_of_their_array_forms(fast, reference, dim):
    # every byte, signed zeros included, at 10^4 seeded points; generic
    # points, as the walk's are (the folded y i of the Hopf map can flip
    # the sign of a zero entry where a coordinate of y is exactly zero)
    rng = np.random.default_rng(28)
    for p in rng.normal(size=(10_000, dim)):
        assert fast(p).tobytes() == reference(p).tobytes(), p


def numpy_scalar_quadric(x):
    """_quadric on numpy scalars, x[i] for every coordinate."""
    return np.array([x[0] * x[0] + x[1] * x[1] - 1.0, x[2], x[3]])


def numpy_scalar_quadric_twisted(x):
    """_quadric_twisted on numpy scalars, from numpy_scalar_quadric's array."""
    base = numpy_scalar_quadric(x)
    rho = math.hypot(x[0], x[1])
    c = x[0] / rho
    s = x[1] / rho
    return np.array([c * base[0] - s * base[1], s * base[0] + c * base[1], base[2]])


@pytest.mark.parametrize(
    "fast, reference",
    [
        (scenarios._quadric, numpy_scalar_quadric),
        (scenarios._quadric_twisted, numpy_scalar_quadric_twisted),
    ],
    ids=["euclidean-quadric", "euclidean-quadric-twisted"],
)
def test_quadric_maps_keep_the_bits_of_their_numpy_scalar_forms(fast, reference):
    # every byte at 10^4 seeded points: half generic, half with zeroed and
    # sign-flipped coordinates, so signed zeros pass through; never x0 and
    # x1 zero together, where the twisted map divides by rho = 0
    rng = np.random.default_rng(30)
    points = rng.normal(size=(10_000, 4))
    zeroed = rng.random(points.shape) < 0.5
    zeroed[:5_000] = False
    zeroed[:, 1] &= ~zeroed[:, 0]
    points[zeroed] = 0.0
    points[5_000:] *= np.where(rng.random((5_000, 4)) < 0.5, -1.0, 1.0)
    for p in points:
        assert fast(p).tobytes() == reference(p).tobytes(), p


def test_s5_alt_section_jacobian_keeps_its_signed_zeros_at_zero_coordinates():
    # the zero terms of the array form set the sign of every zero entry
    rng = np.random.default_rng(29)
    for p in rng.normal(size=(2_000, 6)):
        p[rng.random(6) < 0.5] = 0.0
        p *= np.where(rng.random(6) < 0.5, -1.0, 1.0)
        fast = scenarios._s5_alt_section_jac(p)
        assert fast.tobytes() == array_s5_alt_section_jac(p).tobytes(), p
        assert scenarios._s5_alt_section(p).tobytes() == array_s5_alt_section(p).tobytes(), p
