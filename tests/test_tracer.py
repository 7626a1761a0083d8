import dataclasses
import json
import math
import re

import numpy as np
import pytest

from conftest import random_rotation
from fbk.errors import (
    DuplicateComponent,
    EvaluationFailure,
    NoConvergence,
    NonTransverse,
    RankDeficient,
    Singular,
    ValidationError,
)
from fbk.framedlink import (
    FramedLink,
    SampledLoop,
    _frame_rows,
    _recombined,
    euclidean_ambient,
    frame_matrix_loop,
    index_of_circle,
    invariant_report,
    sphere_ambient,
    twist_framing,
)
from fbk.numkit import DEFAULT_TOL, Tolerances, _on_stack, jacobian_fd, recording, stacked
from fbk.scenarios import (
    _S5_SECTION_JAC,
    REGISTRY,
    _s5_alt_section,
    _s5_alt_section_jac,
    _s5_section,
    _s5_splitting,
    resolve_options,
)
from fbk.spinlift import loop_class
from fbk.tracer import (
    _CHORD_CONTRACTION,
    _JACOBIAN_CHECK_TOL,
    _NEWTON_RCOND,
    MapSpec,
    SectionSpec,
    TraceOptions,
    _TracedSystem,
    _oriented,
    _section_derivative_fields,
    _section_indices,
    _section_parts,
    _traced_components,
    _descent,
    _factored,
    _givens_path,
    _givens_planes,
    _map_system,
    _newton,
    _section_map,
    _tangent_of,
    _trace,
    hausdorff_distance,
    induced_framing,
    kappa_of_map,
    section_index,
    section_zero_loops,
    suggest_seeds,
    target_basis,
    trace_component,
    transport_closed_frame,
)
from numref import kernel_direction, least_squares, projection_transport
from test_framedlink import pontryagin_link


def quadric(x):
    return np.array([x[0] * x[0] + x[1] * x[1] - 1.0, x[2], x[3]])


def quadric_jac(x):
    return np.array(
        [[2 * x[0], 2 * x[1], 0, 0], [0, 0, 1.0, 0], [0, 0, 0, 1.0]]
    )


def quadric_spec():
    return MapSpec(quadric, dimension=4, jacobian=quadric_jac)


def quadric_twisted_spec():
    def f(x):
        base = quadric(x)
        rho = math.hypot(x[0], x[1])
        c, s = x[0] / rho, x[1] / rho
        return np.array([c * base[0] - s * base[1], s * base[0] + c * base[1], base[2]])

    return MapSpec(f, dimension=4)


def s5_splitting(x):
    return np.array([-x[1], x[0], -x[3], x[2], -x[5], x[4]])


def s5_section(x):
    return np.array([0.0, 0.0, -x[4], x[5], x[2], -x[3]])


def s5_spec():
    return SectionSpec(5, s5_splitting, s5_section)


SEED = np.array([1.1, 0.0, 0.05, -0.02])

# The two registered S^5 sections: section, analytic Jacobian, seed.
S5_SECTIONS = {
    "s5-vector-fields": (
        _s5_section,
        lambda x: _S5_SECTION_JAC,
        np.array([0.97, 0.12, 0.05, -0.04, 0.06, -0.02]),
    ),
    "s5-alt-section": (
        _s5_alt_section,
        _s5_alt_section_jac,
        np.array([0.05, -0.04, 0.97, 0.12, 0.04, -0.03]),
    ),
}


class TestTraceComponent:
    def test_circle_geometry_and_closure(self):
        with recording() as record:
            loop = trace_component(quadric_spec(), SEED, TraceOptions())
        radii = np.hypot(loop.points[:, 0], loop.points[:, 1])
        assert np.max(np.abs(radii - 1.0)) < 1e-8
        assert np.max(np.abs(loop.points[:, 2:])) < 1e-8
        [closure_error] = record["closure_errors"]
        assert closure_error < 1e-8
        assert record["max_residual"] < 10 * DEFAULT_TOL.newton_tol
        assert len(loop) >= 16

    def test_residuals_on_all_samples(self):
        loop = trace_component(quadric_spec(), SEED, TraceOptions())
        res = np.array([np.linalg.norm(quadric(p)) for p in loop.points])
        assert np.max(res) < 10 * DEFAULT_TOL.newton_tol

    def test_final_tangent_aligned(self):
        loop = trace_component(quadric_spec(), SEED, TraceOptions())
        assert float(loop.tangent(1.0 - 1e-6) @ loop.tangent(0.0)) > 0.99

    def test_walk_guard_keeps_consecutive_tangents_within_78_degrees(self):
        # a thin ellipse (semi-axes 1 and 0.2): at its ends the tangent turns
        # fast, and a step whose tangent turns by more than arccos 0.2 is
        # halved; with the guard at -0.5 instead, the walk keeps a pair at
        # 0.196
        def thin_ellipse(x):
            return np.array([x[0] ** 2 + (x[1] / 0.2) ** 2 - 1.0, x[2], x[3]])

        def jac(x):
            return np.array([[2.0 * x[0], 50.0 * x[1], 0, 0], [0, 0, 1.0, 0], [0, 0, 0, 1.0]])

        spec = MapSpec(thin_ellipse, dimension=4, jacobian=jac)
        loop = trace_component(spec, np.array([0.0, 0.204, 0.01, 0.0]), TraceOptions())
        T = loop.tangents
        assert np.min(np.einsum("kn,kn->k", T[:-1], T[1:])) >= 0.2

    def test_resample_stays_on_curve(self):
        loop = trace_component(quadric_spec(), SEED, TraceOptions())
        for t in (0.123, 0.5, 0.987):
            p = loop.point(t)
            assert np.linalg.norm(quadric(p)) < 10 * DEFAULT_TOL.newton_tol

    def test_far_seed_diverges(self):
        with pytest.raises(NoConvergence):
            trace_component(quadric_spec(), np.array([5.0, 5, 5, 5]), TraceOptions())

    def test_step_size_independence(self):
        opts_a = TraceOptions()
        opts_b = TraceOptions(initial_step=0.025, max_step=0.05)
        a = trace_component(quadric_spec(), SEED, opts_a)
        b = trace_component(quadric_spec(), SEED, opts_b)
        assert hausdorff_distance(a, b) < 1e-5


class TestInducedFraming:
    def test_closed_form_fields(self):
        # analytic minimum-norm solutions of J phi = e_i on the unit circle:
        # (x1, x2, 0, 0)/2, e3, e4
        loop = trace_component(quadric_spec(), SEED, TraceOptions())
        framing = induced_framing(quadric_spec(), loop)
        for k in range(0, len(loop), 7):
            x = loop.points[k]
            expected = [
                np.array([x[0] / 2, x[1] / 2, 0, 0]),
                np.array([0, 0, 1.0, 0]),
                np.array([0, 0, 0, 1.0]),
            ]
            for f, e in zip(framing.at_sample(k), expected):
                assert np.max(np.abs(f - e)) < 1e-8

    def test_quadric_index_zero(self):
        report = kappa_of_map(quadric_spec(), TraceOptions(seeds=[SEED]))
        assert int(report.kappa) == 0
        assert [c.index for c in report.components] == [0]

    def test_twisted_quadric_index_one(self):
        report = kappa_of_map(quadric_twisted_spec(), TraceOptions(seeds=[SEED]))
        assert int(report.kappa) == 1

    def test_resampled_rank_drop_names_the_parameter(self):
        # a stand-in unit circle in R^3, the preimage of 0 under
        # (x^2 + y^2 - 1, z), whose analytic Jacobian loses its first row at
        # the point of parameter 0.3 only, between samples
        def jacobian(p):
            J = np.array([[2.0 * p[0], 2.0 * p[1], 0.0], [0.0, 0.0, 1.0]])
            if np.array_equal(p, unit_circle(0.3)):
                J[0] = 0.0
            return J

        spec = MapSpec(lambda p: np.array([p[0] ** 2 + p[1] ** 2 - 1.0, p[2]]), 3, jacobian=jacobian)
        k = 32
        loop = SampledLoop(
            np.array([unit_circle(i / k) for i in range(k)]), unit_circle, [i / k for i in range(k)]
        )
        framing = induced_framing(spec, loop)
        assert framing.at(0.25).shape == (2, 3)
        message = r"^rank drop of the map derivative at parameter 0\.300000 along the curve: "
        with pytest.raises(Singular, match=message):
            framing.at(0.3)
        with pytest.raises(Singular, match=message):
            framing.resample(np.array([0.1, 0.3, 0.6]))

    def test_rotated_target_basis_same_index(self, rng):
        spec = quadric_spec()
        loop = trace_component(spec, SEED, TraceOptions())
        ambient = euclidean_ambient(4)
        Q = random_rotation(rng, 3)
        plain = induced_framing(spec, loop)
        rotated = induced_framing(spec, loop, basis=Q)
        want = index_of_circle(*_oriented(loop, plain, ambient), ambient)
        got = index_of_circle(*_oriented(loop, rotated, ambient), ambient)
        assert got == want


def hopf_spec(value: str = "default") -> MapSpec:
    from fbk.scenarios import _HOPF_VALUES, _suspended_hopf

    return MapSpec(
        _suspended_hopf,
        dimension=5,
        target="sphere",
        regular_value=_HOPF_VALUES[value]["x0"],
        domain="unit_sphere",
    )


def hopf_seed(value: str = "default") -> np.ndarray:
    from fbk.scenarios import _HOPF_VALUES

    return np.asarray(_HOPF_VALUES[value]["seed"], dtype=float)


def pointwise_fields(spec: MapSpec, points, basis=None) -> np.ndarray:
    """The induced fields solved one point and one field at a time, as (K, count, N)."""
    raw = spec.jacobian or (lambda q: jacobian_fd(spec.evaluator, q))
    B = target_basis(spec, spec.regular_value.size - 1) if spec.target == "sphere" else None
    out = []
    for p in points:
        J = np.asarray(raw(p), dtype=float)
        if B is not None:
            J = B @ J
        if spec.domain == "unit_sphere":
            J = J - np.outer(J @ p, p)
        if B is not None:
            rhs = (B if basis is None else basis) @ B.T
        else:
            rhs = np.eye(J.shape[0]) if basis is None else basis
        out.append([least_squares(J, b) for b in rhs])
    return np.array(out)


class TestBatchedPullBack:
    def test_fields_match_the_pointwise_solve(self, rng):
        quadric_loop = trace_component(quadric_spec(), SEED, TraceOptions())
        hopf_loop = trace_component(hopf_spec(), hopf_seed(), TraceOptions())
        B = target_basis(hopf_spec(), 3)
        cases = [
            ("quadric", quadric_spec(), quadric_loop, None),
            ("quadric-rotated", quadric_spec(), quadric_loop, random_rotation(rng, 3)),
            ("hopf", hopf_spec(), hopf_loop, None),
            ("hopf-rotated", hopf_spec(), hopf_loop, random_rotation(rng, 3) @ B),
        ]
        for name, spec, loop, basis in cases:
            framing = induced_framing(spec, loop, basis=basis)
            got = np.stack(framing.fields, axis=1)
            want = pointwise_fields(spec, loop.points, basis)
            assert np.max(np.abs(got - want)) < 1e-12, name
            at = np.array(framing.at(0.3))
            want_at = pointwise_fields(spec, [loop.point(0.3)], basis)[0]
            assert np.max(np.abs(at - want_at)) < 1e-12, name

    def test_rank_drop_names_its_sample(self):
        loop = trace_component(quadric_spec(), SEED, TraceOptions())
        bad = loop.points[11].copy()

        def jac(x):
            J = quadric_jac(x)
            if np.array_equal(x, bad):
                J[2] = J[1]
            return J

        with pytest.raises(Singular, match=r"at sample 11 "):
            induced_framing(MapSpec(quadric, dimension=4, jacobian=jac), loop)

    def test_non_finite_derivative_names_its_sample(self):
        loop = trace_component(quadric_spec(), SEED, TraceOptions())
        bad = loop.points[4].copy()

        def jac(x):
            J = quadric_jac(x)
            return J * np.nan if np.array_equal(x, bad) else J

        with pytest.raises(EvaluationFailure, match=r"at sample 4$"):
            induced_framing(MapSpec(quadric, dimension=4, jacobian=jac), loop)


class TestCarriedKernelTangents:
    def test_traced_loop_carries_exact_unit_tangents(self):
        loop = trace_component(quadric_spec(), SEED, TraceOptions())
        p = loop.points
        exact = np.zeros_like(p)
        exact[:, 0], exact[:, 1] = -p[:, 1], p[:, 0]
        exact *= np.sign(exact[0] @ loop.tangents[0])
        assert np.max(np.abs(loop.tangents - exact)) < 1e-9
        # oriented along the walk: every sample advances along its tangent
        steps = np.roll(p, -1, axis=0) - p
        assert np.all(np.einsum("kn,kn->k", steps, loop.tangents) > 0.0)

    def test_sample_frames_run_no_newton_solve(self):
        spec = quadric_spec()
        ambient = euclidean_ambient(4)
        loop = trace_component(spec, SEED, TraceOptions())
        loop, framing = _oriented(loop, induced_framing(spec, loop), ambient)
        with recording() as carried:
            frame_matrix_loop(loop, framing, ambient)
        assert carried.get("newton_calls", 0) == 0
        # without the carried tangents every sample costs two resamples
        bare = SampledLoop(loop.points, loop.resample, loop.params)
        with recording() as resampled:
            frame_matrix_loop(bare, framing, ambient)
        assert resampled["newton_calls"] == 2 * len(loop)
        # each resample factors the Jacobian at its start; near a sample the
        # chord contracts and takes its further steps without a refresh
        assert resampled["jacobian_evaluations"] == resampled["newton_calls"]
        assert resampled["newton_iterations"] > resampled["newton_calls"]

    def test_work_counters_of_a_trace_and_a_pull_back(self):
        spec = quadric_spec()
        with recording() as traced:
            loop = trace_component(spec, SEED, TraceOptions())
        assert traced["newton_calls"] >= len(loop)
        # one Jacobian per accepted point, its tangent's; the walk's chord
        # steps on the quadric never refresh, only the seed's and the
        # closing correction, which start without a factorization, add some
        assert len(loop) < traced["jacobian_evaluations"] <= len(loop) + 6
        assert traced["newton_iterations"] > traced["jacobian_evaluations"]
        # the pull-back takes the Jacobians the walk took at the samples
        with recording() as pulled:
            induced_framing(spec, loop)
        assert pulled == {}


def constant_system(J: np.ndarray) -> _TracedSystem:
    """A traced system whose Jacobian is J everywhere."""
    return _TracedSystem(None, lambda p: J, lambda p, raw: raw, J.shape[1], None)


class TestUnitSphereSystem:
    """The sphere equation joins a traced system as one last entry and row."""

    def test_residual_and_jacobian_match_their_concatenated_forms(self, rng):
        # a sphere target (the suspended Hopf map's 4 x 5 system) and an R^n
        # target (a section's 7 x 6 one): equal to np.concatenate and
        # np.vstack of the map's rows and the sphere's, bit for bit
        hopf, _ = REGISTRY["suspended-hopf"].traced(resolve_options(REGISTRY["suspended-hopf"], {}))
        for spec, shape in ((hopf, (4, 5)), (_section_map(s5_spec()), (7, 6))):
            system = _map_system(spec)
            for _ in range(20):
                p = rng.normal(size=spec.dimension)
                f = spec.evaluator(p)
                if system.basis is not None:
                    f = system.basis @ (f - spec.regular_value)
                raw = system.raw_jacobian(p)
                rows = raw if system.basis is None else system.basis @ raw
                r, J = system.residual(p), system.assemble(p, raw)
                assert np.array_equal(r, np.concatenate([f, [(p @ p - 1.0) / 2.0]]))
                assert np.array_equal(J, np.vstack([rows, p]))
                assert r.flags.c_contiguous and J.flags.c_contiguous
                assert J.shape == shape
        # a one-row map on S^2 whose Jacobian comes as a vector
        one_row = _map_system(
            MapSpec(lambda x: x[2:], 3, jacobian=lambda x: np.eye(3)[2], domain="unit_sphere")
        )
        p = rng.normal(size=3)
        J = one_row.assemble(p, one_row.raw_jacobian(p))
        assert np.array_equal(J, np.vstack([np.eye(3)[2], p]))


class TestJacobianShape:
    """A traced map's Jacobian is checked once, as (outputs, N), where it is evaluated."""

    @staticmethod
    def equator_report(jacobian):
        # the preimage of 0 under x -> x[2] on the unit sphere of R^3
        spec = MapSpec(lambda x: x[2:], 3, jacobian=jacobian, domain="unit_sphere")
        opts = TraceOptions(seeds=[np.array([1.0, 0.0, 0.0])])
        with recording() as record:
            report = kappa_of_map(spec, opts)
        return json.dumps(report.to_dict()), record

    def test_vector_jacobian_is_one_row(self):
        vector = self.equator_report(lambda x: np.array([0.0, 0.0, 1.0]))
        row = self.equator_report(lambda x: np.array([[0.0, 0.0, 1.0]]))
        assert vector == row
        assert json.loads(vector[0])["components"][0]["samples"] > 16

    @pytest.mark.parametrize("shape", [(2, 3), (3, 1), (4,), (1, 4)])
    def test_wrong_shape_is_an_evaluation_failure(self, shape):
        expected = re.escape(f"returned shape {shape} at a point of shape (3,); expected (1, 3)")
        with pytest.raises(EvaluationFailure, match=expected):
            self.equator_report(lambda x: np.ones(shape))
        # a two-output map takes no vector
        spec = MapSpec(lambda x: x[1:], 3, jacobian=lambda x: np.eye(3)[2])
        with pytest.raises(EvaluationFailure, match=re.escape("expected (2, 3)")):
            _map_system(spec).raw_jacobian(np.array([1.0, 0.0, 0.0]))


class TestFactoredJacobian:
    """One SVD per Jacobian gives the Newton step, the tangent and the rank."""

    def test_full_rank_step_and_tangent_match_the_references(self, rng):
        # singular values in [0.5, 2], so 1e-12 is far above the rounding
        for n in range(3, 9):
            for _ in range(40):
                s = rng.uniform(0.5, 2.0, n - 1)
                J = (random_rotation(rng, n - 1) * s) @ random_rotation(rng, n)[: n - 1]
                r = rng.normal(size=n - 1)
                factored = _factored(J)
                assert factored[3] == n - 1
                assert np.max(np.abs(-_descent(factored, r) - least_squares(J, -r))) < 1e-12
                previous = rng.normal(size=n)
                for prev in (None, previous):
                    t, raw, again = _tangent_of(constant_system(J), np.zeros(n), prev, DEFAULT_TOL)
                    assert raw is J and again[3] == n - 1
                    assert np.max(np.abs(t - kernel_direction(J, prev))) < 1e-12

    def test_rank_five_section_systems_cut_the_noise(self, rng):
        # 7 x 6 of rank 5, as a section's system, with a 1e-12 singular value
        # off the exact part: the step is the exact part's minimum-norm least
        # squares step and the tangent its kernel
        for _ in range(100):
            U, V = random_rotation(rng, 7), random_rotation(rng, 6)
            X = U[:, :5] * rng.uniform(0.5, 2.0, 5)
            J = X @ V[:5] + 1e-12 * np.outer(U[:, 5], V[5])
            r = rng.normal(size=7)
            factored = _factored(J)
            assert factored[3] == 5
            exact = least_squares(V[:5], np.linalg.solve(X.T @ X, X.T @ -r))
            assert np.max(np.abs(-_descent(factored, r) - exact)) < 1e-12
            t, _, _ = _tangent_of(constant_system(J), np.zeros(6), V[5], DEFAULT_TOL)
            assert np.max(np.abs(t - V[5])) < 1e-12

    def test_step_is_the_lstsq_step_it_replaced(self, rng):
        for _ in range(100):
            J = rng.normal(size=(7, 5)) @ rng.normal(size=(5, 6))
            J += 1e-12 * rng.normal(size=J.shape)
            r = rng.normal(size=7)
            want = np.linalg.lstsq(J, -r, rcond=1e-8)[0]
            assert np.max(np.abs(-_descent(_factored(J), r) - want)) < 1e-12

    def test_descent_is_the_rank_cut_product_bit_for_bit(self, rng):
        # the views _factored keeps give the bits of the product on the full
        # SVD, and subtracting the descent those of adding the Newton step:
        # full-rank systems of the walk's sizes (3 x 4 to 7 x 8), and 7 x 6
        # section systems of rank 5
        systems = []
        for _ in range(40):
            systems += [rng.normal(size=(n - 1, n)) for n in range(4, 9)]
            U, V = random_rotation(rng, 7), random_rotation(rng, 6)
            X = U[:, :5] * rng.uniform(0.5, 2.0, 5)
            systems.append(X @ V[:5] + 1e-12 * np.outer(U[:, 5], V[5]))
        for J in systems:
            U, S, Vt = np.linalg.svd(J)
            factored = _factored(J)
            rank = factored[3]
            assert rank == min(J.shape) - (J.shape == (7, 6))
            r, p = rng.normal(size=len(J)), rng.normal(size=J.shape[1])
            step = -(Vt[:rank].T @ ((U[:, :rank].T @ r) / S[:rank]))
            descent = _descent(factored, r)
            assert np.array_equal(-descent, step)
            assert np.array_equal(p - descent, p + step)
            assert math.sqrt(descent @ descent) == np.linalg.norm(step)

    def test_walk_through_a_rank_drop_is_singular(self):
        with pytest.raises(Singular, match="the Jacobian has rank 2, expected 3"):
            trace_component(rank_drop_spec(), SEED, TraceOptions())

    def test_walk_through_a_rank_drop_exits_4(self, capsys, monkeypatch):
        import fbk.cli as cli
        import fbk.scenarios as scenarios

        monkeypatch.setattr(scenarios, "_quadric_jac", rank_drop_spec().jacobian)
        code = cli.main(["scenario", "euclidean-quadric"])
        assert code == 4
        assert "error: Singular: rank drop along the curve" in capsys.readouterr().err

    def test_one_jacobian_per_accepted_point_and_per_refresh(self, monkeypatch):
        import fbk.tracer as tracer

        calls = []
        factored = []
        newton = tracer._newton

        def spy(*args, first=None, **kwargs):
            before = len(factored)
            with recording() as record:
                try:
                    return newton(*args, first=first, **kwargs)
                finally:
                    its = record.get("newton_iterations", 0)
                    calls.append((first is not None, its, len(factored) - before))

        tangents = []
        tangent_of = tracer._tangent_of

        def counted_tangent_of(*args):
            tangents.append(1)
            return tangent_of(*args)

        factor = tracer._factored

        def counted_factored(J):
            factored.append(1)
            return factor(J)

        monkeypatch.setattr(tracer, "_newton", spy)
        monkeypatch.setattr(tracer, "_tangent_of", counted_tangent_of)
        monkeypatch.setattr(tracer, "_factored", counted_factored)
        # walk refreshes per spec: the quadric's chord (an analytic Jacobian
        # of a map with one quadratic row) contracts by far more than
        # _CHORD_CONTRACTION, the twisted quadric's by about 0.1 a step
        for spec, walk_refreshes in ((quadric_spec(), 0), (quadric_twisted_spec(), 1)):
            calls.clear()
            tangents.clear()
            factored.clear()
            with recording() as record:
                loop = trace_component(spec, SEED, TraceOptions())
            # the seed's correction and the closing one evaluate their own
            # Jacobians; every walk correction holds the last accepted point's
            assert [given for given, _, _ in calls] == [False] + [True] * (len(calls) - 2) + [False]
            assert len(tangents) >= len(loop)
            # every Jacobian the trace evaluates is factored once: at a
            # tangent, at the start of an uncarried correction, at a refresh
            assert record["jacobian_evaluations"] == len(factored)
            assert len(factored) == len(tangents) + sum(evals for _, _, evals in calls)
            assert record["newton_iterations"] == sum(its for _, its, _ in calls)
            for given, its, evals in calls:
                # a refresh follows a step, so it never exceeds the steps after the first
                assert (0 if given else 1) <= evals <= (its - 1 if given else its)
            assert {evals for given, _, evals in calls if given} == {walk_refreshes}


def registry_specs():
    """(case, MapSpec, TraceOptions) of every traced registry scenario, a section as its map.

    The suspended Hopf map's other regular value joins the eight defaults.
    """
    cases = [(name, {}) for name, scenario in REGISTRY.items() if scenario.traced]
    for name, overrides in cases + [("suspended-hopf", {"regular_value": "alt"})]:
        scenario = REGISTRY[name]
        spec, opts = scenario.traced(resolve_options(scenario, overrides))
        if isinstance(spec, SectionSpec):
            spec = _section_map(spec)
        yield f"{name}{overrides or ''}", spec, opts


def registry_systems():
    """(case, traced system, TraceOptions) of every traced registry scenario."""
    for case, spec, opts in registry_specs():
        yield case, _map_system(spec), opts


def logged_quadric(jac=quadric_jac):
    """The quadric's traced system, logging ("r", |residual|) and ("J",) in call order."""
    log = []

    def residual(p):
        r = quadric(p)
        log.append(("r", float(np.linalg.norm(r))))
        return r

    def raw_jacobian(p):
        log.append(("J",))
        return jac(p)

    return _TracedSystem(residual, raw_jacobian, lambda p, raw: raw, 4, None), log


# The quadric's Jacobian at x0 = 2: as a chord near the circle x0 = 1 it
# contracts the quadratic row by about 1 - 2/4 = 0.5 a step.
FAR_CHORD = _factored(quadric_jac(np.array([2.0, 0.0, 0.0, 0.0])))
NEAR = np.array([1.1, 0.0, 0.05, -0.02])


def matmul_residual(spec: MapSpec, basis, p: np.ndarray) -> np.ndarray:
    """The traced residual at p with @ for every product: the reference for _map_system's."""
    f = np.asarray(spec.evaluator(p), dtype=float)
    if basis is not None:
        f = basis @ (f - spec.regular_value)
    if spec.domain == "unit_sphere":
        f = np.concatenate([f, [(p @ p - 1.0) / 2.0]])
    return f


def matmul_assembly(spec: MapSpec, basis, p: np.ndarray, raw: np.ndarray) -> np.ndarray:
    """The system Jacobian at p with @ for the projection: the reference for _map_system's."""
    rows = raw if basis is None else basis @ raw
    return np.vstack([rows, p]) if spec.domain == "unit_sphere" else rows


def matmul_transported(frame: np.ndarray, bases: np.ndarray):
    """tracer._transported with its chain taken by np.matmul: the reference for its .dot chain."""
    import fbk.tracer as tracer

    projectors = np.eye(frame.shape[1]) - bases.transpose(0, 2, 1) @ bases
    chain = np.empty((len(bases) + 1, *frame.shape))
    chain[0] = frame
    for i, projector in enumerate(projectors):
        np.matmul(chain[i], projector, out=chain[i + 1])
    Q, R, _, _ = tracer._qr(chain, 0.0)
    diag = np.abs(np.diagonal(R, axis1=1, axis2=2))
    dropped = (diag[1:] < tracer._TRANSPORT_TOL * diag[:-1]).any(axis=1)
    lost = int(np.argmax(dropped)) if dropped.any() else None
    return Q[1:].transpose(0, 2, 1), lost


def matmul_descent(J: np.ndarray, r: np.ndarray) -> np.ndarray:
    """_descent's step from the full SVD of J, its rank by np.count_nonzero, every product by @."""
    U, S, Vt = np.linalg.svd(J)
    rank = int(np.count_nonzero(S > _NEWTON_RCOND * S[0]))
    return Vt[:rank].T @ ((U[:, :rank].T @ r) / S[:rank])


class TestDotProductsKeepTheMatmulBits:
    """Every product the walk takes by ndarray.dot gives the bytes of its @ form."""

    def test_descent_on_the_factor_views_of_every_walk_size(self, rng):
        # full-rank (n - 1) x n systems from 3 x 4 (the quadrics) to 11 x 12,
        # and the 7 x 6 section systems of rank 5
        for _ in range(50):
            systems = [rng.normal(size=(n - 1, n)) for n in range(4, 13)]
            U, V = random_rotation(rng, 7), random_rotation(rng, 6)
            X = U[:, :5] * rng.uniform(0.5, 2.0, 5)
            systems.append(X @ V[:5] + 1e-12 * np.outer(U[:, 5], V[5]))
            for J in systems:
                r = rng.normal(size=len(J))
                assert _descent(_factored(J), r).tobytes() == matmul_descent(J, r).tobytes()

    def test_registry_residuals_assemblies_and_steps_at_the_traced_samples(self):
        for case, spec, opts in registry_specs():
            system = _map_system(spec)
            loop, _, _ = _trace(system, opts.seeds[0], opts)
            points = loop.points
            # the predictors of the walk: off the curve, so the residuals are not zero
            predictors = points + 0.05 * loop.tangents
            for p, q, raw in zip(points, predictors, loop._jacobians):
                for x in (p, q):
                    want = matmul_residual(spec, system.basis, x)
                    assert system.residual(x).tobytes() == want.tobytes(), case
                J = system.assemble(p, raw)
                assert J.tobytes() == matmul_assembly(spec, system.basis, p, raw).tobytes(), case
                r = system.residual(q)
                assert _descent(_factored(J), r).tobytes() == matmul_descent(J, r).tobytes(), case

    def test_transport_chains_of_the_traced_and_untraced_loops(self, monkeypatch):
        import fbk.tracer as tracer

        chains = []
        transported = tracer._transported

        def spy(frames, bases):
            chains.append((frames.copy(), bases.copy()))
            return transported(frames, bases)

        monkeypatch.setattr(tracer, "_transported", spy)
        for loop, normals in TestStackedTransport().cases():
            transport_closed_frame(loop, normals)
        assert len(chains) >= 8
        # the chains of a stack of frames, each as the one chain of its frame
        for frames, bases in chains:
            got, dropped = transported(frames, bases)
            for k, (frame, chain_bases) in enumerate(zip(frames, bases)):
                want, want_lost = matmul_transported(frame, chain_bases)
                assert got[k].tobytes() == want.tobytes()
                assert (int(np.argmax(dropped[k])) if dropped[k].any() else None) == want_lost


class TestChordCorrector:
    """_newton holds one factorization while its steps contract by _CHORD_CONTRACTION."""

    @pytest.mark.parametrize("first", [None, FAR_CHORD], ids=["uncarried", "carried"])
    def test_refreshes_exactly_after_a_step_that_contracts_too_little(self, first):
        system, log = logged_quadric()
        _, rn = _newton(system, NEAR, DEFAULT_TOL, first=first)
        assert rn < DEFAULT_TOL.newton_tol
        norms = [entry[1] for entry in log if entry[0] == "r"]
        # whether a Jacobian was evaluated right after each residual
        refreshed = [log[i + 1 : i + 2] == [("J",)] for i, e in enumerate(log) if e[0] == "r"]
        assert refreshed[0] == (first is None)
        for k in range(1, len(norms)):
            converged = norms[k] < DEFAULT_TOL.newton_tol
            slow = norms[k] > _CHORD_CONTRACTION * norms[k - 1]
            assert refreshed[k] == (slow and not converged), k
        # both branches of the rule are taken
        assert any(refreshed[1:]) and not all(refreshed[1:-1])

    def test_a_slow_chord_refreshes_and_converges(self):
        with recording() as record:
            p, rn = _newton(_map_system(quadric_spec()), NEAR, DEFAULT_TOL, first=FAR_CHORD)
        assert rn < DEFAULT_TOL.newton_tol
        assert np.max(np.abs(quadric(p))) < DEFAULT_TOL.newton_tol
        # held, that chord would need about 30 steps; refreshed once after
        # its first step, the correction ends within the cap of 12 and 2 to spare
        assert record["jacobian_evaluations"] == 1
        assert record["newton_iterations"] <= 12 - 2

    def test_registry_corrections_keep_two_iterations_to_spare(self, monkeypatch):
        import inspect

        import fbk.tracer as tracer

        newton = tracer._newton
        default_cap = inspect.signature(newton).parameters["max_iter"].default
        spare = []

        def spy(*args, **kwargs):
            with recording() as record:
                out = newton(*args, **kwargs)
            spare.append(kwargs.get("max_iter", default_cap) - record["newton_iterations"])
            return out

        monkeypatch.setattr(tracer, "_newton", spy)
        for case, system, opts in registry_systems():
            spare.clear()
            loop, _, _ = _trace(system, opts.seeds[0], opts)
            assert len(spare) > len(loop), case
            assert min(spare) >= 2, case

    def test_every_traced_sample_is_below_newton_tol(self):
        for case, system, opts in registry_systems():
            loop, _, max_residual = _trace(system, opts.seeds[0], opts)
            norms = [np.linalg.norm(system.residual(p)) for p in loop.points]
            assert max(norms) < opts.tolerances.newton_tol, case
            assert max_residual < opts.tolerances.newton_tol, case

    def test_non_finite_jacobian_at_a_refresh_is_an_evaluation_failure(self):
        system, log = logged_quadric(lambda x: np.full((3, 4), np.nan))
        with pytest.raises(EvaluationFailure, match="non-finite Jacobian during correction"):
            _newton(system, NEAR, DEFAULT_TOL, first=FAR_CHORD)
        # the carried chord took the first step, the refresh came after it
        assert [e[0] for e in log] == ["r", "r", "J"]

    @pytest.mark.parametrize("carried", [False, True])
    def test_seed_beyond_max_move_is_no_convergence(self, carried):
        far = np.array([1.6, 0.0, 0.0, 0.0])
        first = _factored(quadric_jac(far)) if carried else None
        with pytest.raises(NoConvergence, match="wandered too far"):
            _newton(_map_system(quadric_spec()), far, DEFAULT_TOL, max_move=0.4, first=first)
        # the trace's seed correction caps the move at 0.4 for the default steps
        with pytest.raises(NoConvergence, match="wandered too far"):
            trace_component(quadric_spec(), far, TraceOptions())


def rank_drop_spec() -> MapSpec:
    """The quadric with its x3 row zeroed for x0 < 0: the circle's Jacobian drops rank there."""

    def jac(x):
        J = quadric_jac(x)
        if x[0] < 0.0:
            J[2] = 0.0
        return J

    return MapSpec(quadric, dimension=4, jacobian=jac)


def traced_circles():
    """The traced quadric circle and both traced S^5 zero circles, with their manifold normals."""
    yield trace_component(quadric_spec(), SEED, TraceOptions()), []
    for section, jac, seed in S5_SECTIONS.values():
        spec = SectionSpec(5, _s5_splitting, section, jacobian=jac)
        (loop,) = section_zero_loops(spec, TraceOptions(seeds=[seed]))
        yield loop, sphere_ambient(6).manifold_normals


class TestOneTangentOnAndBetweenSamples:
    def test_resampled_tangent_and_transported_frame_at_the_sample_params(self):
        for loop, normals in traced_circles():
            framing = transport_closed_frame(loop, normals)
            for k, t in enumerate(loop.params):
                assert np.max(np.abs(loop.tangent(t) - loop.tangent_at_sample(k))) <= 1e-12
                assert np.max(np.abs(framing.at(t) - framing.at_sample(k))) <= 1e-12

    def test_between_samples_the_tangent_is_the_kernel(self):
        loop = trace_component(quadric_spec(), SEED, TraceOptions())
        for t in np.linspace(0.0, 1.0, 37, endpoint=False):
            p, tangent = loop.point(t), loop.tangent(t)
            exact = np.array([-p[1], p[0], 0.0, 0.0]) / math.hypot(p[0], p[1])
            assert np.max(np.abs(tangent - exact)) < 1e-9

    def test_copies_carry_the_tangent_resampler(self, rng):
        loop = trace_component(quadric_spec(), SEED, TraceOptions())
        copies = [
            loop.cycled(5),
            loop.reversed(),
            loop.transformed(random_rotation(rng, 4)),
            loop.translated(rng.normal(size=4)),
            loop.reversed().cycled(-3),
        ]
        for copy in copies:
            assert copy.resample_tangent is not None
            for k in range(0, len(copy), 7):
                gap = copy.tangent(copy.params[k]) - copy.tangent_at_sample(k)
                assert np.max(np.abs(gap)) < 1e-12
        with_samples = loop.with_samples(40)
        assert with_samples.tangents is None
        assert with_samples.resample_tangent is loop.resample_tangent

    def test_refiner_resamples_the_curve_once(self):
        spec = quadric_spec()
        ambient = euclidean_ambient(4)
        loop = trace_component(spec, SEED, TraceOptions())
        loop, framing = _oriented(loop, induced_framing(spec, loop), ambient)
        refiner = frame_matrix_loop(loop, framing, ambient).refiner
        for t in (0.013, 0.5, 0.77):
            with recording() as record:
                refiner(t)
            # the point once, its correction factoring one Jacobian at its
            # start and taking every further chord step from it; the tangent
            # and the pulled-back fields share one Jacobian at that point
            assert record["newton_calls"] == 1
            assert record["newton_iterations"] >= 2
            assert record["jacobian_evaluations"] == 1 + 1
        # a stack of params, as the lift refines a level: the same work per param
        with recording() as record:
            refiner(np.array([0.013, 0.5, 0.77]))
        assert record["newton_calls"] == 3
        assert record["jacobian_evaluations"] == 3 * (1 + 1)
        assert record["frames_assembled"] == 3


def uncarried(loop: SampledLoop) -> SampledLoop:
    """loop as a plain SampledLoop: the same samples, tangents and resamplers, no Jacobians."""
    return SampledLoop(
        loop.points, loop.resample, loop.params, loop.tangents, loop.resample_tangent
    )


class TestCarriedJacobians:
    PARAMS = np.array([0.013, 0.5, 0.77])

    @pytest.mark.parametrize("make_spec", [quadric_spec, quadric_twisted_spec])
    def test_each_sample_jacobian_is_evaluated_once(self, make_spec):
        spec = make_spec()
        opts = TraceOptions(seeds=[SEED])
        with recording() as separate:
            loop = trace_component(spec, SEED, opts)
            framing = induced_framing(spec, loop)
        with recording() as carried:
            report = kappa_of_map(spec, opts)
        assert carried["jacobian_evaluations"] == separate["jacobian_evaluations"]
        for key in ("newton_calls", "newton_iterations"):
            assert carried[key] == separate[key]

        # the same loop without its Jacobians: the pull-back evaluates its own
        # at the samples, and the report is the same
        with recording() as evaluated:
            again = induced_framing(spec, uncarried(loop))
        assert evaluated == {"jacobian_evaluations": len(loop)}
        ambient = euclidean_ambient(4)
        own = invariant_report(FramedLink([_oriented(loop, framing, ambient)], ambient))
        copy = invariant_report(FramedLink([_oriented(loop, again, ambient)], ambient))
        assert np.array_equal(framing.fields, again.fields)
        assert json.dumps(own.to_dict()) == json.dumps(copy.to_dict())
        assert [c.index for c in own.components] == [c.index for c in report.components]

    @pytest.mark.parametrize("name", ["euclidean-quadric-twisted", "suspended-hopf"])
    def test_carried_fields_equal_evaluated_ones(self, name):
        # at the samples and at a stack of params, the pull-back through the
        # Jacobians a traced loop carries is bit for bit the pull-back of a
        # copy that evaluates its own at the same points
        spec, opts = REGISTRY[name].traced(resolve_options(REGISTRY[name], {}))
        loop = trace_component(spec, opts.seeds[0], opts)
        copy = uncarried(loop)
        carried, evaluated = induced_framing(spec, loop), induced_framing(spec, copy)
        assert np.array_equal(carried.fields, evaluated.fields)
        # the copy shares the loop's resampler and its cache: with the points
        # corrected first, the record holds the pull-back's Jacobians alone
        copy._points_at(self.PARAMS)
        with recording() as record:
            at_params = evaluated._fields_at(self.PARAMS)
        assert record == {"jacobian_evaluations": len(self.PARAMS)}
        assert np.array_equal(carried._fields_at(self.PARAMS), at_params)

    def test_one_correction_and_one_jacobian_per_param(self):
        loop = trace_component(quadric_spec(), SEED, TraceOptions())
        # a points-only resample: one correction each, which factors the
        # Jacobian at its start and nothing more
        with recording() as points_only:
            points = loop._points_at(self.PARAMS)
        assert points_only["newton_calls"] == points_only["jacobian_evaluations"] == 3
        # the tangents take one Jacobian a point, and the carried Jacobians are those
        with recording() as record:
            tangents = loop._tangents_at(self.PARAMS)
            jacobians = loop._jacobians_at(self.PARAMS)
            assert np.array_equal(loop._points_at(self.PARAMS), points)
        assert record == {"jacobian_evaluations": 3}
        assert np.array_equal(jacobians, np.array([quadric_jac(p) for p in points]))
        with recording() as record:
            # asked for first, the Jacobians take the tangents with them
            jacobians_first = loop._jacobians_at(self.PARAMS + 0.1)
            tangents_after = loop._tangents_at(self.PARAMS + 0.1)
        assert record["newton_calls"] == 3
        assert record["jacobian_evaluations"] == 3 + 3
        assert jacobians_first.shape == (3, 3, 4) and tangents_after.shape == tangents.shape

    @pytest.mark.parametrize("analytic", [True, False], ids=["analytic", "fd"])
    @pytest.mark.parametrize("name", sorted(S5_SECTIONS))
    def test_section_refiners_take_two_jacobians_per_term_and_param(self, name, analytic):
        # term 1 [position, tangent, aux] and term 2 [position, v, dw(aux)]:
        # the correction's one Jacobian and one that the tangent, the
        # transported frame and dw share
        import fbk.tracer as tracer

        section, jac, seed = S5_SECTIONS[name]
        spec = SectionSpec(5, _s5_splitting, section, jacobian=jac if analytic else None)
        traced = _section_map(spec)
        [loop] = tracer._traced_components(traced, TraceOptions(seeds=[seed]))
        ambient = sphere_ambient(6)
        system = _map_system(traced)
        parts = tracer._section_parts(spec, system, loop, ambient, DEFAULT_TOL, 1)
        for shift, part in zip((0.0, 0.1), parts):
            rl = frame_matrix_loop(part.loop, part.framing, ambient, middle=part.middle)
            with recording() as record:
                rl.refiner(self.PARAMS + shift)
            assert record["newton_calls"] == len(self.PARAMS)
            assert record["jacobian_evaluations"] == 2 * len(self.PARAMS)
            assert record["frames_assembled"] == len(self.PARAMS)

    def test_hausdorff_probes_resample_points_only(self):
        a = trace_component(quadric_spec(), SEED, TraceOptions())
        b = trace_component(quadric_spec(), SEED, TraceOptions(initial_step=0.025, max_step=0.05))
        with recording() as record:
            hausdorff_distance(a, b)
        # each probe is one correction, factoring at most one Jacobian, at
        # its start (none where the start is already on the curve)
        assert 0 < record["jacobian_evaluations"] <= record["newton_calls"]


def probe_spec() -> MapSpec:
    """The unit circle in the (0, 1) plane of R^3, with a Jacobian that is NaN for x > 0.95."""

    def f(x):
        return np.array([x[0] ** 2 + x[1] ** 2 - 1.0, x[2]])

    def jac(x):
        J = np.array([[2.0 * x[0], 2.0 * x[1], 0.0], [0.0, 0.0, 1.0]])
        return J * np.nan if x[0] > 0.95 else J

    return MapSpec(f, dimension=3, jacobian=jac)


class TestNonFiniteJacobian:
    @pytest.mark.parametrize("seed", [(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)])
    def test_probe_is_a_typed_failure_without_lapack_output(self, seed, capfd):
        # seed (1, 0, 0) sits in the NaN region; from (-1, 0, 0) the walk runs into it
        with pytest.raises(EvaluationFailure, match="non-finite Jacobian"):
            kappa_of_map(probe_spec(), TraceOptions(seeds=[np.array(seed)]))
        out, err = capfd.readouterr()
        assert out == ""
        assert "DLASCL" not in err

    def test_newton_refuses_a_non_finite_jacobian(self):
        spec = MapSpec(quadric, dimension=4, jacobian=lambda x: np.full((3, 4), np.nan))
        with pytest.raises(EvaluationFailure, match="non-finite Jacobian"):
            _newton(_map_system(spec), SEED, DEFAULT_TOL)


CIRCLE_START = np.array([1.0, 0.0, 0.0, 0.0])
NAN_SEED = np.array([-1.0, 0.0, 0.0, 0.0])


def nan_quadric_spec(cut: float, analytic: bool = True) -> MapSpec:
    """The quadric, whose first value is NaN where x0 < cut.

    Its Jacobian is the exact one, or central differences when analytic is False.
    """

    def f(x):
        r = quadric(x)
        if x[0] < cut:
            r[0] = np.nan
        return r

    return MapSpec(f, dimension=4, jacobian=quadric_jac if analytic else None)


class TestNonFiniteMapValues:
    """A map that returns NaN on or near its preimage is an EvaluationFailure, not an empty one."""

    def test_a_curve_into_nan_values_fails_typed(self):
        # the unit circle from (1, 0, 0, 0) runs into x0 < -0.5
        with recording() as record:
            with pytest.raises(
                EvaluationFailure,
                match="corrector kept failing at the minimum step size: non-finite map value",
            ):
                kappa_of_map(nan_quadric_spec(-0.5), TraceOptions(seeds=[CIRCLE_START]))
        assert "seeds_skipped" not in record

    def test_nan_values_off_the_curve_leave_the_report_alone(self):
        report = kappa_of_map(nan_quadric_spec(-1.5), TraceOptions(seeds=[CIRCLE_START]))
        assert len(report.components) == 1
        assert int(report.kappa) == 0
        assert report.diagnostics["seeds_skipped"] == 0

    def test_a_seed_in_the_nan_region_of_a_finite_difference_map(self):
        with pytest.raises(EvaluationFailure):
            kappa_of_map(nan_quadric_spec(-0.5, analytic=False), TraceOptions(seeds=[NAN_SEED]))

    def test_the_residual_after_the_last_iteration_is_checked(self):
        system = _map_system(nan_quadric_spec(-0.5))
        with pytest.raises(EvaluationFailure, match=r"at \[-1.0, 0.0, 0.0, 0.0\]"):
            _newton(system, NAN_SEED, DEFAULT_TOL, max_iter=0)


def raising_quadric_spec(
    raising: str, error: type = ArithmeticError, analytic: bool = True
) -> MapSpec:
    """The quadric, whose Jacobian or evaluator (raising) raises error where x0 < -0.5.

    A raising evaluator comes with the exact Jacobian, or with central
    differences when analytic is False.
    """

    def refuse(fn):
        def refusing(x):
            if x[0] < -0.5:
                raise error("not defined here")
            return fn(x)

        return refusing

    if raising == "jacobian":
        return MapSpec(quadric, dimension=4, jacobian=refuse(quadric_jac))
    return MapSpec(refuse(quadric), dimension=4, jacobian=quadric_jac if analytic else None)


def causes(exc: BaseException):
    """exc and the chain of exceptions it was raised from."""
    while exc is not None:
        yield exc
        exc = exc.__cause__


class TestRaisingCallbacks:
    """An analytic Jacobian or a row probe that raises is an EvaluationFailure naming the point."""

    def test_mid_walk(self):
        with pytest.raises(EvaluationFailure, match="map Jacobian failed at") as info:
            kappa_of_map(raising_quadric_spec("jacobian"), TraceOptions(seeds=[CIRCLE_START]))
        assert any(isinstance(e, ArithmeticError) for e in causes(info.value))

    def test_at_the_seed_check(self):
        with recording() as record:
            with pytest.raises(
                EvaluationFailure, match=re.escape("map Jacobian failed at [-1.0, 0.0, 0.0, 0.0]")
            ) as info:
                kappa_of_map(raising_quadric_spec("jacobian"), TraceOptions(seeds=[NAN_SEED]))
        assert isinstance(info.value.__cause__, ArithmeticError)
        assert record == {"jacobian_checks": 1}

    def test_in_the_row_probe(self):
        # the first analytic Jacobian, the seed's check, also evaluates the map for its rows
        with pytest.raises(
            EvaluationFailure, match=re.escape("map evaluation failed at [-1.0, 0.0, 0.0, 0.0]")
        ) as info:
            kappa_of_map(raising_quadric_spec("evaluator"), TraceOptions(seeds=[NAN_SEED]))
        assert isinstance(info.value.__cause__, ArithmeticError)


class TestRaisingMapInTheCorrector:
    """A map that raises in a correction: fbk's own errors go through, any other names the point."""

    @pytest.mark.parametrize("analytic", [True, False])
    def test_an_arithmetic_error_mid_walk_names_the_point(self, analytic):
        spec = raising_quadric_spec("evaluator", ArithmeticError, analytic)
        with pytest.raises(
            EvaluationFailure,
            match="corrector kept failing at the minimum step size: "
            "map evaluation failed during correction at ",
        ) as info:
            kappa_of_map(spec, TraceOptions(seeds=[CIRCLE_START]))
        point = json.loads(str(info.value).rsplit(" at ", 1)[1])
        assert len(point) == 4 and point[0] < -0.5
        assert any(isinstance(e, ArithmeticError) for e in causes(info.value))

    @pytest.mark.parametrize("analytic", [True, False])
    def test_a_validation_error_mid_walk_goes_through(self, analytic):
        spec = raising_quadric_spec("evaluator", ValidationError, analytic)
        with pytest.raises(ValidationError, match="^not defined here$"):
            kappa_of_map(spec, TraceOptions(seeds=[CIRCLE_START]))

    def test_the_corrector_names_its_start(self):
        system = _map_system(raising_quadric_spec("evaluator"))
        with pytest.raises(
            EvaluationFailure,
            match=re.escape("map evaluation failed during correction at [-1.0, 0.0, 0.0, 0.0]"),
        ) as info:
            _newton(system, NAN_SEED, DEFAULT_TOL)
        assert isinstance(info.value.__cause__, ArithmeticError)
        system = _map_system(raising_quadric_spec("evaluator", ValidationError))
        with pytest.raises(ValidationError, match="^not defined here$"):
            _newton(system, NAN_SEED, DEFAULT_TOL)


class TestSeedJacobianCheck:
    """An analytic Jacobian is compared with central differences once per seed."""

    @staticmethod
    def offset_spec(delta):
        """The quadric with entry (1, 2) of its Jacobian off by delta."""

        def jac(x):
            J = quadric_jac(x)
            J[1, 2] += delta
            return J

        return MapSpec(quadric, dimension=4, jacobian=jac)

    def test_the_check_is_noted_apart_from_the_walk(self):
        with recording() as checked:
            loop = trace_component(quadric_spec(), SEED, TraceOptions())
        assert checked["jacobian_checks"] == 1
        assert len(loop) < checked["jacobian_evaluations"] <= len(loop) + 6
        # central differences are what the check compares with: nothing to check
        with recording() as fd:
            trace_component(quadric_twisted_spec(), SEED, TraceOptions())
        assert "jacobian_checks" not in fd

    def test_the_bound_is_relative_to_the_largest_entry(self):
        # at the seed the largest entry is 2 x0 = 2.2
        bound = _JACOBIAN_CHECK_TOL * (1.0 + 2.2)
        trace_component(self.offset_spec(0.5 * bound), SEED, TraceOptions())
        with pytest.raises(EvaluationFailure, match=re.escape("entry (1, 2) is 1.0000064")):
            trace_component(self.offset_spec(2.0 * bound), SEED, TraceOptions())

    def test_the_check_comes_before_the_first_correction(self):
        # a seed too far to correct is skipped, unless its Jacobian is wrong
        far = np.array([1.6, 0.0, 0.0, 0.0])
        with pytest.raises(NoConvergence):
            trace_component(quadric_spec(), far, TraceOptions())
        with recording() as record:
            with pytest.raises(EvaluationFailure, match=r"at the seed \[1.6, 0.0, 0.0, 0.0\]"):
                kappa_of_map(self.offset_spec(1.0), TraceOptions(seeds=[far]))
        assert record == {"jacobian_checks": 1}

    def test_the_seed_dimension_is_checked_first(self):
        with recording() as record:
            with pytest.raises(ValueError, match="seed has dimension 3, expected 4"):
                trace_component(self.offset_spec(1.0), SEED[:3], TraceOptions())
        assert record == {}

    def test_a_section_jacobian_is_checked(self):
        section, jac, seed = S5_SECTIONS["s5-alt-section"]
        spec = SectionSpec(5, _s5_splitting, section, jacobian=lambda x: -jac(x))
        with pytest.raises(EvaluationFailure, match="disagrees with central differences"):
            section_index(spec, TraceOptions(seeds=[seed]))


class TestSphereRegularValue:
    @pytest.mark.parametrize(
        "value", [np.zeros(4), np.array([math.nan, 1.0, 0.0, 0.0]), np.array([math.inf, 0, 0, 0])]
    )
    def test_zero_or_non_finite_value_is_refused(self, value):
        with pytest.raises(ValueError, match="regular value must be nonzero and finite"):
            dataclasses.replace(hopf_spec(), regular_value=value)

    @pytest.mark.parametrize("analytic", [True, False], ids=["analytic", "fd"])
    def test_a_value_of_the_wrong_length_is_named(self, analytic):
        from fbk.scenarios import _suspended_hopf_jac

        spec = dataclasses.replace(
            hopf_spec(),
            regular_value=np.array([0.0, 1.0, 0.0]),
            jacobian=_suspended_hopf_jac if analytic else None,
        )
        expected = "map values have length 4, the regular value 3"
        with pytest.raises(EvaluationFailure, match=expected):
            kappa_of_map(spec, TraceOptions(seeds=[hopf_seed()]))


def _traced_report(name: str, extra_seed):
    """The report on a traced registry scenario, its seeds followed by extra_seed."""
    scenario = REGISTRY[name]

    def traced(options):
        spec, opts = scenario.traced(options)
        opts.seeds.append(np.array(extra_seed, dtype=float))
        return spec, opts

    return dataclasses.replace(scenario, traced=traced).run(resolve_options(scenario, {}))


def two_circles(x):
    """A map R^4 -> R^3 whose zeros are two unit circles in the x0-x1 plane, centred 4 apart."""
    a = x[0] ** 2 + x[1] ** 2 - 1.0
    b = (x[0] - 4.0) ** 2 + x[1] ** 2 - 1.0
    return np.array([a * b, x[2], x[3]])


class TestSeedPath:
    # a map and a section trace their seeds through one loop; per scenario, a
    # second seed on its traced circle and a seed too far from any circle
    SEEDS = {
        "euclidean-quadric": ([0.0, 1.05, -0.03, 0.04], [0.0, 0.0, 0.7, 0.7]),
        "s5-vector-fields": (
            [0.12, 0.97, -0.04, 0.05, -0.02, 0.06],
            [0.0, 0.0, 0.7, 0.7, 0.1, 0.1],
        ),
    }

    @pytest.mark.parametrize("name", sorted(SEEDS))
    def test_duplicate_seeds_detected(self, name):
        with pytest.raises(DuplicateComponent, match="seeds 0 and 1 traced the same component"):
            _traced_report(name, self.SEEDS[name][0])

    def test_separate_circles_are_told_apart_by_one_point(self):
        # two traced components of one preimage are equal or disjoint, so
        # the duplicate check measures one point of the second circle
        # against the first: one golden-section search, 2 + 36 corrections
        spec = MapSpec(two_circles, dimension=4)
        seeds = [np.array([1.0, 0.0, 0.0, 0.0]), np.array([5.0, 0.0, 0.0, 0.0])]
        with recording() as traces:
            for seed in seeds:
                trace_component(spec, seed, TraceOptions())
        with recording() as record:
            report = kappa_of_map(spec, TraceOptions(seeds=seeds))
        assert [c.index for c in report.components] == [0, 0]
        assert traces["newton_calls"] == 128
        assert record["newton_calls"] == 128 + 38

    @pytest.mark.parametrize("name", sorted(SEEDS))
    def test_far_seed_is_skipped(self, name):
        report = _traced_report(name, self.SEEDS[name][1])
        assert report.diagnostics["seeds_skipped"] == 1
        assert len(report.diagnostics["closure_errors"]) == 1
        alone = REGISTRY[name].run(resolve_options(REGISTRY[name], {}))
        assert int(report.kappa) == int(alone.kappa)
        assert [c.index for c in report.components] == [c.index for c in alone.components]


class TestKappaOfMap:
    def test_empty_preimage(self):
        spec = MapSpec(
            lambda x: np.array([x[0] ** 2 + x[1] ** 2 + 1.0, x[2], x[3]]), dimension=4
        )
        report = kappa_of_map(spec, TraceOptions(seeds=[SEED, np.array([0.0, 1.0, 0.0, 0.0])]))
        assert int(report.kappa) == 0
        assert report.components == []
        assert report.diagnostics["seeds_skipped"] == 2

    def test_report_counts_match(self):
        report = kappa_of_map(quadric_spec(), TraceOptions(seeds=[SEED]))
        assert int(report.nonzero_count_mod2) == int(report.kappa)
        assert report.diagnostics["max_residual"] < 10 * DEFAULT_TOL.newton_tol
        assert all(e < DEFAULT_TOL.closure_tol for e in report.diagnostics["closure_errors"])

    def test_antipodal_seed_is_skipped_without_trace_diagnostics(self):
        from fbk.scenarios import _HOPF_VALUES, _suspended_hopf

        data = _HOPF_VALUES["default"]
        spec = MapSpec(
            _suspended_hopf,
            dimension=5,
            target="sphere",
            regular_value=data["x0"],
            domain="unit_sphere",
        )
        # y = j sends i to j i conj(j) = -i, so this seed lies near the
        # preimage of the antipodal value, which the tracer closes as well
        antipodal = np.array([0.02, 0.05, 0.12, 0.99, -0.07])
        with recording() as record:
            with pytest.raises(NoConvergence, match="antipodal"):
                trace_component(spec, antipodal, TraceOptions())
        # only the work counters, no trace diagnostics
        assert set(record) == {"newton_calls", "newton_iterations", "jacobian_evaluations"}
        opts = TraceOptions(seeds=[data["seed"], antipodal])
        with recording() as outer:
            report = kappa_of_map(spec, opts)
        assert len(report.components) == 1
        assert report.diagnostics["seeds_skipped"] == 1
        assert len(report.diagnostics["closure_errors"]) == 1
        for key in ("closure_errors", "max_residual", "seeds_skipped", "refinement_depth"):
            assert outer[key] == report.diagnostics[key], key


class TestTransportClosedFrame:
    def test_constant_frame_on_plane_circle(self):
        def point(t):
            a = 2 * math.pi * (t % 1.0)
            p = np.zeros(6)
            p[0], p[1] = math.cos(a), math.sin(a)
            return p

        k = 64
        loop = SampledLoop(
            np.array([point(i / k) for i in range(k)]), point, [i / k for i in range(k)]
        )
        radial = lambda p: p / np.linalg.norm(p)  # noqa: E731
        framing = transport_closed_frame(loop, [radial])
        assert framing.count == 4
        # normal space is constant span(e3..e6): transport stays put and the
        # holonomy is trivial
        for i, coord in enumerate((2, 3, 4, 5)):
            e = np.zeros(6)
            e[coord] = 1.0
            assert np.max(np.abs(framing.fields[i] - e)) < 1e-9

    def test_frame_is_orthonormal_and_normal(self):
        loop = trace_component(quadric_spec(), SEED, TraceOptions())
        framing = transport_closed_frame(loop, [])
        for k in range(0, len(loop), 5):
            vs = framing.at_sample(k)
            t = loop.tangent_at_sample(k)
            G = np.array([[a @ b for b in vs] for a in vs])
            assert np.max(np.abs(G - np.eye(3))) < 1e-9
            assert max(abs(v @ t) for v in vs) < 1e-6

    @staticmethod
    def collapsing_loop() -> SampledLoop:
        # consecutive sample tangents made exactly perpendicular: the normal
        # planes share only a line, so transporting a full frame must fail.
        # Samples 7 to 10 are 0.1 apart, and between equal steps the
        # three-point tangent at p(k) is the direction of p(k+1) - p(k-1).
        pts = [np.array([0.1 * i, 0.0, 0.0]) for i in range(9)]
        pts.append(pts[-1] + np.array([0.0, 0.1, 0.0]))  # tangent 8 along p9 - p7 = (0.1, 0.1, 0)
        pts.append(pts[8] + np.array([-0.1, 0.1, 0.0]))  # tangent 9 along p10 - p8 = (-0.1, 0.1, 0)
        # wander back to close the polygon with distinct points
        for i in range(7):
            pts.append(pts[-1] + np.array([-0.12, 0.01 * (i + 1), 0.0]))
        return SampledLoop(np.array(pts))

    def test_collapsing_normal_space(self):
        loop = self.collapsing_loop()
        # the tangents at samples 8 and 9 are perpendicular: the projection
        # at sample 9 is the first to lose a dimension
        with pytest.raises(RankDeficient, match=r"at sample 9$") as info:
            transport_closed_frame(loop, [])
        assert info.value.index == 9

    @staticmethod
    def turned_circle(eps: float) -> SampledLoop:
        """The unit circle in R^3 on 32 samples, tangent 9 within eps of sample 8's normal plane.

        Tangent 9 is turned onto sample 8's outward radius and keeps a
        component eps along tangent 8.
        """
        points = np.array([unit_circle(i / 32) for i in range(32)])
        tangents = np.stack([-points[:, 1], points[:, 0], points[:, 2]], axis=1)
        tangents[9] = eps * tangents[8] + math.sqrt(1.0 - eps * eps) * points[8]
        return SampledLoop(points, tangents=tangents)

    def test_turned_tangent_loses_a_dimension_below_the_transport_tolerance(self):
        # sample 8's frame spans the radius there, which the projection onto
        # sample 9's normal plane keeps a fraction 1e-10 of: below
        # _TRANSPORT_TOL, so the frame lost a dimension at sample 9
        message = r"^normal space of the curve lost a dimension at sample 9$"
        with pytest.raises(RankDeficient, match=message) as info:
            transport_closed_frame(self.turned_circle(1e-10), [])
        assert info.value.index == 9

    def test_turned_tangent_above_the_transport_tolerance_reverses_orientation(self):
        # a fraction 1e-6 is kept: sample 8's radius goes on as minus tangent
        # 8 and comes back round the loop as the inward radius, so the
        # holonomy has determinant -1
        message = r"^transport around the loop reversed orientation$"
        with pytest.raises(RankDeficient, match=message) as info:
            transport_closed_frame(self.turned_circle(1e-6), [])
        assert info.value.index is None


    def test_resampled_normal_space_losing_a_dimension(self):
        # a stand-in unit circle in R^3 whose tangent resampler turns onto
        # e_3 at parameter 0.3 only: the frame carried there from its
        # segment's first sample, spanning e_3, loses a dimension
        def tangent(t):
            if t == 0.3:
                return np.array([0.0, 0.0, 1.0])
            a = 2.0 * math.pi * t
            return np.array([-math.sin(a), math.cos(a), 0.0])

        k = 32
        loop = SampledLoop(
            np.array([unit_circle(i / k) for i in range(k)]),
            unit_circle,
            [i / k for i in range(k)],
            None,
            tangent,
        )
        framing = transport_closed_frame(loop, [])
        assert framing.at(0.25).shape == (2, 3)
        message = r"^normal space of the curve lost a dimension at parameter 0\.300000$"
        with pytest.raises(RankDeficient, match=message):
            framing.at(0.3)
        with pytest.raises(RankDeficient, match=message):
            framing.resample(np.array([0.1, 0.3, 0.6]))


def unit_circle(t: float) -> np.ndarray:
    a = 2.0 * math.pi * (t % 1.0)
    return np.array([math.cos(a), math.sin(a), 0.0])


class TestHausdorffDistance:
    def test_uneven_params_of_one_curve(self):
        # the first loop's samples cover only [0, 0.6] of the circle, so the
        # rest of it lies between its last sample and its first, across 1
        def sampled(params):
            pts = np.array([unit_circle(t) for t in params])
            return SampledLoop(pts, unit_circle, list(params))

        uneven = sampled(np.linspace(0.0, 0.6, 16))
        uniform = sampled(np.arange(64) / 64)
        assert hausdorff_distance(uneven, uniform) < 1e-6
        assert hausdorff_distance(uniform, uneven) < 1e-6


def bent_circle(t: float) -> np.ndarray:
    a = 2.0 * math.pi * (t % 1.0)
    return np.array([math.cos(a), math.sin(a), 0.3 * math.cos(2 * a), 0.3 * math.sin(3 * a)])


class TestRecombinedFields:
    # sampled from its exact resampler; projection transport around it has a
    # holonomy of about 0.086 rad, so the closing rotation is not the identity
    def bent_loop(self) -> SampledLoop:
        k = 64
        pts = np.array([bent_circle(i / k) for i in range(k)])
        return SampledLoop(pts, bent_circle, [i / k for i in range(k)])

    @staticmethod
    def assert_resampler_reproduces_samples(loop, framing):
        for k in range(len(loop)):
            gap = np.max(np.abs(framing.at(loop.params[k]) - framing.at_sample(k)))
            assert gap < 1e-12, k

    def test_closing_rotation_of_the_transport(self):
        loop = self.bent_loop()
        self.assert_resampler_reproduces_samples(loop, transport_closed_frame(loop, []))

    def test_twist_and_sign_flip(self):
        loop = self.bent_loop()
        twisted = twist_framing(loop, transport_closed_frame(loop, []), 3)
        self.assert_resampler_reproduces_samples(loop, twisted)
        flip = np.diag([-1.0, 1.0, 1.0])
        flipped = _recombined(twisted, loop.params, lambda ts: np.array([flip] * len(ts)))
        assert np.array_equal(flipped.fields[0], -twisted.fields[0])
        assert np.array_equal(flipped.fields[1:], twisted.fields[1:])
        self.assert_resampler_reproduces_samples(loop, flipped)

    def test_closing_segment_of_a_loop_starting_after_zero(self):
        # the segment from the last sample round to the first holds both ends
        # of [0, 1); the closed frame stays continuous along all of it, also
        # across 0 and just below params[0]
        params = np.linspace(0.1, 0.99, 64)
        loop = SampledLoop(np.array([bent_circle(t) for t in params]), bent_circle, list(params))
        framing = transport_closed_frame(loop, [])
        self.assert_resampler_reproduces_samples(loop, framing)
        assert np.max(np.abs(framing.at(params[0] - 1e-7) - framing.at_sample(0))) < 1e-5
        assert np.max(np.abs(framing.at(-1e-7) - framing.at(0.0))) < 1e-5
        ts = np.linspace(params[-1], params[0] + 1.0, 201)
        frames = np.array([framing.at(t) for t in ts])
        assert np.max(np.abs(np.diff(frames, axis=0))) < 0.02


def torus_knot(samples: int, m: int) -> SampledLoop:
    """A (1, m) curve on the unit S^3, sampled evenly, with its exact points and unit tangents."""

    def point(t: float) -> np.ndarray:
        a = 2.0 * math.pi * t
        return np.array([math.cos(a), math.sin(a), math.cos(m * a), math.sin(m * a)]) / math.sqrt(2)

    def tangent(t: float) -> np.ndarray:
        a = 2.0 * math.pi * t
        v = np.array([-math.sin(a), math.cos(a), -m * math.sin(m * a), m * math.cos(m * a)])
        return v / np.linalg.norm(v)

    params = [i / samples for i in range(samples)]
    return SampledLoop(
        np.array([point(t) for t in params]),
        point,
        params,
        np.array([tangent(t) for t in params]),
        tangent,
    )


# Two curves whose tangent turns about 60 degrees from sample to sample: a
# coarse one, and a long one along which projecting without re-orthonormalizing
# would let the carried frame's rows become parallel to working precision.
COARSE_KNOTS = {"16 samples": (16, 3), "600 samples": (600, 100)}


class TestStackedTransport:
    """transport_closed_frame against the per-sample Gram-Schmidt projection of numref."""

    def transports(self, loop, normals, monkeypatch):
        """(framing, holonomy) of the stacked transport and of the reference."""
        import fbk.tracer as tracer

        holonomies = []
        planes = tracer._givens_planes

        def spy(H):
            holonomies.append(H)
            return planes(H)

        monkeypatch.setattr(tracer, "_givens_planes", spy)
        stacked = transport_closed_frame(loop, normals)
        reference = projection_transport(loop, normals)
        return (stacked, holonomies[0]), (reference, holonomies[1])

    def untraced_cases(self):
        yield TestRecombinedFields().bent_loop(), []
        for samples, m in COARSE_KNOTS.values():
            yield torus_knot(samples, m), sphere_ambient(4).manifold_normals
            yield torus_knot(samples, m), []

    def cases(self):
        yield from traced_circles()
        yield from self.untraced_cases()

    def test_frames_and_holonomy_match_the_reference(self, monkeypatch):
        params = np.linspace(0.0, 1.0, 17, endpoint=False) + 0.0123
        for loop, normals in self.cases():
            (stacked, H), (reference, H_ref) = self.transports(loop, normals, monkeypatch)
            assert np.max(np.abs(stacked.fields - reference.fields)) <= 1e-12
            for t in params:
                assert np.max(np.abs(stacked.at(t) - reference.at(t))) <= 1e-12
            assert np.max(np.abs(H - H_ref)) <= 1e-12

    def test_closed_frames_are_continuous_across_the_wrap(self, monkeypatch):
        # each has a holonomy the closing must undo
        for loop, normals in self.untraced_cases():
            (framing, H), _ = self.transports(loop, normals, monkeypatch)
            assert np.max(np.abs(H - np.eye(len(H)))) > 1e-3
            gap = np.max(np.abs(framing.at(loop.params[0] - 1e-9) - framing.at_sample(0)))
            assert gap < 1e-6

    @pytest.mark.parametrize("samples, m", COARSE_KNOTS.values(), ids=COARSE_KNOTS)
    def test_coarse_loops_turn_about_sixty_degrees(self, samples, m):
        tangents = torus_knot(samples, m).tangents
        turns = np.degrees(np.arccos(np.sum(tangents * np.roll(tangents, -1, axis=0), axis=1)))
        assert np.all((55.0 < turns) & (turns < 70.0))

    def test_both_lose_a_dimension_at_the_same_sample(self):
        loop = TestTransportClosedFrame.collapsing_loop()
        indices = []
        for transport in (transport_closed_frame, projection_transport):
            with pytest.raises(RankDeficient) as info:
                transport(loop, [])
            indices.append(info.value.index)
        assert indices == [9, 9]

    def test_one_gram_schmidt_per_loop(self, monkeypatch):
        import fbk.tracer as tracer

        calls = []
        mgs = tracer._mgs

        def counted(*args):
            calls.append(1)
            return mgs(*args)

        monkeypatch.setattr(tracer, "_mgs", counted)
        loop, normals = next(traced_circles())
        transport_closed_frame(loop, normals)
        assert len(calls) == 1


def rotation_with_angles(rng, n, angles):
    """Randomly oriented SO(n) matrix rotating plane k of some frame by angles[k]."""
    B = np.eye(n)
    for k, theta in enumerate(angles):
        a, b = 2 * k, 2 * k + 1
        B[a, a] = B[b, b] = math.cos(theta)
        B[b, a], B[a, b] = math.sin(theta), -math.sin(theta)
    Q = random_rotation(rng, n)
    return Q @ B @ Q.T


def holonomy_cases(rng):
    for n in range(2, 7):
        m = n // 2
        yield f"identity/{n}", np.eye(n)
        if n % 2 == 0:
            yield f"minus-identity/{n}", -np.eye(n)
        rest = [0.4] * (m - 1)
        for name, angles in [
            ("equal", [0.7] * m),
            ("theta-and-pi-minus-theta", [0.7, math.pi - 0.7][:m]),
            ("pi-plane", [math.pi] + rest),
            ("pi-1e-3", [math.pi - 1e-3] + rest),
            ("pi-1e-6", [math.pi - 1e-6] + rest),
            ("pi-1e-9", [math.pi - 1e-9] + rest),
            # cos(theta) cannot tell these planes from fixed or reversed ones
            ("pi-plane-and-pi-1e-9", [math.pi, math.pi - 1e-9][:m]),
            ("near-identity", [1e-6] + rest),
        ]:
            for _ in range(3):
                yield f"{name}/{n}", rotation_with_angles(rng, n, angles)
        for _ in range(20):
            yield f"random/{n}", random_rotation(rng, n)


class TestHolonomyPlanes:
    def test_givens_path_runs_from_identity_to_the_inverse(self, rng):
        u = np.array([0.0, 0.3, 0.5, 0.9, 1.0])
        for name, H in holonomy_cases(rng):
            n = H.shape[0]
            P = _givens_path(_givens_planes(H), n, u)
            assert np.array_equal(P[0], np.eye(n)), name
            assert np.max(np.abs(P[-1] - H.T)) < 1e-12, name
            assert np.max(np.abs(P @ P.transpose(0, 2, 1) - np.eye(n))) < 1e-12, name


def test_diagnostics_keys_per_report_kind():
    base = {"max_residual", "refinement_depth", "tolerances"}
    traced = base | {"closure_errors", "seeds_skipped"}
    link = invariant_report(pontryagin_link())
    mapped = kappa_of_map(quadric_spec(), TraceOptions(seeds=[SEED]))
    section = section_index(
        s5_spec(), TraceOptions(seeds=[np.array([0.97, 0.12, 0.05, -0.04, 0.06, -0.02])])
    )
    assert set(link.diagnostics) == base
    assert set(mapped.diagnostics) == traced
    assert set(section.diagnostics) == traced
    for report in (link, mapped, section):
        assert set(report.diagnostics["tolerances"]) == {
            "ortho_tol", "newton_tol", "closure_tol", "lift_angle_max"
        }


class TestSectionIndex:
    def test_s5_degree_one(self):
        opts = TraceOptions(seeds=[np.array([0.97, 0.12, 0.05, -0.04, 0.06, -0.02])])
        report = section_index(s5_spec(), opts)
        assert int(report.kappa) == 1
        assert [c.index for c in report.components] == [1]

    def test_zero_locus_is_the_expected_circle(self):
        opts = TraceOptions(seeds=[np.array([0.97, 0.12, 0.05, -0.04, 0.06, -0.02])])
        loops = section_zero_loops(s5_spec(), opts)
        assert len(loops) == 1
        pts = loops[0].points
        assert np.max(np.abs(np.hypot(pts[:, 0], pts[:, 1]) - 1.0)) < 1e-8
        assert np.max(np.abs(pts[:, 2:])) < 1e-8

    def test_closure_twist_invariance(self):
        opts = TraceOptions(seeds=[np.array([0.97, 0.12, 0.05, -0.04, 0.06, -0.02])])
        base = section_index(s5_spec(), opts)
        twisted = section_index(s5_spec(), opts, aux_twist_turns=1)
        assert int(base.kappa) == int(twisted.kappa)
        assert [c.index for c in base.components] == [c.index for c in twisted.components]

    def test_aux_twist_takes_whole_turns_only(self):
        opts = TraceOptions(seeds=[np.array([0.97, 0.12, 0.05, -0.04, 0.06, -0.02])])
        with pytest.raises(ValidationError, match="whole number of turns"):
            section_index(s5_spec(), opts, aux_twist_turns=1.5)
        assert int(section_index(s5_spec(), opts, aux_twist_turns=np.int64(1)).kappa) == 1

    @pytest.mark.parametrize("name", sorted(S5_SECTIONS))
    def test_cycled_zero_circles_keep_their_bit(self, name):
        # a cycled circle starts its transport, and so its closing, elsewhere
        section, jac, seed = S5_SECTIONS[name]
        spec = SectionSpec(5, _s5_splitting, section, jacobian=jac)
        system = _map_system(_section_map(spec))
        (loop,) = section_zero_loops(spec, TraceOptions(seeds=[seed]))
        for shift in (1, 17, 40):
            circle = loop.cycled(shift)
            for turns in (0, 1):
                (bit,) = _section_indices(
                    spec, system, [circle], sphere_ambient(6), DEFAULT_TOL, turns
                )
                assert int(bit) == 1, (shift, turns)

    @pytest.mark.parametrize("name", sorted(S5_SECTIONS))
    def test_finite_difference_sections_keep_their_seed(self, name):
        # the section system has rank 5 of 6 columns by construction; the
        # finite-difference Jacobian leaves a noise singular value of about
        # 1e-12 there, which the Newton step must cut, not invert
        section, _, seed = S5_SECTIONS[name]
        report = section_index(
            SectionSpec(5, _s5_splitting, section), TraceOptions(seeds=[seed])
        )
        assert int(report.kappa) == 1
        assert [c.index for c in report.components] == [1]
        assert report.diagnostics["seeds_skipped"] == 0

    def test_derivative_degenerate_at_one_sample_is_non_transverse(self):
        # dw vanishes at sample 17 of the zero circle and nowhere else, so
        # the frame [position, v, dw(aux)] drops rank there alone. Term 2 is
        # never reversed, so the traced circle and its reversal both name
        # the sample in the numbering they were given.
        section, jac, seed = S5_SECTIONS["s5-vector-fields"]
        good = SectionSpec(5, _s5_splitting, section, jacobian=jac)
        (loop,) = section_zero_loops(good, TraceOptions(seeds=[seed]))
        bad = loop.points[17].copy()

        def degenerate_jac(x):
            return np.zeros((6, 6)) if np.array_equal(x, bad) else jac(x)

        spec = SectionSpec(5, _s5_splitting, section, jacobian=degenerate_jac)
        system = _map_system(_section_map(spec))
        # the circle was traced from another spec: dw evaluates this one's at its samples
        for circle, k in ((loop, 17), (loop.reversed(), len(loop) - 17)):
            with pytest.raises(NonTransverse, match=rf"at sample {k}$"):
                _section_indices(spec, system, [circle], sphere_ambient(6), DEFAULT_TOL, 0)

    def test_degenerate_circle_among_two_names_its_own_sample(self):
        # the degenerate circle of the test above, before and after a good
        # one: the stack is cut at whole circles, and the error counts the
        # samples of the degenerate circle alone
        section, jac, seed = S5_SECTIONS["s5-vector-fields"]
        good = SectionSpec(5, _s5_splitting, section, jacobian=jac)
        (loop,) = section_zero_loops(good, TraceOptions(seeds=[seed]))
        bad = loop.points[17].copy()

        def degenerate_jac(x):
            return np.zeros((6, 6)) if np.array_equal(x, bad) else jac(x)

        spec = SectionSpec(5, _s5_splitting, section, jacobian=degenerate_jac)
        system = _map_system(_section_map(spec))
        degenerate = loop
        # the circle sampled elsewhere, so that no sample is the degenerate point
        fine = loop.with_samples(48)
        assert not any(np.array_equal(p, bad) for p in fine.points)
        (bit,) = _section_indices(spec, system, [fine], sphere_ambient(6), DEFAULT_TOL, 0)
        assert int(bit) == 1
        for circles in ([degenerate, fine], [fine, degenerate]):
            with pytest.raises(NonTransverse, match=r"at sample 17$"):
                _section_indices(spec, system, circles, sphere_ambient(6), DEFAULT_TOL, 0)

    def test_derivative_degenerate_between_samples_is_non_transverse(self):
        # dw is exact at the samples and zero between them; a lift bound
        # below the sample spacing makes term 2's refiner assemble frames
        # between samples, where [position, v, dw(aux)] drops rank
        section, jac, seed = S5_SECTIONS["s5-vector-fields"]
        good = SectionSpec(5, _s5_splitting, section, jacobian=jac)
        (loop,) = section_zero_loops(good, TraceOptions(seeds=[seed]))
        samples = {tuple(p) for p in loop.points}

        def sampled_jac(x):
            return jac(x) if tuple(x) in samples else np.zeros((6, 6))

        spec = SectionSpec(5, _s5_splitting, section, jacobian=sampled_jac)
        system = _map_system(_section_map(spec))
        tol = Tolerances(lift_angle_max=0.05)
        for circle in (loop, loop.reversed()):
            with pytest.raises(NonTransverse, match=r"at parameter 0\.\d{6}$") as info:
                _section_indices(spec, system, [circle], sphere_ambient(6), tol, 0)
            assert "middle row" in str(info.value.__cause__)

    def test_intermediate_term_classes(self, monkeypatch):
        # closed-form frames on the plane zero circle make both matrix loops
        # single full turns, so the two intermediate classes are 1 and 1
        import fbk.framedlink as framedlink_mod

        recorded = []
        original = framedlink_mod._loop_classes

        def spy(loops, tol=DEFAULT_TOL):
            bits, failure = original(loops, tol)
            recorded.append([int(bit) for bit in bits])
            return bits, failure

        monkeypatch.setattr(framedlink_mod, "_loop_classes", spy)
        opts = TraceOptions(seeds=[np.array([0.97, 0.12, 0.05, -0.04, 0.06, -0.02])])
        report = section_index(s5_spec(), opts)
        # both terms lifted in one pass
        assert recorded == [[1, 1]]
        assert int(report.kappa) == 1

    def test_nowhere_vanishing_section_on_s7(self):
        # quaternion-pair structure on S^7: right multiplication by i and j
        # gives a unit section everywhere, so the zero locus is empty
        def v(x):
            out = np.empty(8)
            for b in range(2):
                a, bq, c, d = x[4 * b : 4 * b + 4]
                out[4 * b : 4 * b + 4] = (-bq, a, d, -c)
            return out

        def w(x):
            out = np.empty(8)
            for b in range(2):
                a, bq, c, d = x[4 * b : 4 * b + 4]
                out[4 * b : 4 * b + 4] = (-c, -d, a, bq)
            return out

        seeds = [np.ones(8) / math.sqrt(8.0), np.eye(8)[0]]
        report = section_index(SectionSpec(7, v, w), TraceOptions(seeds=seeds))
        assert int(report.kappa) == 0
        assert report.components == []
        assert report.diagnostics["seeds_skipped"] == 2

    def test_every_section_jacobian_is_counted(self, monkeypatch):
        # the walk, dw and the recorder see one derivative path, and one
        # auxiliary frame is transported per zero circle
        import fbk.tracer as tracer

        section, jac, seed = S5_SECTIONS["s5-alt-section"]
        calls = []

        def counted_jac(x):
            calls.append(1)
            return jac(x)

        transported = []
        transport = tracer.transport_closed_frame

        def counted_transport(*args, **kwargs):
            transported.append(1)
            return transport(*args, **kwargs)

        monkeypatch.setattr(tracer, "transport_closed_frame", counted_transport)
        spec = SectionSpec(5, _s5_splitting, section, jacobian=counted_jac)
        with recording() as record:
            report = section_index(spec, TraceOptions(seeds=[seed]))
        # the seed's check calls it once more, noted apart from the walk's
        assert record["jacobian_evaluations"] + record["jacobian_checks"] == len(calls) > 0
        assert len(transported) == len(report.components) == 1

    @pytest.mark.parametrize("analytic", [True, False], ids=["analytic", "fd"])
    @pytest.mark.parametrize("name", sorted(S5_SECTIONS))
    def test_dw_takes_the_walk_jacobians(self, name, analytic):
        # dw at the samples is the same function at the same points whether
        # it takes the walk's Jacobians or Jacobians evaluated again there:
        # the fields are bit for bit equal, and the Jacobians a traced
        # circle carries spare one evaluation per sample
        import fbk.tracer as tracer
        from fbk.tracer import _section_derivative_fields

        section, jac, seed = S5_SECTIONS[name]
        spec = SectionSpec(5, _s5_splitting, section, jacobian=jac if analytic else None)
        opts = TraceOptions(seeds=[seed])
        traced = _section_map(spec)
        system = _map_system(traced)
        # traced from the system's spec, the circle carries the section's Jacobians
        [loop] = tracer._traced_components(traced, opts)
        aux = transport_closed_frame(loop, sphere_ambient(6).manifold_normals)
        with recording() as record:
            carried = _section_derivative_fields(spec, system, loop, aux)
        assert record == {}
        with recording() as record:
            evaluated = _section_derivative_fields(spec, system, uncarried(loop), aux)
        assert record == {"jacobian_evaluations": len(loop)}
        assert np.array_equal(carried.fields, evaluated.fields)
        # section_index's circles carry them too: its dw evaluates none at the samples
        with recording() as record:
            report = section_index(spec, opts)
        with recording() as walk:
            section_zero_loops(spec, opts)
        assert record["jacobian_evaluations"] == walk["jacobian_evaluations"]
        assert [c.index for c in report.components] == [1]

    @pytest.mark.parametrize("turns", [0, 1])
    @pytest.mark.parametrize("analytic", [True, False], ids=["analytic", "fd"])
    @pytest.mark.parametrize("name", sorted(S5_SECTIONS))
    def test_both_directions_of_a_zero_circle(self, name, analytic, turns, monkeypatch):
        # both terms frame the circle as given; a circle and its reversal
        # have opposite tangents at sample 0 and the same auxiliary frame
        # there, so exactly one of them negates term 1's first field.
        # The circle is traced once, with the analytic Jacobian, so both
        # specs see the same samples; the index is then taken with the spec
        # under test.
        import fbk.framedlink as framedlink
        import fbk.tracer as tracer

        section, jac, seed = S5_SECTIONS[name]
        opts = TraceOptions(seeds=[seed])
        [loop] = section_zero_loops(SectionSpec(5, _s5_splitting, section, jacobian=jac), opts)
        spec = SectionSpec(5, _s5_splitting, section, jacobian=jac if analytic else None)
        ambient = sphere_ambient(6)
        negated = []

        # both terms' frames follow their loop: resampling a framing at a
        # sample's parameter gives back that sample's fields
        gaps = []
        assemble = framedlink._frame_loops

        def checked_assembly(parts, *args, **kwargs):
            assert len(parts) == 2 and all(part.loop is circle for part in parts)
            aux = transport_closed_frame(circle, ambient.manifold_normals, DEFAULT_TOL)
            if turns:
                aux = twist_framing(circle, aux, turns)
            first, given = parts[0].framing.at_sample(0), aux.at_sample(0)
            np.testing.assert_array_equal(first[1:], given[1:])
            negated.append(bool(np.array_equal(first[0], -given[0])))
            assert negated[-1] or np.array_equal(first[0], given[0])
            for loop, framing, *_ in parts:
                for k in range(0, len(loop), 4):
                    at_param = np.vstack(framing.at(loop.params[k]))
                    gaps.append(float(np.max(np.abs(at_param - np.vstack(framing.at_sample(k))))))
            return assemble(parts, *args, **kwargs)

        monkeypatch.setattr(framedlink, "_frame_loops", checked_assembly)
        results = []
        for circle in (loop, loop.reversed()):
            # traced from another spec, the circle has dw evaluate this spec's Jacobians

            def stand_in(spec, opts, c=circle):
                return [c]

            monkeypatch.setattr(tracer, "_traced_components", stand_in)
            report = section_index(spec, opts, aux_twist_turns=turns)
            results.append((int(report.kappa), [c.index for c in report.components]))
        assert results == [(1, [1]), (1, [1])]
        assert sorted(negated) == [False, True]
        assert max(gaps) < 1e-9


def det_at_sample_0(loop, middle_row, framing, ambient) -> float:
    """det of the frame rows [manifold normals, middle_row, fields] at sample 0."""
    fields = framing.fields[:, :1].transpose(1, 0, 2)
    return float(np.linalg.det(_frame_rows(ambient, loop.points[:1], middle_row[None], fields)[0]))


def reversal_rule(loop, framing, ambient):
    """The orientation rule before _oriented, as (loop, framing, reversed).

    Loop and framing are reversed unless the frame at sample 0 is right-handed.
    """
    if det_at_sample_0(loop, loop.tangent_at_sample(0), framing, ambient) > 0.0:
        return loop, framing, False
    return loop.reversed(), framing.reversed(), True


def reversal_rule_parts(spec, system, loop, ambient, tol, turns):
    """A zero circle's two terms under the reversal rule, as (loop, framing, middle, changed).

    A left-handed term 2 negates the first field of aux and dw(aux) alike
    (changed for term 2); term 1 is then the reversal rule's on aux.
    """
    aux = transport_closed_frame(loop, ambient.manifold_normals, tol)
    if turns:
        aux = twist_framing(loop, aux, turns)
    tau = _section_derivative_fields(spec, system, loop, aux)
    v0 = _on_stack(spec.splitting_field, loop.points[:1], "splitting field", loop.dimension)[0]
    flipped = det_at_sample_0(loop, v0, tau, ambient) < 0.0
    if flipped:
        flip = np.diag([-1.0] + [1.0] * (aux.count - 1))
        flips = lambda ts: np.broadcast_to(flip, (len(ts), *flip.shape))  # noqa: E731
        aux = _recombined(aux, loop.params, flips)
        tau = _recombined(tau, loop.params, flips)
    back, aux, reversed_term = reversal_rule(loop, aux, ambient)
    return [(back, aux, None, reversed_term), (loop, tau, spec.splitting_field, flipped)]


def negated(fn):
    """fn's values negated, called as fn is: on a stack or point by point."""
    out = lambda x: -np.asarray(fn(x), dtype=float)  # noqa: E731
    return stacked(out) if getattr(fn, "fbk_stacked", False) else out


# every traced registry scenario at its defaults and with a refining lift,
# and both S^5 sections with a twisted auxiliary frame
ORIENTATION_CASES = [
    *[
        (name, overrides, 0)
        for name in sorted(n for n, scenario in REGISTRY.items() if scenario.traced)
        for overrides in ({}, {"lift_angle_max": 0.05})
    ],
    *[(name, {}, 1) for name in sorted(S5_SECTIONS)],
]


class TestOneOrientationRule:
    # a frame loop's class changes neither under reversal nor under a
    # constant rotation, so negating the first field of a left-handed frame
    # loop gives each term the bit that reversing it gave
    @pytest.mark.parametrize(
        "name, overrides, turns",
        ORIENTATION_CASES,
        ids=[f"{n}-{'refining' if o else 'defaults'}-turns{t}" for n, o, t in ORIENTATION_CASES],
    )
    def test_each_term_keeps_its_bit_under_the_reversal_rule(self, name, overrides, turns):
        scenario = REGISTRY[name]
        spec, opts = scenario.traced(resolve_options(scenario, overrides))
        tol = opts.tolerances
        if isinstance(spec, SectionSpec):
            traced = _section_map(spec)
            ambient = sphere_ambient(traced.dimension)
            # -v splits off the same bundle and turns term 2's frames
            # left-handed: each rule's other branch for term 2
            flipped = dataclasses.replace(spec, splitting_field=negated(spec.splitting_field))
            specs = [spec, flipped]
        else:
            traced = spec
            if spec.domain == "unit_sphere":
                ambient = sphere_ambient(spec.dimension)
            else:
                ambient = euclidean_ambient(spec.dimension)
            specs = [spec]
        system = _map_system(traced)

        def bits(terms):
            return [
                int(loop_class(frame_matrix_loop(loop, framing, ambient, tol, middle), tol))
                for loop, framing, middle, *_ in terms
            ]

        changed = []
        [traced_loop] = _traced_components(traced, opts)
        # the traced circle and its reversal take both branches for term 1
        for loop in (traced_loop, traced_loop.reversed()):
            for each in specs:
                if each is traced:
                    framing = induced_framing(each, loop)
                    back, framing_back, reversed_term = reversal_rule(loop, framing, ambient)
                    new = [(*_oriented(loop, framing, ambient), None)]
                    old = [(back, framing_back, None, reversed_term)]
                else:
                    new = _section_parts(each, system, loop, ambient, tol, turns)
                    old = reversal_rule_parts(each, system, loop, ambient, tol, turns)
                assert all(term[0] is loop for term in new)
                assert bits(new) == bits(old)
                changed.append([term[3] for term in old])
        # the reversal rule changed each term in half of the frame loops
        for flags in zip(*changed):
            assert sorted(flags) == sorted([False, True] * (len(flags) // 2))


class TestSuggestSeeds:
    def test_quadric_suggestions_land_on_the_circle(self):
        seeds = suggest_seeds(quadric_spec())
        assert seeds
        for s in seeds:
            assert np.linalg.norm(quadric(s)) < 1e-9

    def test_finds_both_circles(self):
        spec = MapSpec(two_circles, dimension=4)
        seeds = suggest_seeds(spec, bounds=[(-2, 6), (-2, 2), (-1, 1), (-1, 1)], per_axis=5)
        near_first = any(abs(math.hypot(s[0], s[1]) - 1.0) < 1e-6 for s in seeds)
        near_second = any(abs(math.hypot(s[0] - 4.0, s[1]) - 1.0) < 1e-6 for s in seeds)
        assert near_first and near_second

    def test_empty_for_nowhere_vanishing_section(self):
        def v(x):
            out = np.empty(8)
            for b in range(2):
                a, bq, c, d = x[4 * b : 4 * b + 4]
                out[4 * b : 4 * b + 4] = (-bq, a, d, -c)
            return out

        def w(x):
            out = np.empty(8)
            for b in range(2):
                a, bq, c, d = x[4 * b : 4 * b + 4]
                out[4 * b : 4 * b + 4] = (-c, -d, a, bq)
            return out

        assert suggest_seeds(SectionSpec(7, v, w)) == []


class TestSphereDomainTrace:
    def test_hopf_preimage_residuals(self):
        from fbk.scenarios import _HOPF_VALUES, _suspended_hopf

        data = _HOPF_VALUES["default"]
        spec = MapSpec(
            _suspended_hopf,
            dimension=5,
            target="sphere",
            regular_value=data["x0"],
            domain="unit_sphere",
        )
        with recording() as record:
            loop = trace_component(spec, data["seed"], TraceOptions())
        # traced points stay on the domain sphere and map onto the value
        assert np.max(np.abs(np.linalg.norm(loop.points, axis=1) - 1.0)) < 1e-8
        vals = np.array([_suspended_hopf(p) for p in loop.points])
        assert np.max(np.linalg.norm(vals - data["x0"], axis=1)) < 1e-8
        [closure_error] = record["closure_errors"]
        assert closure_error < 1e-6
