import json
import math

import numpy as np
import pytest

from conftest import random_rotation
from fbk.errors import (
    DuplicateComponent,
    EvaluationFailure,
    NoConvergence,
    RankDeficient,
    Singular,
)
from fbk.framedlink import (
    NormalFraming,
    SampledLoop,
    _recombined,
    euclidean_ambient,
    frame_matrix_loop,
    index_of_circle,
    invariant_report,
    sphere_ambient,
    twist_framing,
)
from fbk.numkit import DEFAULT_TOL, jacobian_fd, least_squares, recording
from fbk.scenarios import (
    _S5_SECTION_JAC,
    _s5_alt_section,
    _s5_alt_section_jac,
    _s5_section,
    _s5_splitting,
)
from fbk.tracer import (
    MapSpec,
    SectionSpec,
    TraceOptions,
    _map_system,
    _newton,
    _principal_log_blocks,
    _rotation_power,
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
        report = kappa_of_map(quadric_spec(), TraceOptions(seeds=[SEED]), euclidean_ambient(4))
        assert int(report.kappa) == 0
        assert [c.index for c in report.components] == [0]

    def test_twisted_quadric_index_one(self):
        report = kappa_of_map(
            quadric_twisted_spec(), TraceOptions(seeds=[SEED]), euclidean_ambient(4)
        )
        assert int(report.kappa) == 1

    def test_rotated_target_basis_same_index(self, rng):
        spec = quadric_spec()
        loop = trace_component(spec, SEED, TraceOptions())
        ambient = euclidean_ambient(4)
        Q = random_rotation(rng, 3)
        plain = induced_framing(spec, loop)
        rotated = induced_framing(spec, loop, basis=Q)
        want = index_of_circle(*_orient(loop, plain, ambient), ambient)
        got = index_of_circle(*_orient(loop, rotated, ambient), ambient)
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
        loop, framing = _orient(loop, induced_framing(spec, loop), ambient)
        with recording() as carried:
            frame_matrix_loop(loop, framing, ambient)
        assert carried.get("newton_calls", 0) == 0
        # without the carried tangents every sample costs two resamples
        bare = SampledLoop(loop.points, loop.resample, loop.params)
        with recording() as resampled:
            frame_matrix_loop(bare, framing, ambient)
        assert resampled["newton_calls"] == 2 * len(loop)
        assert resampled["jacobian_evaluations"] == resampled["newton_iterations"] > 0

    def test_work_counters_of_a_trace_and_a_pull_back(self):
        spec = quadric_spec()
        with recording() as traced:
            loop = trace_component(spec, SEED, TraceOptions())
        assert traced["newton_calls"] >= len(loop)
        assert traced["jacobian_evaluations"] > traced["newton_iterations"] > 0
        with recording() as pulled:
            induced_framing(spec, loop)
        assert pulled == {"jacobian_evaluations": len(loop)}


class TestCarriedJacobians:
    @pytest.mark.parametrize("make_spec", [quadric_spec, quadric_twisted_spec])
    def test_each_sample_jacobian_is_evaluated_once(self, make_spec, monkeypatch):
        import fbk.tracer as tracer

        spec = make_spec()
        opts = TraceOptions(seeds=[SEED])
        ambient = euclidean_ambient(4)
        with recording() as separate:
            loop = trace_component(spec, SEED, opts)
            induced_framing(spec, loop)
        with recording() as carried:
            report = kappa_of_map(spec, opts, ambient)
        assert carried["jacobian_evaluations"] == separate["jacobian_evaluations"] - len(loop)

        # the same pipeline with the pull-back evaluating its own Jacobians
        pull_back = tracer.induced_framing
        monkeypatch.setattr(
            tracer, "induced_framing", lambda spec, loop, **_: pull_back(spec, loop)
        )
        with recording() as evaluated:
            again = kappa_of_map(spec, opts, ambient)
        assert carried["jacobian_evaluations"] == evaluated["jacobian_evaluations"] - len(loop)
        for key in ("newton_calls", "newton_iterations"):
            assert carried[key] == evaluated[key] == separate[key]
        assert json.dumps(report.to_dict()) == json.dumps(again.to_dict())

    def test_jacobians_must_match_the_samples(self):
        loop = trace_component(quadric_spec(), SEED, TraceOptions())
        jacobians = [quadric_jac(p) for p in loop.points]
        with pytest.raises(ValueError, match="Jacobians for a loop of"):
            induced_framing(quadric_spec(), loop, jacobians=jacobians[1:])
        with recording() as record:
            framing = induced_framing(quadric_spec(), loop, jacobians=jacobians)
        assert record == {}
        plain = induced_framing(quadric_spec(), loop)
        assert all(np.array_equal(a, b) for a, b in zip(framing.fields, plain.fields))


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
            kappa_of_map(probe_spec(), TraceOptions(seeds=[np.array(seed)]), euclidean_ambient(3))
        out, err = capfd.readouterr()
        assert out == ""
        assert "DLASCL" not in err

    def test_newton_refuses_a_non_finite_jacobian(self):
        spec = MapSpec(quadric, dimension=4, jacobian=lambda x: np.full((3, 4), np.nan))
        with pytest.raises(EvaluationFailure, match="non-finite Jacobian"):
            _newton(_map_system(spec), SEED, DEFAULT_TOL)


def _orient(loop, framing, ambient):
    from fbk.tracer import _oriented

    return _oriented(loop, framing, ambient)


class TestKappaOfMap:
    def test_empty_preimage(self):
        spec = MapSpec(
            lambda x: np.array([x[0] ** 2 + x[1] ** 2 + 1.0, x[2], x[3]]), dimension=4
        )
        report = kappa_of_map(
            spec, TraceOptions(seeds=[SEED, np.array([0.0, 1.0, 0.0, 0.0])]),
            euclidean_ambient(4),
        )
        assert int(report.kappa) == 0
        assert report.components == []
        assert report.diagnostics["seeds_skipped"] == 2

    def test_duplicate_seeds_detected(self):
        seeds = [SEED, np.array([0.0, 1.05, -0.03, 0.04])]
        with pytest.raises(DuplicateComponent):
            kappa_of_map(quadric_spec(), TraceOptions(seeds=seeds), euclidean_ambient(4))

    def test_report_counts_match(self):
        report = kappa_of_map(quadric_spec(), TraceOptions(seeds=[SEED]), euclidean_ambient(4))
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
            report = kappa_of_map(spec, opts, sphere_ambient(5))
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

    def test_collapsing_normal_space(self):
        # consecutive chord tangents made exactly perpendicular: the normal
        # planes share only a line, so transporting a full frame must fail
        pts = [np.array([0.1 * i, 0.0, 0.0]) for i in range(8)]
        last = pts[-1]
        tangent_at_8 = np.array([1.0, 1.0, 0.0])  # chord p9 - p7 by design
        pts.append(last + np.array([0.1, 0.0, 0.0]))
        pts.append(pts[-1] + np.array([0.0, 0.1, 0.0]))  # makes p9 - p7 = (0.1, 0.1, 0)
        # now force the next chord p10 - p8 perpendicular to (1,1,0)
        pts.append(pts[8] + np.array([-0.1, 0.1, 0.0]))
        # wander back to close the polygon with distinct points
        for i in range(7):
            pts.append(pts[-1] + np.array([-0.12, 0.01 * (i + 1), 0.0]))
        del tangent_at_8
        loop = SampledLoop(np.array(pts))
        with pytest.raises(RankDeficient):
            transport_closed_frame(loop, [])


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
        flipped = _recombined(twisted, loop.params, lambda t: flip)
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
    def test_principal_powers(self, rng):
        for name, H in holonomy_cases(rng):
            n = H.shape[0]
            blocks = _principal_log_blocks(H)
            assert np.max(np.abs(_rotation_power(blocks, 1.0) - H)) < 1e-12, name
            for u in (0.5, -0.3, 0.9):
                P = _rotation_power(blocks, u)
                assert np.max(np.abs(P.T @ P - np.eye(n))) < 1e-12, (name, u)
            half = _rotation_power(blocks, 0.5)
            assert np.max(np.abs(half @ half - H)) < 1e-12, name
            # principal square root: no rotation angle of it exceeds pi/2
            assert np.min(np.linalg.eigvals(half).real) > -1e-12, name


def test_diagnostics_keys_per_report_kind():
    base = {"max_residual", "refinement_depth", "tolerances"}
    traced = base | {"closure_errors", "seeds_skipped"}
    link = invariant_report(pontryagin_link())
    mapped = kappa_of_map(quadric_spec(), TraceOptions(seeds=[SEED]), euclidean_ambient(4))
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

    def test_intermediate_term_classes(self, monkeypatch):
        # closed-form frames on the plane zero circle make both matrix loops
        # single full turns, so the two intermediate classes are 1 and 1
        import fbk.tracer as tracer_mod

        recorded = []
        original = tracer_mod.loop_class

        def spy(loop, tol=DEFAULT_TOL):
            bit = original(loop, tol)
            recorded.append(int(bit))
            return bit

        monkeypatch.setattr(tracer_mod, "loop_class", spy)
        opts = TraceOptions(seeds=[np.array([0.97, 0.12, 0.05, -0.04, 0.06, -0.02])])
        report = section_index(s5_spec(), opts)
        assert recorded == [1, 1]
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
        assert record["jacobian_evaluations"] == len(calls) > 0
        assert len(transported) == len(report.components) == 1

    @pytest.mark.parametrize("turns", [0, 1])
    @pytest.mark.parametrize("analytic", [True, False], ids=["analytic", "fd"])
    @pytest.mark.parametrize("name", sorted(S5_SECTIONS))
    def test_both_directions_of_a_zero_circle(self, name, analytic, turns, monkeypatch):
        # a left-handed circle is reversed together with its frames; the
        # traced circle and its reversal take the two orientation branches.
        # The circle is traced once, with the analytic Jacobian, so both
        # specs see the same samples; the index is then taken with the spec
        # under test.
        import fbk.tracer as tracer

        section, jac, seed = S5_SECTIONS[name]
        opts = TraceOptions(seeds=[seed])
        [loop] = section_zero_loops(SectionSpec(5, _s5_splitting, section, jacobian=jac), opts)
        spec = SectionSpec(5, _s5_splitting, section, jacobian=jac if analytic else None)
        flips = []
        reverse_frames = NormalFraming.reversed

        def counted_reversed(framing):
            flips[-1] += 1
            return reverse_frames(framing)

        # both terms' frames follow their loop: resampling a framing at a
        # sample's parameter gives back that sample's fields
        gaps = []
        assemble = tracer.frame_matrix_loop

        def checked_assembly(loop, framing, *args, **kwargs):
            for k in range(0, len(loop), 4):
                at_param = np.vstack(framing.at(loop.params[k]))
                gaps.append(float(np.max(np.abs(at_param - np.vstack(framing.at_sample(k))))))
            return assemble(loop, framing, *args, **kwargs)

        monkeypatch.setattr(NormalFraming, "reversed", counted_reversed)
        monkeypatch.setattr(tracer, "frame_matrix_loop", checked_assembly)
        results = []
        for circle in (loop, loop.reversed()):
            monkeypatch.setattr(tracer, "section_zero_loops", lambda *_, c=circle: [c])
            flips.append(0)
            report = section_index(spec, opts, aux_twist_turns=turns)
            results.append((int(report.kappa), [c.index for c in report.components]))
        assert results == [(1, [1]), (1, [1])]
        assert sorted(flips) == [0, 2]
        assert max(gaps) < 1e-9


class TestSuggestSeeds:
    def test_quadric_suggestions_land_on_the_circle(self):
        seeds = suggest_seeds(quadric_spec())
        assert seeds
        for s in seeds:
            assert np.linalg.norm(quadric(s)) < 1e-9

    def test_finds_both_circles(self):
        def two_circles(x):
            a = x[0] ** 2 + x[1] ** 2 - 1.0
            b = (x[0] - 4.0) ** 2 + x[1] ** 2 - 1.0
            return np.array([a * b, x[2], x[3]])

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
