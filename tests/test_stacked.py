"""Geometry callbacks on stacks: the adapter's contract, and every stacked site against per-point calls.

A callback declared with fbk.stacked is called once per stack of points (or
of params); any other is called row by row by numkit._on_stack. Each
stacked site must give bit for bit what the same callback gives when it is
run one row at a time through the adapter (`per_point` below).
"""

import math

import numpy as np
import pytest

import fbk
from fbk import framedlink
from fbk.errors import DimensionMismatch, EvaluationFailure, ValidationError
from fbk.framedlink import (
    AmbientPresentation,
    FramedLink,
    SampledLoop,
    cylinder_ambient,
    euclidean_ambient,
    frame_matrix_loop,
    invariant_report,
    load_link,
    sphere_ambient,
)
from fbk.framedlink import _recombined
from fbk.numkit import Tolerances, _norm, _on_stack, _row_norms, recording, stacked
from fbk.spinlift import RotationLoop, loop_class, stabilize_loop
from fbk.scenarios import (
    REGISTRY,
    _circle_loop,
    _constant_field,
    _framing_from,
    _identity_field,
    _s5_problem,
    _s5_section,
    _s5_splitting,
    resolve_options,
)
from fbk.tracer import (
    SectionSpec,
    _check_section_invariants,
    _map_system,
    _oriented,
    _section_derivative_fields,
    _section_map,
    _section_parts,
    _traced_components,
    induced_framing,
    transport_closed_frame,
)

from conftest import cycled_with, random_rotation


def per_point(fn):
    """The stack-native fn, undeclared: the adapter calls it with one row at a time."""

    def one(x):
        return fn(np.array([x]) if np.ndim(x) == 0 else np.asarray(x)[None])[0]

    return one


def spied(fn, calls: list):
    """The stack-native fn, still declared, noting the length of every stack it gets."""

    @stacked
    def spy(inputs):
        calls.append(len(inputs))
        return fn(inputs)

    return spy


def pointwise_loop(loop: SampledLoop) -> SampledLoop:
    """The same loop with its stack-native resampler called point by point."""
    return SampledLoop(loop.points, per_point(loop.resample), loop.params)


def stacked_knot(samples: int = 48, m: int = 2) -> SampledLoop:
    """A (1, m) curve on the unit S^3 with a stack-native resampler."""

    @stacked
    def point(ts):
        a = 2.0 * math.pi * ts
        return np.stack(
            [np.cos(a), np.sin(a), np.cos(m * a), np.sin(m * a)], axis=1
        ) / math.sqrt(2.0)

    params = np.arange(samples) / samples
    return SampledLoop(point(params), point, params.tolist())


def great_circle_framing(loop: SampledLoop, fields=_constant_field):
    return _framing_from(loop, [fields(5, i) for i in (2, 3, 4)])


def pointwise_constant_field(dim: int, index: int):
    return per_point(_constant_field(dim, index))


class TestAdapter:
    def test_stacked_marks_and_returns_the_callable(self):
        def fn(P):
            return P

        assert stacked(fn) is fn
        assert fn.fbk_stacked is True

    def test_one_call_per_stack_or_one_per_row(self):
        P = np.arange(12.0).reshape(4, 3)
        native, rows = [], []
        out = _on_stack(spied(lambda X: 2.0 * X, native), P, "manifold normal", 3)
        same = _on_stack(lambda x: rows.append(x.copy()) or 2.0 * x, P, "manifold normal", 3)
        assert native == [4] and len(rows) == 4
        assert np.array_equal(out, same) and np.array_equal(out, 2.0 * P)

    def test_params_reach_a_per_point_callable_as_floats(self):
        seen = []
        _on_stack(lambda t: seen.append(t) or [t, t], np.array([0.25, 0.5]), "resampler", 2)
        assert seen == [0.25, 0.5] and all(type(t) is float for t in seen)

    @pytest.mark.parametrize(
        "role", ["manifold normal", "resampler", "splitting field", "framing field", "middle row"]
    )
    def test_a_stack_callable_returning_one_row_fails(self, role):
        inputs = np.arange(4.0) / 4 if role == "resampler" else np.eye(4)
        one_row = stacked(lambda X: np.ones(4))
        with pytest.raises(EvaluationFailure) as info:
            _on_stack(one_row, inputs, role, 4)
        message = str(info.value)
        assert message.startswith(f"{role} returned shape (4,) ")
        assert f"inputs of shape {inputs.shape}" in message and "expected (4, 4)" in message

    @pytest.mark.parametrize("shape", [(3, 4), (4, 5), (4, 1), (1, 4)])
    def test_no_other_shape_is_broadcast(self, shape):
        with pytest.raises(EvaluationFailure, match=rf"returned shape \({shape[0]}, {shape[1]}\)"):
            _on_stack(stacked(lambda X: np.ones(shape)), np.eye(4), "manifold normal", 4)

    def test_values_of_a_trailing_shape(self):
        # a framing resampler's (count, N) values; the values of a
        # per-param callback that make one array of the wrong shape are
        # named by the first param
        ts = np.array([0.25, 0.5])
        out = _on_stack(lambda t: np.full((3, 4), t), ts, "framing resampler", 3, 4)
        assert out.shape == (2, 3, 4) and np.array_equal(out[:, 2, 3], ts)
        short = r"^framing resampler returned shape \(3, 3\) at parameter 0\.250000; "
        with pytest.raises(EvaluationFailure, match=short + r"expected \(3, 4\)$"):
            _on_stack(lambda t: np.ones((3, 3)), ts, "framing resampler", 3, 4)
        whole = r"returned shape \(2, 3, 3\) for inputs of shape \(2,\); expected \(2, 3, 4\)$"
        with pytest.raises(EvaluationFailure, match=whole):
            _on_stack(stacked(lambda ts: np.ones((len(ts), 3, 3))), ts, "framing resampler", 3, 4)

    def test_per_point_rows_are_checked_too(self):
        with pytest.raises(EvaluationFailure, match="middle row returned values"):
            _on_stack(lambda x: x[: 1 + int(x[0])], np.eye(3), "middle row", 3)
        with pytest.raises(EvaluationFailure, match=r"returned shape \(3, 2\)"):
            _on_stack(lambda x: x[:2], np.eye(3), "middle row", 3)

    def test_a_public_site_names_its_role(self):
        link = REGISTRY["pontryagin-circle"].link(
            resolve_options(REGISTRY["pontryagin-circle"], {})
        )
        [(loop, framing)] = link.components
        one_row = stacked(lambda P: np.array([1.0, 0.0, 0.0, 0.0]))
        with pytest.raises(EvaluationFailure, match=r"^middle row returned shape \(4,\)"):
            frame_matrix_loop(loop, framing, link.ambient, middle=one_row)
        ambient = AmbientPresentation(5, [one_row])
        loop5 = _circle_loop(32, 5)
        with pytest.raises(EvaluationFailure, match=r"^manifold normal returned shape \(4,\)"):
            frame_matrix_loop(loop5, great_circle_framing(loop5), ambient)
        with pytest.raises(EvaluationFailure, match=r"^resampler returned shape \(4,\)"):
            SampledLoop(loop.points, one_row, loop.params).with_samples(20)

    def test_row_norms_are_the_norms_of_the_rows(self, rng):
        for dim in (2, 3, 5, 8, 12):
            V = rng.normal(size=(64, 2 * dim))[:, ::2]  # strided rows
            expected = [np.linalg.norm(v) for v in V]
            assert np.array_equal(_row_norms(V), expected)
            assert [_norm(v) for v in V] == expected


class TestRegistryCallbacks:
    """The stack-native registry callbacks round as the per-point formulas they replace."""

    def test_sphere_normal(self, rng):
        [radial] = sphere_ambient(5).manifold_normals
        P = rng.normal(size=(200, 5))
        assert np.array_equal(radial(P), [p / np.linalg.norm(p) for p in P])

    def test_cylinder_normal(self, rng):
        [radial] = cylinder_ambient(5).manifold_normals
        P = rng.normal(size=(200, 5))
        expected = np.zeros_like(P)
        expected[:, :2] = P[:, :2] / np.hypot(P[:, 0], P[:, 1])[:, None]
        assert np.array_equal(radial(P), expected)
        assert np.all(radial(P)[:, 2:] == 0.0)

    def test_circle_points(self):
        # np.cos and math.cos agree to an ulp everywhere, and bit for bit on
        # the numpy 2 builds the report digests were compared on
        loop = _circle_loop(96, 5, clockwise=True, center=np.arange(5.0))
        expected = np.tile(np.arange(5.0), (96, 1))
        for k, t in enumerate(loop.params):
            a = 2.0 * math.pi * t
            expected[k, 0] += math.cos(a)
            expected[k, 1] -= math.sin(a)
        np.testing.assert_array_max_ulp(loop.points, expected, maxulp=1)

    def test_splitting_field(self, rng):
        X = rng.normal(size=(50, 6))
        X[3] = 0.0
        expected = [np.array([-x[1], x[0], -x[3], x[2], -x[5], x[4]]) for x in X]
        for V in (_s5_splitting(X), [_s5_splitting(x) for x in X]):
            assert np.array_equal(V, expected)
            assert np.array_equal(np.signbit(V), np.signbit(expected))

    def test_fields(self, rng):
        P = rng.normal(size=(10, 4))
        assert np.array_equal(_identity_field(P), P)
        assert np.array_equal(_constant_field(4, 2)(P), np.tile(np.eye(4)[2], (10, 1)))


class TestStackedSites:
    """Every stacked site against the same callbacks run point by point."""

    def test_sample_tangents(self):
        for loop in (_circle_loop(96, 5), stacked_knot(), _circle_loop(17, 4, clockwise=True)):
            tangents = loop._sample_tangents
            assert np.array_equal(tangents, pointwise_loop(loop)._sample_tangents)
            for k in (0, 5, len(loop) - 1):
                assert np.array_equal(loop.tangent(loop.params[k]), tangents[k])

    def test_tangents_take_one_resampler_call(self):
        calls = []
        loop = _circle_loop(96, 5)
        spy = SampledLoop(loop.points, spied(loop.resample, calls), loop.params)
        assert np.array_equal(spy._sample_tangents, loop._sample_tangents)
        assert calls == [192]

    def test_with_samples(self):
        loop = _circle_loop(96, 5)
        calls = []
        resampled = SampledLoop(loop.points, spied(loop.resample, calls), loop.params)
        assert np.array_equal(
            resampled.with_samples(50).points, pointwise_loop(loop).with_samples(50).points
        )
        assert calls == [50]

    @pytest.mark.parametrize("name", ["sphere-great-circle", "cylinder-spin"])
    def test_frames(self, name):
        link = REGISTRY[name].link(resolve_options(REGISTRY[name], {}))
        [(loop, framing)] = link.components
        ambient = link.ambient
        pointwise = AmbientPresentation(
            ambient.dimension, [per_point(n) for n in ambient.manifold_normals]
        )
        fields = great_circle_framing(loop, pointwise_constant_field)
        assert np.array_equal(fields.fields, framing.fields)
        native = frame_matrix_loop(_circle_loop(96, 5), framing, ambient)
        slow = frame_matrix_loop(pointwise_loop(_circle_loop(96, 5)), fields, pointwise)
        assert np.array_equal(native.samples, slow.samples)
        for t in (0.013, 0.5, 0.9871):
            assert np.array_equal(native.refiner(t), slow.refiner(t))

    def test_middle_rows(self):
        options = resolve_options(REGISTRY["pontryagin-circle"], {"turns": 1})
        [(loop, framing)] = REGISTRY["pontryagin-circle"].link(options).components
        # the clockwise circle's tangent, as a map of points
        middle = stacked(lambda P: np.stack([P[:, 1], -P[:, 0], 0 * P[:, 0], 0 * P[:, 0]], 1))
        ambient = euclidean_ambient(4)
        native = frame_matrix_loop(loop, framing, ambient, middle=middle)
        slow = frame_matrix_loop(loop, framing, ambient, middle=per_point(middle))
        assert np.array_equal(native.samples, slow.samples)
        for t in (0.013, 0.5, 0.9871):
            assert np.array_equal(native.refiner(t), slow.refiner(t))

    def test_transport_bases(self):
        loop = stacked_knot()
        [radial] = sphere_ambient(4).manifold_normals
        native = transport_closed_frame(loop, [radial])
        slow = transport_closed_frame(pointwise_loop(loop), [per_point(radial)])
        assert np.array_equal(native.fields, slow.fields)
        for t in (0.013, 0.5, 0.9871):
            assert np.array_equal(native.at(t), slow.at(t))

    def test_section_derivative_fields(self):
        spec, opts = _s5_problem(resolve_options(REGISTRY["s5-alt-section"], {}), alt=True)
        [loop] = _traced_components(_map_system(_section_map(spec)), opts)
        aux = transport_closed_frame(loop, sphere_ambient(6).manifold_normals)
        system = _map_system(_section_map(spec))
        slow_spec = SectionSpec(5, per_point(_s5_splitting), spec.section, spec.jacobian)
        native = _section_derivative_fields(spec, system, loop, aux)
        slow = _section_derivative_fields(slow_spec, system, loop, aux)
        assert np.array_equal(native.fields, slow.fields)
        for t in (0.013, 0.5):
            assert np.array_equal(native.at(t), slow.at(t))

    def test_copies_keep_the_declaration(self, rng):
        loop = _circle_loop(64, 4, center=[0.0, 0.0, 0.3, 0.0])
        slow = pointwise_loop(loop)
        Q = random_rotation(rng, 4)
        copies = (
            lambda c: c.cycled(5),
            lambda c: c.reversed(),
            lambda c: c.transformed(Q),
            lambda c: c.translated(np.array([0.1, 0.0, -0.2, 0.5])),
        )
        for make in copies:
            native, pointwise = make(loop), make(slow)
            assert native.resample.fbk_stacked is True
            assert np.array_equal(native.points, pointwise.points)
            assert np.array_equal(native._sample_tangents, pointwise._sample_tangents)
            ts = np.array([0.0, 0.3, 0.77])
            assert np.array_equal(native._points_at(ts), pointwise._points_at(ts))

    def test_transformed_points_round_as_a_matrix_vector_product(self, rng):
        loop = _circle_loop(64, 4)
        Q = random_rotation(rng, 4)
        moved = loop.transformed(Q)
        for t in (0.1, 0.45):
            assert np.array_equal(moved.point(t), Q @ loop.point(t))


class TestSectionInvariants:
    """The splitting field and the section are checked on one stack of samples."""

    def test_first_failing_sample_and_check(self):
        loop = _circle_loop(64, 6, center=np.zeros(6))
        _check_section_invariants(SectionSpec(5, _s5_splitting, _s5_section), loop)
        long_v = stacked(lambda X: 2.0 * _s5_splitting(X))
        with pytest.raises(ValidationError, match="unit tangent field"):
            _check_section_invariants(SectionSpec(5, long_v, _s5_splitting), loop)
        with pytest.raises(ValidationError, match="orthogonal to the splitting field"):
            _check_section_invariants(SectionSpec(5, _s5_splitting, _s5_splitting), loop)
        radial = lambda x: x  # noqa: E731 - a per-point section, not tangent
        with pytest.raises(ValidationError, match="orthogonal to the splitting field"):
            _check_section_invariants(SectionSpec(5, per_point(_s5_splitting), radial), loop)


class TestOneCallPerStack:
    def test_sphere_normal_once_per_frame_stack(self):
        loop = _circle_loop(96, 5)
        framing = great_circle_framing(loop)
        ambient = sphere_ambient(5)
        calls = []
        ambient.manifold_normals = [spied(ambient.manifold_normals[0], calls)]
        expected = frame_matrix_loop(loop, framing, sphere_ambient(5))
        assert np.array_equal(frame_matrix_loop(loop, framing, ambient).samples, expected.samples)
        assert calls == [96]

    def test_sphere_normal_once_per_transport_bases_stack(self):
        loop = stacked_knot(samples=64)
        [radial] = sphere_ambient(4).manifold_normals
        calls = []
        framing = transport_closed_frame(loop, [spied(radial, calls)])
        assert np.array_equal(framing.fields, transport_closed_frame(loop, [radial]).fields)
        assert calls == [64]

    @pytest.mark.parametrize("kind", ["sphere", "cylinder"])
    def test_load_link_takes_the_ambients_normals_once_per_component(self, kind, monkeypatch):
        calls = []
        real = getattr(framedlink, f"{kind}_ambient")

        def spying_ambient(*args):
            ambient = real(*args)
            ambient.manifold_normals = [spied(n, calls) for n in ambient.manifold_normals]
            return ambient

        monkeypatch.setattr(framedlink, f"{kind}_ambient", spying_ambient)
        components = []
        for center in (0.0, 1.5):
            loop = _circle_loop(40, 5, center=[0.0, 0.0, center, 0.0, 0.0])
            fields = great_circle_framing(loop).fields
            components.append({"points": loop.points.tolist(), "framing": fields.tolist()})
        if kind == "sphere":
            components = components[:1]
        load_link({"ambient": {"kind": kind, "dimension": 5}, "components": components})
        assert calls == [40] * len(components)


class TestPerPointCallbacksStillWork:
    @pytest.mark.parametrize(
        "name, overrides",
        [("sphere-great-circle", {}), ("cylinder-spin", {"spin": "nonstandard"})],
    )
    def test_undeclared_normal_gives_the_same_report(self, name, overrides):
        link = REGISTRY[name].link(resolve_options(REGISTRY[name], overrides))
        ambient = link.ambient

        def sphere_normal(p):
            return p / np.linalg.norm(p)

        def cylinder_normal(p):
            out = np.zeros_like(p)
            rho = math.hypot(p[0], p[1])
            out[0], out[1] = p[0] / rho, p[1] / rho
            return out

        normal = sphere_normal if ambient.kind == "sphere" else cylinder_normal
        pointwise = AmbientPresentation(
            ambient.dimension, [normal], ambient.spin_twist, ambient.kind, ambient.periodic_plane
        )
        [(loop, framing)] = link.components
        slow = FramedLink([(pointwise_loop(loop), framing)], pointwise)
        report = fbk.run_scenario(name, overrides).to_dict()
        assert invariant_report(slow).to_dict() == report
        assert invariant_report(link).to_dict() == report


class TestPublicCallablesTakeOnePoint:
    """fbk's own stack-native callables also map one point, or one param, to one row."""

    @pytest.mark.parametrize("ambient", [sphere_ambient(5), cylinder_ambient(5)])
    def test_normals(self, ambient, rng):
        [radial] = ambient.manifold_normals
        P = rng.normal(size=(8, 5))
        rows = radial(P)
        for p, row in zip(P, rows):
            assert radial(p).shape == (5,)
            assert np.array_equal(radial(p), row)
            assert np.array_equal(radial(p.tolist()), row)

    def test_circle_points(self):
        loop = _circle_loop(96, 5, center=np.arange(5.0))
        ts = np.array([0.0, 0.3, 0.77])
        for t, row in zip(ts, loop.resample(ts)):
            assert loop.resample(float(t)).shape == (5,)
            assert np.array_equal(loop.resample(float(t)), row)

    def test_copies(self, rng):
        @stacked
        def tangent(ts):
            a = 2.0 * math.pi * ts
            return np.stack([-np.sin(a), np.cos(a), 0 * a, 0 * a], axis=1)

        native = _circle_loop(64, 4)
        native = SampledLoop(native.points, native.resample, native.params, None, tangent)
        slow = SampledLoop(
            native.points, per_point(native.resample), native.params, None, per_point(tangent)
        )
        ts = np.array([0.0, 0.3, 0.77])
        for loop in (native, slow):
            for copy in (
                loop.cycled(5),
                loop.reversed(),
                loop.transformed(random_rotation(rng, 4)),
                loop.translated(np.array([0.1, 0.0, -0.2, 0.5])),
            ):
                points, tangents = copy._points_at(ts), copy._tangents_at(ts)
                for t, p, v in zip(ts.tolist(), points, tangents):
                    assert np.array_equal(copy.resample(t), p)
                    assert np.array_equal(copy.resample_tangent(t), v)
                    assert np.array_equal(copy.point(t), p)

    def test_a_tangent_resampler_alone_leaves_the_sample_tangents_chords(self):
        # sample tangents come from the resampler's central differences, or
        # from resample_tangent when the loop also has a resampler; a
        # resample_tangent alone does not replace the three-point tangents
        # of the samples (on these even samples, the unit chords)
        circle = _circle_loop(32, 4)
        sample_only = SampledLoop(circle.points, None, circle.params)._sample_tangents
        loop = SampledLoop(circle.points, None, circle.params, None, lambda t: np.eye(4)[0])
        assert np.array_equal(loop._sample_tangents, sample_only)
        assert np.array_equal(loop.tangent(0.3), np.eye(4)[0])


def reversed_framing(loop: SampledLoop, framing):
    """The loop and framing reversed, the framing's first field negated so the frames stay right-handed."""
    back = loop.reversed()
    flip = np.diag([-1.0] + [1.0] * (framing.count - 1))
    mix = lambda ts: np.broadcast_to(flip, (len(ts), *flip.shape))  # noqa: E731
    return back, _recombined(framing.reversed(), back.params, mix)


class TestStackedRefiners:
    """fbk's refiners are stack-native: a stack of params gives the bytes of each param alone."""

    PARAMS = np.array([0.013, 0.2371, 0.5, 0.77, 0.9871])

    def assert_stack_is_each_param(self, rl):
        assert rl.refiner.fbk_stacked is True
        with recording() as record:
            frames = rl.refiner(self.PARAMS)
        assert frames.shape == (len(self.PARAMS), rl.dim, rl.dim)
        for t, frame in zip(self.PARAMS.tolist(), frames):
            assert rl.refiner(t).tobytes() == frame.tobytes()
        return record

    def test_sample_loop_with_a_resampling_framing(self, rng):
        for name, overrides in (("sphere-great-circle", {}), ("pontryagin-circle", {"turns": 3})):
            link = REGISTRY[name].link(resolve_options(REGISTRY[name], overrides))
            [(loop, framing)] = link.components
            rl = frame_matrix_loop(loop, framing, link.ambient)
            record = self.assert_stack_is_each_param(rl)
            assert record == {"frames_assembled": len(self.PARAMS)}
            self.assert_stack_is_each_param(stabilize_loop(rl, rl.dim + 2))
        # the copies of the twisted Pontryagin circle
        Q = random_rotation(rng, 4)
        copies = [
            (loop.transformed(Q), framing.transformed(Q)),
            reversed_framing(loop, framing),
            (loop.cycled(5), cycled_with(framing, loop, 5)),
        ]
        for copy in copies:
            self.assert_stack_is_each_param(frame_matrix_loop(*copy, link.ambient))

    def test_traced_map_with_its_induced_framing(self):
        scenario = REGISTRY["suspended-hopf"]
        spec, opts = scenario.traced(resolve_options(scenario, {}))
        ambient = sphere_ambient(spec.dimension)
        loop = _traced_components(_map_system(spec), opts)[0]
        loop, framing = _oriented(loop, induced_framing(spec, loop), ambient)
        record = self.assert_stack_is_each_param(frame_matrix_loop(loop, framing, ambient))
        # one correction per param, and one Jacobian its tangent and its
        # pulled-back fields share
        assert record["newton_calls"] == len(self.PARAMS)
        assert record["jacobian_evaluations"] >= 2 * len(self.PARAMS)
        assert record["frames_assembled"] == len(self.PARAMS)
        self.assert_stack_is_each_param(frame_matrix_loop(*reversed_framing(loop, framing), ambient))

    def test_section_zero_circle_with_a_twisted_transport(self):
        spec, opts = _s5_problem(resolve_options(REGISTRY["s5-alt-section"], {}), alt=True)
        traced = _section_map(spec)
        [loop] = _traced_components(_map_system(traced), opts)
        ambient = sphere_ambient(6)
        parts = _section_parts(spec, _map_system(traced), loop, ambient, opts.tolerances, 1)
        calls = []
        for part in parts:
            rl = frame_matrix_loop(part.loop, part.framing, ambient, middle=part.middle)
            record = self.assert_stack_is_each_param(rl)
            calls.append(record.get("newton_calls", 0))
            assert record["frames_assembled"] == len(self.PARAMS)
        # one correction per param; both terms frame the one traced loop, so
        # the second term's refiner takes the first's corrected points
        assert calls == [len(self.PARAMS), 0]

    def test_an_undeclared_refiner_is_called_once_per_param(self):
        calls = []
        link = REGISTRY["sphere-great-circle"].link(
            resolve_options(REGISTRY["sphere-great-circle"], {"samples": 16})
        )
        [(loop, framing)] = link.components
        rl = frame_matrix_loop(loop, framing, link.ambient)
        stack = []
        per_param = RotationLoop(rl.samples, lambda t: calls.append(t) or rl.refiner(t), rl.params)
        native = RotationLoop(rl.samples, spied(rl.refiner, stack), rl.params)
        tol = Tolerances(lift_angle_max=0.05)
        with recording() as slow:
            bit = loop_class(per_param, tol)
        with recording() as fast:
            assert loop_class(native, tol) == bit
        assert slow == fast and slow["refinement_depth"] == 3
        # one call per refinement level, and the same params one at a time
        assert len(stack) == 3 and sum(stack) == len(calls) == slow["lift_steps"] - 16
        assert all(type(t) is float for t in calls)

    def test_a_stack_of_the_wrong_length_is_a_dimension_mismatch(self):
        link = REGISTRY["sphere-great-circle"].link(
            resolve_options(REGISTRY["sphere-great-circle"], {"samples": 16})
        )
        [(loop, framing)] = link.components
        rl = frame_matrix_loop(loop, framing, link.ambient)
        # every step of 22.5 degrees is split once under a bound of 0.3
        short = RotationLoop(rl.samples, stacked(lambda ts: rl.refiner(ts)[1:]), rl.params)
        with pytest.raises(DimensionMismatch, match="^refiner returned 15 values for 16 params$"):
            loop_class(short, Tolerances(lift_angle_max=0.3))
