import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from conftest import (
    cycled_with,
    framing_from_callables,
    random_rotation,
    standard_framing,
    wavy_circle,
)
from fbk import framedlink
from fbk.errors import (
    AmbientMismatch,
    EvaluationFailure,
    NotNearIdentity,
    OrientationMismatch,
    ParseError,
    RankDeficient,
    RefinementExhausted,
    TooFewFields,
    ValidationError,
)
from fbk.framedlink import (
    AmbientPresentation,
    FramedLink,
    _check_disjoint,
    NormalFraming,
    SampledLoop,
    cylinder_ambient,
    delta_pontryagin,
    euclidean_ambient,
    frame_matrix_loop,
    index_of_circle,
    invariant_report,
    kappa,
    load_link,
    load_link_file,
    sphere_ambient,
    twist_framing,
    winding_number,
    winding_parity,
)
from fbk.numkit import DEFAULT_TOL, Tolerances, _values, recording, stacked
from fbk.spinlift import RotationLoop, Z2, loop_class
from numref import check_disjoint, three_point_tangents


def plane_circle(samples: int, dim: int, clockwise: bool = False, center=None) -> SampledLoop:
    offset = np.zeros(dim) if center is None else np.asarray(center, dtype=float)
    sign = -1.0 if clockwise else 1.0

    def point(t: float) -> np.ndarray:
        a = 2.0 * math.pi * (t % 1.0)
        p = offset.copy()
        p[0] += math.cos(a)
        p[1] += sign * math.sin(a)
        return p

    pts = np.array([point(k / samples) for k in range(samples)])
    return SampledLoop(pts, point, [k / samples for k in range(samples)])


def constant_framing(loop: SampledLoop, indices) -> NormalFraming:
    dim = loop.dimension
    fns = []
    for i in indices:
        e = np.zeros(dim)
        e[i] = 1.0
        fns.append(lambda p, t, e=e: e)
    return framing_from_callables(loop, fns)


def pontryagin_link(samples: int = 96, turns: int = 0) -> FramedLink:
    loop = plane_circle(samples, 4, clockwise=True)
    framing = standard_framing(loop, 4)
    if turns:
        framing = twist_framing(loop, framing, turns)
    return FramedLink([(loop, framing)], euclidean_ambient(4))


def crossing_circles(shift: float = 0.0) -> tuple:
    """Two framed 32-sample circles in R^3 whose chords cross, moved apart by shift.

    The first circle runs clockwise in the (0, 1) plane; the second lies
    in a plane parallel to (0, 2), placed so that its chord (15, 16) has
    the midpoint m of the first circle's chord (0, 1), and crosses it there
    at a right angle. shift moves the second circle along e_0, which puts
    the chords |shift| cos(pi / 32) apart and no other points closer. Each
    circle is framed by its radial field and the constant normal of its
    plane, so both frames are right-handed.
    """
    samples = 32
    first = plane_circle(samples, 3, clockwise=True)
    mid = 0.5 * (first.points[0] + first.points[1])
    ang = 2.0 * math.pi * (np.arange(samples) + 0.5) / samples
    radial = np.stack([np.cos(ang), np.zeros(samples), np.sin(ang)], axis=1)
    center = mid + np.array([math.cos(math.pi / samples) + shift, 0.0, 0.0])
    second = SampledLoop(center + radial)
    return (
        (first, standard_framing(first, 3)),
        (second, NormalFraming([radial, np.tile([0.0, 1.0, 0.0], (samples, 1))])),
    )


class TestSampledLoop:
    def test_too_few_samples(self):
        pts = [[math.cos(a), math.sin(a)] for a in np.linspace(0, 5, 8)]
        with pytest.raises(ValidationError):
            SampledLoop(np.array(pts))

    def test_repeated_point(self):
        pts = np.array([[math.cos(a), math.sin(a), 0.0] for a in np.linspace(0, 6, 20)])
        pts[5] = pts[4]
        with pytest.raises(ValidationError):
            SampledLoop(pts)

    def test_length_of_unit_circle(self):
        loop = plane_circle(256, 3)
        assert loop.length() == pytest.approx(2 * math.pi, rel=1e-3)

    def test_steps_are_built_once_and_match_rolled_arrays(self, rng, monkeypatch):
        # the segment lengths as np.roll built them, bit for bit, formed once
        # per loop; the sample tangents are numref's three-point tangents to
        # rounding
        pts = rng.normal(size=(40, 5))
        loop = SampledLoop(pts)
        rolled = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
        cum = np.concatenate([[0.0], np.cumsum(rolled)])
        monkeypatch.setattr(np.linalg, "norm", None)
        assert loop.length() == float(np.sum(rolled))
        assert np.array_equal(loop.arc_fractions(), cum[:-1] / cum[-1])
        monkeypatch.undo()
        assert np.max(np.abs(loop._sample_tangents - three_point_tangents(pts))) < 1e-12

    def test_three_point_tangents_are_second_order_on_uneven_spacing(self, rng):
        # a closed space curve sampled at randomly jittered params: from 64
        # to 512 samples the three-point tangents' largest error falls as
        # h^2 (about 64 times), the chords' only as h (about 8 times)
        def curve(s):
            a = 2.0 * math.pi * s
            P = np.stack([np.cos(a), np.sin(a), 0.3 * np.sin(2 * a), 0.2 * np.cos(3 * a)], 1)
            D = np.stack([-np.sin(a), np.cos(a), 0.6 * np.cos(2 * a), -0.6 * np.sin(3 * a)], 1)
            return P, D / np.linalg.norm(D, axis=1, keepdims=True)

        errors = {}
        for n in (64, 512):
            s = np.sort((np.arange(n) + rng.uniform(-0.4, 0.4, size=n)) / n % 1.0)
            P, exact = curve(s)
            chords = np.roll(P, -1, axis=0) - np.roll(P, 1, axis=0)
            chords /= np.linalg.norm(chords, axis=1, keepdims=True)
            tangents = three_point_tangents(P)
            assert np.max(np.abs(SampledLoop(P)._sample_tangents - tangents)) < 1e-12
            errors[n] = [np.max(np.linalg.norm(T - exact, axis=1)) for T in (tangents, chords)]
        assert errors[512][0] < errors[64][0] / 32
        assert errors[512][1] > errors[64][1] / 16

    def test_resample_and_tangent(self):
        loop = plane_circle(64, 3)
        p = loop.point(0.25)
        assert np.allclose(p, [0, 1, 0], atol=1e-12)
        t = loop.tangent(0.0)
        assert np.allclose(t, [0, 1, 0], atol=1e-4)


def tilted_circle_with_tangents(samples: int = 48, dim: int = 4) -> SampledLoop:
    """Unit circle in a tilted plane, unevenly sampled, carrying its exact tangents.

    The resampler is the exact parametrization, so the central-difference
    tangent(t) is exact up to rounding as well (chords of a circle taken
    symmetrically about a point are parallel to the tangent there).
    """
    u = np.zeros(dim)
    u[0] = 1.0
    v = np.zeros(dim)
    v[1], v[2] = 0.6, 0.8

    def point(t: float) -> np.ndarray:
        a = 2.0 * math.pi * (t % 1.0)
        return math.cos(a) * u + math.sin(a) * v

    k = np.arange(samples)
    params = (k + 0.3 * np.sin(2.0 * math.pi * k / samples)) / samples
    ang = 2.0 * math.pi * params
    tangents = -np.sin(ang)[:, None] * u + np.cos(ang)[:, None] * v
    return SampledLoop(np.array([point(t) for t in params]), point, list(params), tangents)


class TestCarriedTangents:
    def test_copies_carry_the_tangents_of_their_geometry(self, rng):
        loop = tilted_circle_with_tangents()
        Q = random_rotation(rng, 4)
        copies = {
            "cycled": loop.cycled(7),
            "reversed": loop.reversed(),
            "transformed": loop.transformed(Q),
            "translated": loop.translated(np.array([3.0, -1.0, 0.5, 2.0])),
        }
        for name, moved in copies.items():
            assert moved.tangents is not None, name
            difference = np.array([moved.tangent(t) for t in moved.params])
            assert np.max(np.abs(moved.tangents - difference)) < 1e-6, name
            assert np.min(np.einsum("kn,kn->k", moved.tangents, difference)) > 0.0, name
            assert np.allclose(np.linalg.norm(moved.tangents, axis=1), 1.0), name

    def test_with_samples_drops_the_tangents(self):
        loop = tilted_circle_with_tangents()
        assert loop.with_samples(32).tangents is None

    def test_tangents_are_read_only_copies(self):
        given = tilted_circle_with_tangents().tangents.copy()
        loop = SampledLoop(tilted_circle_with_tangents().points, tangents=given)
        with pytest.raises(ValueError):
            loop.tangents[0, 0] = 1.0
        given[:] = 0.0
        assert np.all(np.linalg.norm(loop.tangents, axis=1) > 0.5)
        row = loop.tangent_at_sample(3)
        row[:] = 0.0
        assert np.any(loop.tangent_at_sample(3) != 0.0)

    def test_wrong_shape_or_non_finite_tangents(self):
        loop = tilted_circle_with_tangents()
        with pytest.raises(ValidationError, match="shape"):
            SampledLoop(loop.points, tangents=loop.tangents[:-1])
        with pytest.raises(ValidationError, match="shape"):
            SampledLoop(loop.points, tangents=loop.tangents[:, :3])
        broken = loop.tangents.copy()
        broken[5, 1] = np.nan
        with pytest.raises(ValidationError, match="finite"):
            SampledLoop(loop.points, tangents=broken)

    def test_sample_frames_never_resample(self):
        # the sample path reads the carried tangents; only the refiner resamples
        loop = tilted_circle_with_tangents()
        calls = []

        def counted(t):
            calls.append(t)
            return loop.resample(t)

        carried = SampledLoop(loop.points, counted, loop.params, loop.tangents)
        framing = NormalFraming([f.copy() for f in _tilted_circle_framing(loop)])
        frame_matrix_loop(carried, framing, euclidean_ambient(4))
        assert calls == []


class TestStackedFraming:
    def test_list_and_stack_give_one_framing(self):
        loop = tilted_circle_with_tangents()
        fields = _tilted_circle_framing(loop)
        from_list = NormalFraming(fields)
        from_stack = NormalFraming(np.array(fields))
        assert from_list.fields.shape == (3, len(loop), 4)
        assert np.array_equal(from_list.fields, from_stack.fields)

    def test_fields_are_a_read_only_copy(self):
        loop = tilted_circle_with_tangents()
        given = np.array(_tilted_circle_framing(loop))
        framing = NormalFraming(given)
        with pytest.raises(ValueError):
            framing.fields[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            framing.at_sample(3)[0, 0] = 1.0
        given[:] = 0.0
        assert np.all(np.linalg.norm(framing.fields, axis=2) > 0.5)
        assert framing.at_sample(3).shape == (3, 4)
        assert np.array_equal(framing.at_sample(3), framing.fields[:, 3])

    def test_field_validation_messages(self):
        loop = tilted_circle_with_tangents()
        fields = _tilted_circle_framing(loop)
        with pytest.raises(ValidationError, match="at least one field"):
            NormalFraming([])
        with pytest.raises(ValidationError, match="samples x dim"):
            NormalFraming(fields[0])
        with pytest.raises(ValidationError, match="share one shape"):
            NormalFraming([fields[0], fields[1][:-1]])
        broken = np.array(fields)
        broken[1, 7, 2] = np.inf
        with pytest.raises(ValidationError, match="finite"):
            NormalFraming(broken)


class TestSegmentLookup:
    def test_sample_params_start_their_segment(self, rng):
        params = np.sort(rng.uniform(0.05, 0.95, 40))
        loop = SampledLoop(plane_circle(40, 3).points, params=params)
        for i, t in enumerate(loop.params):
            assert loop._segment(t) == (i, 0.0)

    def test_params_before_the_first_sample_wrap_to_the_last_segment(self):
        k = 20
        params = [0.1 + 0.8 * i / k for i in range(k)]
        loop = SampledLoop(plane_circle(k, 3).points, params=params)
        for t in (0.05, -0.95):
            i, w = loop._segment(t)
            assert i == k - 1
            assert w == pytest.approx((1.05 - params[-1]) / (1.1 - params[-1]))


def _tilted_circle_framing(loop: SampledLoop) -> list:
    """Radial field, the plane's normal inside span(e1, e2), and e3 (right-handed)."""
    w = np.array([0.0, 0.8, -0.6, 0.0])
    k = len(loop)
    fields = [loop.points.copy(), np.tile(w, (k, 1)), np.tile(np.eye(4)[3], (k, 1))]
    rows = np.stack([loop.tangents, *fields], axis=1)
    if np.linalg.det(rows[0]) < 0.0:
        fields[2] = -fields[2]
    return fields


class TestFrameMatrixLoop:
    def test_non_finite_middle_row_names_its_sample(self):
        loop = plane_circle(32, 4, clockwise=True)
        framing = standard_framing(loop, 4)
        bad = loop.points[5].copy()

        def middle(p):
            out = np.array([-p[1], p[0], 0.0, 0.0])
            return np.full(4, np.nan) if np.array_equal(p, bad) else out

        with pytest.raises(EvaluationFailure, match=r"non-finite middle row at sample 5"):
            frame_matrix_loop(loop, framing, euclidean_ambient(4), middle=middle)

    def test_non_finite_manifold_normal_names_its_sample(self):
        loop = plane_circle(32, 5)
        framing = constant_framing(loop, (2, 3, 4))
        bad = loop.points[9].copy()

        def normal(p):
            return np.full(5, np.inf) if np.array_equal(p, bad) else p / np.linalg.norm(p)

        ambient = sphere_ambient(5)
        ambient.manifold_normals = [normal]
        with pytest.raises(EvaluationFailure, match=r"non-finite manifold normal at sample 9"):
            frame_matrix_loop(loop, framing, ambient)

    def test_standard_circle_closed_form(self):
        # rows [tangent, radial, e3, e4] of the clockwise unit circle have
        # the closed form below; assembly should reproduce it exactly
        loop = plane_circle(64, 4, clockwise=True)
        framing = standard_framing(loop, 4)
        rl = frame_matrix_loop(loop, framing, euclidean_ambient(4))
        for k in [0, 7, 33]:
            a = 2 * math.pi * k / 64
            c, s = math.cos(a), math.sin(a)
            expected = np.array(
                [
                    [-s, -c, 0, 0],
                    [c, -s, 0, 0],
                    [0, 0, 1, 0],
                    [0, 0, 0, 1],
                ]
            )
            assert np.max(np.abs(rl.samples[k] - expected)) < 1e-6

    def test_great_circle_closed_form(self):
        loop = plane_circle(64, 5)
        framing = constant_framing(loop, (2, 3, 4))
        rl = frame_matrix_loop(loop, framing, sphere_ambient(5))
        for k in [0, 11]:
            a = 2 * math.pi * k / 64
            c, s = math.cos(a), math.sin(a)
            expected = np.eye(5)
            expected[0, :2] = [c, s]
            expected[1, :2] = [-s, c]
            assert np.max(np.abs(rl.samples[k] - expected)) < 1e-6

    def test_orientation_mismatch_on_negated_field(self):
        loop = plane_circle(64, 4, clockwise=True)
        framing = standard_framing(loop, 4)
        bad = NormalFraming(
            [framing.fields[0], framing.fields[1], -framing.fields[2]], None
        )
        with pytest.raises(OrientationMismatch):
            frame_matrix_loop(loop, bad, euclidean_ambient(4))

    def test_rank_drop_names_its_sample(self):
        # the first field turns parallel to the chord tangent at sample 17 only
        circle = plane_circle(64, 4, clockwise=True)
        loop = SampledLoop(circle.points)
        fields = [f.copy() for f in standard_framing(circle, 4).fields]
        fields[0][17] = loop.tangent_at_sample(17)
        with pytest.raises(RankDeficient, match=r"at sample 17: vector 1 of set 17 "):
            frame_matrix_loop(loop, NormalFraming(fields), euclidean_ambient(4))

    def test_extra_framing_field_is_rank_deficient(self):
        # five rows cannot be independent in R^4, at any sample
        loop = plane_circle(32, 4, clockwise=True)
        fields = [*standard_framing(loop, 4).fields, loop.points]
        with pytest.raises(RankDeficient, match=r"at sample 0: 5 vectors cannot be independent"):
            frame_matrix_loop(loop, NormalFraming(fields), euclidean_ambient(4))

    def test_missing_framing_field_is_a_validation_error(self):
        # two of the three fields R^4 needs: the frames would not be square
        loop = plane_circle(32, 4, clockwise=True)
        framing = NormalFraming(standard_framing(loop, 4).fields[:2])
        message = r"^framing has 2 fields, ambient requires 3$"
        for compute in (frame_matrix_loop, index_of_circle):
            with pytest.raises(ValidationError, match=message):
                compute(loop, framing, euclidean_ambient(4))

    def test_framing_resampler_of_the_wrong_shape(self):
        # the coarse twisted circle refines; its framing resampler drops a
        # coordinate, and every copy of the framing calls it through at()
        loop = plane_circle(16, 4, clockwise=True)
        framing = twist_framing(loop, standard_framing(loop, 4), 3)
        broken = NormalFraming(framing.fields, lambda t: framing.at(t)[:, :3])
        shape = r"framing resampler returned shape \(3, 3\) at parameter 0\.\d{6}; "
        shape += r"expected \(3, 4\)"
        with pytest.raises(EvaluationFailure, match=shape):
            index_of_circle(loop, broken, euclidean_ambient(4))
        copies = (broken.reversed(), broken.transformed(np.eye(4)), twist_framing(loop, broken, 1))
        for copy in copies:
            with pytest.raises(EvaluationFailure, match=shape):
                copy.at(0.3)

    def test_ragged_framing_resampler(self):
        # the coarse circle refines under a step cap of 0.1; a resampler whose
        # rows hold 4, 3 and 4 numbers returns no float array
        loop = plane_circle(16, 4, clockwise=True)
        framing = standard_framing(loop, 4)
        tol = Tolerances(lift_angle_max=0.1)
        assert index_of_circle(loop, framing, euclidean_ambient(4), tol) == Z2(0)

        def ragged(t):
            rows = framing.at(t).tolist()
            return [rows[0], rows[1][:3], rows[2]]

        message = "framing resampler returned values that are not one float array"
        with pytest.raises(EvaluationFailure, match=message):
            index_of_circle(loop, NormalFraming(framing.fields, ragged), euclidean_ambient(4), tol)

    def test_orientation_flip_names_first_negative_sample(self):
        loop = plane_circle(64, 4, clockwise=True)
        fields = [f.copy() for f in standard_framing(loop, 4).fields]
        fields[2][40:] *= -1.0
        fields[2][23] *= -1.0
        with pytest.raises(OrientationMismatch, match=r"at sample 23;"):
            frame_matrix_loop(loop, NormalFraming(fields), euclidean_ambient(4))

    def test_refiner_errors_name_the_parameter(self):
        loop = plane_circle(64, 4, clockwise=True)
        framing = standard_framing(loop, 4)
        flipped = NormalFraming(framing.fields, lambda t: -framing.resample(t))
        rl = frame_matrix_loop(loop, flipped, euclidean_ambient(4))
        with pytest.raises(OrientationMismatch, match=r"at parameter 0\.250000;"):
            rl.refiner(0.25)

    def test_batched_frames_match_single_frames(self, rng):
        # the sample stack and the refiner's one-frame stack give the same frames
        loop = wavy_circle(rng, dim=6, samples=48)
        framing = standard_framing(loop, 6)
        rl = frame_matrix_loop(loop, framing, euclidean_ambient(6))
        for k in (0, 13, 47):
            assert np.max(np.abs(rl.refiner(loop.params[k]) - rl.samples[k])) < 1e-12

    def test_frames_assembled_per_component(self):
        base = pontryagin_link(samples=64)
        loop, framing = base.components[0]
        far = loop.translated(np.array([4.0, 0, 0, 0]))
        link = FramedLink([(loop, framing), (far, framing)], base.ambient)
        with recording() as record:
            invariant_report(link)
        assert record["frames_assembled"] == 2 * 64
        assert record["lift_steps"] == 2 * 64

    def test_frame_stacks_are_checked_once(self, monkeypatch):
        # the frames are the Q of _assemble_frame's QR with their determinants
        # tested, and the SampledLoop checked the params: the rotation loop is
        # built without either test running again
        import fbk.spinlift as spinlift

        calls = []
        for name in ("_check_special_orthogonal", "_checked_params"):

            def spy(*args, real=getattr(spinlift, name), name=name):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(spinlift, name, spy)
        loop = plane_circle(32, 4, clockwise=True)
        rl = frame_matrix_loop(loop, standard_framing(loop, 4), euclidean_ambient(4))
        assert calls == []
        assert rl.params == loop.params and rl.samples.shape == (32, 4, 4)
        # a loop built by hand from the same stack runs both
        again = RotationLoop(rl.samples, None, rl.params)
        assert calls == ["_check_special_orthogonal", "_checked_params"]
        assert np.array_equal(again.samples, rl.samples) and again.params == rl.params

    def test_frames_assembled_counts_refiner_evaluations(self):
        # three turns of the framing on 16 samples: every step is split, and
        # each split is one refiner evaluation and one more lifted step
        loop = plane_circle(16, 4, clockwise=True)
        framing = twist_framing(loop, standard_framing(loop, 4), 3)
        with recording() as record:
            assert index_of_circle(loop, framing, euclidean_ambient(4)) == Z2(1)
        assert record["refinement_depth"] >= 1
        assert record["frames_assembled"] == record["lift_steps"] > 16


def _load_tool(path: str):
    """The module at path, loaded once under a name of its own."""
    import importlib.util
    import sys

    name = "_tool_" + os.path.basename(path)[:-3]
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        # dataclasses look their module up by name while the class is built
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


class TestPrecheckedFrameStacks:
    """frame_matrix_loop's rotation loops skip the SO(m) and params tests, and need neither.

    Every stack it returns, on every framed scenario run (the registry and the
    acceptance overrides), on the link documents the report digest reads and
    on the link-files benchmark documents, meets the RotationLoop contract:
    orthogonality defect at most 1e-8, determinant positive, params strictly
    increasing in [0, 1).
    """

    @pytest.fixture
    def stacks(self, monkeypatch):
        caught = []
        build = RotationLoop._prechecked.__func__

        def spy(cls, *args):
            caught.append(build(cls, *args))
            return caught[-1]

        monkeypatch.setattr(RotationLoop, "_prechecked", classmethod(spy))
        return caught

    @staticmethod
    def assert_contract(loops):
        assert loops
        for rl in loops:
            S = rl.samples
            defect = np.abs(S.transpose(0, 2, 1) @ S - np.eye(rl.dim)).max(axis=(1, 2))
            assert np.all(defect <= 1e-8)
            assert np.all(np.linalg.det(S) > 0.0)
            t = np.array(rl.params)
            assert t.shape == (len(S),) and t[0] >= 0.0 and t[-1] < 1.0
            assert np.all(np.diff(t) > 0.0)

    def test_scenario_runs(self, stacks):
        from fbk.scenarios import run_scenario
        from test_scenarios import TABLE

        for name, overrides, *_ in TABLE:
            stacks.clear()
            run_scenario(name, overrides)
            self.assert_contract(stacks)

    def test_link_documents(self, stacks, tmp_path):
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        digest = _load_tool(os.path.join(repo, "tools", "report_digest.py"))
        workloads = _load_tool(os.path.join(repo, "perfbench", "workloads.py"))
        links = [
            (load_link(doc), digest.expected_exit(["link", name]))
            for name, doc in digest.link_documents().items()
        ]
        for case in workloads.build_cases("link-files", 7, str(tmp_path)):
            path = os.path.join(tmp_path, "links-seed7", f"{case.case_id}.json")
            links.append((load_link_file(path), 0))
        for link, code in links:
            stacks.clear()
            if code:
                # a document that fails on purpose fails in the lift, after its frames
                with pytest.raises(RefinementExhausted):
                    invariant_report(link)
            else:
                invariant_report(link)
            self.assert_contract(stacks)


class TestIndexOfCircle:
    def test_standard_circle_bounds_a_disc(self):
        link = pontryagin_link()
        loop, framing = link.components[0]
        assert index_of_circle(loop, framing, link.ambient) == Z2(0)

    def test_twisted_framing_flips(self):
        link = pontryagin_link(turns=1)
        loop, framing = link.components[0]
        assert index_of_circle(loop, framing, link.ambient) == Z2(1)

    def test_twist_takes_whole_turns_only(self):
        loop, framing = pontryagin_link().components[0]
        for turns in (1.5, -0.25, math.nan):
            with pytest.raises(ValidationError, match="whole number of turns"):
                twist_framing(loop, framing, turns)
        once = twist_framing(loop, framing, 1)
        for turns in (np.int64(1), 1.0):
            assert np.array_equal(twist_framing(loop, framing, turns).fields, once.fields)

    def test_great_circle_in_sphere(self):
        loop = plane_circle(96, 5)
        framing = constant_framing(loop, (2, 3, 4))
        assert index_of_circle(loop, framing, sphere_ambient(5)) == Z2(0)


class TestFramedLinkChecks:
    # a link built in code and a link file (test_cli) meet these
    @pytest.mark.parametrize(
        "dim, fields, samples, width, message",
        [
            (3, 2, 96, 3, "component 0: points live in R^3, ambient is R^4"),
            (4, 2, 96, 4, "component 0: framing has 2 fields, ambient requires 3"),
            (4, 3, 48, 4, "component 0: framing sampled at 48 points, loop at 96"),
            (4, 3, 96, 5, "component 0: framing vectors have the wrong dimension"),
        ],
    )
    def test_malformed_component(self, dim, fields, samples, width, message):
        loop = plane_circle(96, dim)
        framing = NormalFraming(np.ones((fields, samples, width)))
        with pytest.raises(ValidationError) as caught:
            FramedLink([(loop, framing)], euclidean_ambient(4))
        assert str(caught.value) == message


class TestKappa:
    def test_empty_link(self):
        assert kappa(FramedLink([], euclidean_ambient(4))) == Z2(0)

    def test_two_twisted_circles_cancel(self):
        base = pontryagin_link(turns=1)
        loop, framing = base.components[0]
        far = loop.translated(np.array([4.0, 0, 0, 0]))
        link = FramedLink([(loop, framing), (far, framing)], base.ambient)
        assert kappa(link) == Z2(0)

    def test_touching_components_rejected(self):
        loop, framing = pontryagin_link().components[0]
        with pytest.raises(ValidationError, match="disjoint"):
            FramedLink([(loop, framing), (loop, framing)], euclidean_ambient(4))
        # a circle in the (0, 2) plane whose sample 48 is the midpoint of the
        # first segment of the other: it meets that polyline, not its samples
        mid = 0.5 * (loop.points[0] + loop.points[1])
        ring = plane_circle(96, 4, center=[mid[0] + 1.0, 0.0, mid[1], 0.0])
        ring = SampledLoop(ring.points[:, [0, 2, 1, 3]])
        with pytest.raises(ValidationError, match="component 1: sample 48"):
            FramedLink([(loop, framing), (ring, framing)], euclidean_ambient(4))
        near = loop.translated(np.array([0.0, 0.0, 1e-3, 0.0]))
        assert kappa(FramedLink([(loop, framing), (near, framing)], euclidean_ambient(4))) == Z2(0)

    def test_touching_names_the_first_sample(self):
        # sample 0 of the first circle and sample 32 of the second face each
        # other along coordinate 0, where the sweep runs: their segments'
        # intervals there meet only once widened by the separation
        loop = plane_circle(64, 4)
        framing = constant_framing(loop, (1, 2, 3))
        near = plane_circle(64, 4, center=[2.0 + 1e-6, 0.0, 0.0, 0.0])
        with pytest.raises(ValidationError, match="^component 0: sample 0 lies within 2.0e-06 "):
            FramedLink([(loop, framing), (near, framing)], euclidean_ambient(4))
        far = plane_circle(64, 4, center=[2.0 + 4e-6, 0.0, 0.0, 0.0])
        FramedLink([(loop, framing), (far, framing)], euclidean_ambient(4))
        # every sample of a repeated circle touches; the first is named
        with pytest.raises(ValidationError, match="^component 0: sample 0 lies within 1.0e-06 "):
            FramedLink([(loop, framing), (loop, framing)], euclidean_ambient(4))

    def test_dense_linked_components_in_bounded_memory(self):
        # a Hopf link: the two circles' bounding boxes overlap, so every
        # sample is compared with every segment of the other circle; all
        # 4000 x 4000 distances at once would need 128 MB per temporary
        samples = 4000
        loop = plane_circle(samples, 4)
        framing = constant_framing(loop, (1, 2, 3))
        ring = plane_circle(samples, 4, center=[1.0, 0.0, 0.0, 0.0]).points[:, [0, 2, 1, 3]]
        tracemalloc.start()
        try:
            FramedLink([(loop, framing), (SampledLoop(ring), framing)], euclidean_ambient(4))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64e6
        # a sample far from the first block lands on the other polyline
        ring[3000] = 0.5 * (loop.points[1000] + loop.points[1001])
        with pytest.raises(ValidationError, match="component 1: sample 3000 "):
            FramedLink([(loop, framing), (SampledLoop(ring), framing)], euclidean_ambient(4))

    def test_dense_hopf_link_of_20000_samples(self):
        # the sweep's candidate pairs grow with the samples, not their square:
        # the all-pairs check took about 30 s here
        samples = 20000
        ang = 2.0 * math.pi * np.arange(samples) / samples
        circle = np.zeros((samples, 4))
        circle[:, 0], circle[:, 1] = np.cos(ang), np.sin(ang)
        ring = np.zeros((samples, 4))
        ring[:, 0], ring[:, 2] = 1.0 + np.cos(ang), np.sin(ang)
        framing = NormalFraming(np.broadcast_to(np.eye(4)[1:, None], (3, samples, 4)))
        loop = SampledLoop(circle)
        tracemalloc.start()
        try:
            with recording() as record:
                FramedLink([(loop, framing), (SampledLoop(ring), framing)], euclidean_ambient(4))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64e6
        assert record["disjoint_pairs"] < 10 * 2 * samples
        ring[15000] = 0.5 * (circle[4000] + circle[4001])
        with pytest.raises(ValidationError, match="component 1: sample 15000 "):
            FramedLink([(loop, framing), (SampledLoop(ring), framing)], euclidean_ambient(4))

    def test_crossing_components_rejected(self):
        # no sample of either circle is near the other, but their chords
        # (0, 1) and (15, 16) cross at their common midpoint
        first, second = crossing_circles()
        with pytest.raises(
            ValidationError,
            match="component 0: segment 0 comes within 2.0e-06 of component 1: segment 15; "
            "components must be disjoint",
        ):
            FramedLink([first, second], euclidean_ambient(3))
        for shift in (0.02, -0.02, 1e-3, -1e-3):
            link = FramedLink(list(crossing_circles(shift)), euclidean_ambient(3))
            assert len(invariant_report(link).components) == 2

    def test_disjointness_agrees_with_brute_force(self, rng):
        # random polylines in a box of radius below 1, so the separation is
        # 1e-6; some with a sample or a crossing segment planted at half or
        # twice that distance from a segment of another component
        seen = set()
        for _ in range(120):
            dim, count = int(rng.integers(3, 6)), int(rng.integers(2, 5))
            sets = [rng.uniform(-0.3, 0.3, size=(int(rng.integers(16, 40)), dim))
                    for _ in range(count)]
            plant = int(rng.integers(0, 3))
            if plant:
                n, m = rng.choice(count, 2, replace=False)
                j = int(rng.integers(len(sets[m])))
                a, d = sets[m][j], sets[m][(j + 1) % len(sets[m])] - sets[m][j]
                on = a + rng.uniform(0.1, 0.9) * d
                off, across = np.linalg.qr(np.stack([d, *rng.normal(size=(2, dim))]).T)[0].T[1:]
                off *= rng.choice([0.5, 2.0]) * 1e-6
                i = int(rng.integers(len(sets[n])))
                if plant == 1:
                    sets[n][i] = on + off
                else:
                    sets[n][i] = on + off + 0.05 * across
                    sets[n][(i + 1) % len(sets[n])] = on + off - 0.05 * across
            outcomes = []
            for check in (_check_disjoint, check_disjoint):
                try:
                    check(sets)
                    outcomes.append(None)
                except ValidationError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]
            seen.add(outcomes[0] and outcomes[0].split(" ")[2])
        assert seen == {None, "sample", "segment"}

    def test_cylinder_two_circles_spin_independent(self):
        comps = []
        for c, center in enumerate([np.zeros(5), np.array([0, 0, 1.5, 0, 0.0])]):
            loop = plane_circle(96, 5, center=center)
            comps.append((loop, constant_framing(loop, (2, 3, 4))))
        k_std = kappa(FramedLink(comps, cylinder_ambient(5, "standard")))
        k_non = kappa(FramedLink(comps, cylinder_ambient(5, "nonstandard")))
        assert k_std == k_non == Z2(0)

    def test_additivity_of_disjoint_union(self, rng):
        ambient = euclidean_ambient(4)
        for _ in range(5):
            l1 = wavy_circle(rng)
            f1 = twist_framing(l1, standard_framing(l1), int(rng.integers(0, 3)))
            base2 = wavy_circle(rng)
            f2 = twist_framing(base2, standard_framing(base2), int(rng.integers(0, 3)))
            l2 = base2.translated(np.array([5.0, 0, 0, 0]))
            a = FramedLink([(l1, f1)], ambient)
            b = FramedLink([(l2, f2)], ambient)
            union = FramedLink([(l1, f1), (l2, f2)], ambient)
            assert kappa(union) == kappa(a) ^ kappa(b)


class TestDelta:
    def test_single_untwisted_circle(self):
        link = pontryagin_link()
        loop, framing = link.components[0]
        # frame loop is one full turn: nontrivial class, so the count is
        # 1 xor (1 component mod 2) = 0
        assert loop_class(frame_matrix_loop(loop, framing, link.ambient)) == Z2(1)
        assert delta_pontryagin(link) == Z2(0)

    def test_single_twisted_circle(self):
        assert delta_pontryagin(pontryagin_link(turns=1)) == Z2(1)

    def test_two_untwisted_circles(self):
        base = pontryagin_link()
        loop, framing = base.components[0]
        far = loop.translated(np.array([4.0, 0, 0, 0]))
        link = FramedLink([(loop, framing), (far, framing)], base.ambient)
        assert delta_pontryagin(link) == Z2(0)

    def test_requires_euclidean_ambient(self):
        loop = plane_circle(64, 5)
        framing = constant_framing(loop, (2, 3, 4))
        with pytest.raises(AmbientMismatch):
            delta_pontryagin(FramedLink([(loop, framing)], sphere_ambient(5)))

    def test_matches_kappa_on_random_links(self, rng):
        ambient = euclidean_ambient(4)
        for _ in range(8):
            loop = wavy_circle(rng)
            framing = twist_framing(loop, standard_framing(loop), int(rng.integers(0, 4)))
            link = FramedLink([(loop, framing)], ambient)
            assert delta_pontryagin(link) == kappa(link)


class TestTwistFraming:
    def test_zero_turns_unchanged(self):
        loop = plane_circle(64, 4, clockwise=True)
        framing = standard_framing(loop, 4)
        out = twist_framing(loop, framing, 0)
        for a, b in zip(out.fields, framing.fields):
            assert np.allclose(a, b)

    def test_twist_parity_controls_index(self):
        for turns, expected in [(0, 0), (1, 1), (2, 0), (3, 1), (-1, 1)]:
            link = pontryagin_link(turns=turns)
            assert kappa(link) == Z2(expected), f"turns={turns}"

    def test_too_few_fields(self):
        loop = plane_circle(64, 3)
        framing = NormalFraming([np.tile(np.array([0.0, 0, 1]), (64, 1))], None)
        with pytest.raises(TooFewFields):
            twist_framing(loop, framing, 1)


class TestSpinTwistLaw:
    def test_odd_winding_flips(self):
        loop = plane_circle(96, 5)
        framing = constant_framing(loop, (2, 3, 4))
        std = index_of_circle(loop, framing, cylinder_ambient(5, "standard"))
        non = index_of_circle(loop, framing, cylinder_ambient(5, "nonstandard"))
        assert int(winding_parity(loop)) == 1
        assert non == std ^ Z2(1)

    def test_even_winding_agrees(self):
        def point(t):
            a = 2 * math.pi * (t % 1.0)
            return np.array(
                [math.cos(2 * a), math.sin(2 * a), 0.5 * math.cos(a), 0.5 * math.sin(a), 0.0]
            )

        K = 128
        loop = SampledLoop(np.array([point(k / K) for k in range(K)]), point,
                           [k / K for k in range(K)])
        framing = constant_framing(loop, (2, 3, 4))
        assert int(winding_parity(loop)) == 0
        std = index_of_circle(loop, framing, cylinder_ambient(5, "standard"))
        non = index_of_circle(loop, framing, cylinder_ambient(5, "nonstandard"))
        assert std == non


class TestInvarianceProperties:
    def test_cyclic_shift(self, rng):
        loop = wavy_circle(rng)
        framing = twist_framing(loop, standard_framing(loop), 1)
        ambient = euclidean_ambient(4)
        base = index_of_circle(loop, framing, ambient)
        for shift in (17, 40):
            moved = loop.cycled(shift)
            moved_framing = cycled_with(framing, loop, shift)
            assert index_of_circle(moved, moved_framing, ambient) == base

    def test_resample_doubling(self, rng):
        loop = wavy_circle(rng, samples=64)
        framing = standard_framing(loop)
        ambient = euclidean_ambient(4)
        base = index_of_circle(loop, framing, ambient)
        dense = loop.with_samples(128)
        dense_framing = standard_framing(dense)
        assert index_of_circle(dense, dense_framing, ambient) == base

    def test_rigid_rotation(self, rng):
        loop = wavy_circle(rng)
        framing = twist_framing(loop, standard_framing(loop), 1)
        ambient = euclidean_ambient(4)
        base = index_of_circle(loop, framing, ambient)
        Q = random_rotation(rng, 4)
        assert index_of_circle(loop.transformed(Q), framing.transformed(Q), ambient) == base

    def test_framing_perturbation(self, rng):
        loop = wavy_circle(rng)
        framing = standard_framing(loop)
        ambient = euclidean_ambient(4)
        base = index_of_circle(loop, framing, ambient)
        offsets = [rng.normal(size=4) for _ in range(3)]
        offsets = [0.04 * o / np.linalg.norm(o) for o in offsets]
        fields = [f + o for f, o in zip(framing.fields, offsets)]
        inner = framing.resample
        perturbed = NormalFraming(
            fields, lambda t: np.asarray(inner(t)) + np.vstack(offsets)
        )
        assert index_of_circle(loop, perturbed, ambient) == base

    def test_even_row_permutation(self):
        # permuting assembled frame rows by a fixed even permutation is a
        # left translation, so the class is unchanged
        loop = plane_circle(64, 4, clockwise=True)
        framing = standard_framing(loop, 4)
        rl = frame_matrix_loop(loop, framing, euclidean_ambient(4))
        perm = [1, 0, 3, 2]  # two transpositions: even
        P = np.eye(4)[perm]
        inner = rl.refiner
        permuted = RotationLoop(
            [P @ R for R in rl.samples], (lambda t: P @ inner(t)), list(rl.params)
        )
        assert loop_class(permuted) == loop_class(rl)


class TestWinding:
    def test_simple_circle(self):
        assert winding_number(plane_circle(64, 3)) == 1
        assert winding_number(plane_circle(64, 3, clockwise=True)) == -1
        assert int(winding_parity(plane_circle(64, 3))) == 1

    def test_offset_loop_misses_axis(self):
        loop = plane_circle(64, 3, center=np.array([5.0, 0, 0]))
        assert winding_number(loop) == 0


class TestInvariantReport:
    def test_untwisted_circle_report(self):
        report = invariant_report(pontryagin_link())
        assert int(report.kappa) == 0
        assert [c.index for c in report.components] == [0]
        assert [c.winding for c in report.components] == [None]
        assert int(report.nonzero_count_mod2) == 0
        doc = report.to_dict()
        assert doc["schema"] == 1

    def test_cylinder_reports(self):
        loop = plane_circle(96, 5)
        framing = constant_framing(loop, (2, 3, 4))
        std = invariant_report(FramedLink([(loop, framing)], cylinder_ambient(5, "standard")))
        assert (int(std.kappa), [c.index for c in std.components],
                [c.winding for c in std.components]) == (0, [0], [1])
        non = invariant_report(
            FramedLink([(loop, framing)], cylinder_ambient(5, "nonstandard"))
        )
        assert (int(non.kappa), [c.index for c in non.components],
                [c.winding for c in non.components]) == (1, [1], [1])


def write_link_file(tmp_path, doc, name="link.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def circle_link_doc(samples: int = 64, turns: int = 0) -> dict:
    link = pontryagin_link(samples=samples, turns=turns)
    loop, framing = link.components[0]
    return {
        "ambient": {"kind": "euclidean", "dimension": 4, "spin_twist": "standard"},
        "components": [
            {
                "points": loop.points.tolist(),
                "framing": [f.tolist() for f in framing.fields],
            }
        ],
    }


class TestLinkFiles:
    def test_round_trip_standard_circle(self, tmp_path):
        path = write_link_file(tmp_path, circle_link_doc())
        link = load_link_file(path)
        assert kappa(link) == Z2(0)

    def test_round_trip_twisted_circle(self, tmp_path):
        path = write_link_file(tmp_path, circle_link_doc(turns=1))
        assert kappa(load_link_file(path)) == Z2(1)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"ambient": ')
        with pytest.raises(ParseError):
            load_link_file(str(path))

    def test_wrong_field_count(self, tmp_path):
        doc = circle_link_doc()
        doc["components"][0]["framing"] = doc["components"][0]["framing"][:2]
        with pytest.raises(ValidationError):
            load_link_file(write_link_file(tmp_path, doc))

    def test_sphere_points_off_sphere(self, tmp_path):
        doc = circle_link_doc()
        doc["ambient"] = {"kind": "sphere", "dimension": 4}
        with pytest.raises(ValidationError):
            load_link_file(write_link_file(tmp_path, doc))

    def test_unknown_kind(self, tmp_path):
        doc = circle_link_doc()
        doc["ambient"]["kind"] = "torus"
        with pytest.raises(ValidationError):
            load_link_file(write_link_file(tmp_path, doc))

    def test_file_data_has_no_refiner(self, tmp_path):
        # a framing that jumps too far between samples cannot be refined
        # for raw file data, so classification refuses to guess
        doc = circle_link_doc(samples=16)
        fields = np.asarray(doc["components"][0]["framing"])
        k = fields.shape[1]
        for j in range(k):
            a = 2 * math.pi * (3 * j / k)
            c, s = math.cos(a), math.sin(a)
            f0 = fields[0][j].copy()
            f1 = fields[1][j].copy()
            fields[0][j] = c * f0 + s * f1
            fields[1][j] = -s * f0 + c * f1
        doc["components"][0]["framing"] = fields.tolist()
        link = load_link_file(write_link_file(tmp_path, doc))
        with pytest.raises(RefinementExhausted):
            kappa(link)


# Decimal forms of a float a link file may hold: shortest round trip, 17 and
# 25 significant digits in exponent form, 40 digits (exact for many values,
# the hard cases of rounding) and 12 digits (not the float written).
LINK_FILE_NUMBER_FORMS = (repr, "%.17e".__mod__, "%.25e".__mod__, "%.40g".__mod__, "%.12g".__mod__)

LINK_FILE_NUMBER_EDGES = (
    "5e-324",  # the smallest subnormal
    "4.9406564584124654e-324",
    "2.4703282292062328e-324",  # just above half of it: rounds up to it
    "2.2250738585072011e-308",  # between the largest subnormal and the smallest normal
    "1.7976931348623157e308",  # the largest finite value
    "9007199254740993.0",  # 2^53 + 1, halfway: rounds to even
    "-0.0",
    "0.1000000000000000055511151231257827",  # 0.1 written longer than its shortest form
    "0.1000000000000000055511151231257828",
    "1.00000000000000011102230246251565404236316680908203125",  # 1 + 2^-53, exact: to even
    "123456789012345678901234567890e-10",
    "18446744073709553664",  # 2^64 + 2^11, an integer past 64 bits halfway: to even
    "123456789012345678901234567890",
)


class TestLinkFileParser:
    """load_link_file decodes every number to the float Python's float() gives its token."""

    def test_every_token_decodes_to_its_correctly_rounded_float(self, monkeypatch, tmp_path):
        rng = np.random.default_rng(2019)
        values = rng.integers(0, 2**64, size=20000, dtype=np.uint64).view(np.float64)
        values = values[np.isfinite(values)].tolist()
        tokens = [form(v) for form in LINK_FILE_NUMBER_FORMS for v in values]
        tokens += LINK_FILE_NUMBER_EDGES
        assert len(tokens) > 99000
        path = tmp_path / "numbers.json"
        path.write_text('{"values": [' + ",".join(tokens) + "]}", encoding="utf-8")
        # the parsed document itself, before load_link validates it into a link
        monkeypatch.setattr(framedlink, "load_link", lambda document: document)
        decoded = load_link_file(str(path))["values"]
        # an integer token may come out an int; float() of an int is correctly rounded too
        got = np.array([float(number) for number in decoded])
        want = np.array([float(token) for token in tokens])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_link_documents_decode_as_the_standard_library_does(self, tmp_path):
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        digest = _load_tool(os.path.join(repo, "tools", "report_digest.py"))
        workloads = _load_tool(os.path.join(repo, "perfbench", "workloads.py"))
        digest.write_link_documents(str(tmp_path))
        paths = [str(tmp_path / name) for name in digest.link_documents()]
        workloads.build_cases("link-files", 7, str(tmp_path))
        paths += sorted(str(p) for p in (tmp_path / "links-seed7").glob("*.json"))
        assert len(paths) == len(digest.link_documents()) + 5
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                document = json.load(fh)
            link = load_link_file(path)
            assert len(link.components) == len(document["components"])
            for (loop, framing), comp in zip(link.components, document["components"]):
                pairs = ((loop.points, comp["points"]), (framing.fields, comp["framing"]))
                for got, listed in pairs:
                    want = np.asarray(listed, dtype=float)
                    assert got.dtype == want.dtype and got.shape == want.shape
                    assert got.tobytes() == want.tobytes()


def twisted_circle(
    dim: int, samples: int, twists=(0, 0), offset: float = 0.0, wobble=None, flip: bool = False
):
    """A clockwise circle in the (0, 1) plane of R^dim, shifted by offset e_3, and its framing.

    The framing is the radial field and e_2 .. e_{dim-1}, with fields
    (0, 1) turned twists[0] times and fields (2, 3) twists[1] times along
    the circle; flip negates field 0, which makes every frame left-handed.
    wobble, an array of shape (2, 2, dim), adds cos/sin harmonics 2 and 3,
    so the circle moves the coordinates wobble has entries in. The loop
    has no resampler, so its frame loop has no refiner.
    """
    ang = 2.0 * math.pi * np.arange(samples) / samples
    pts = np.zeros((samples, dim))
    pts[:, 0], pts[:, 1] = np.cos(ang), -np.sin(ang)
    if wobble is not None:
        for k, (u, v) in zip((2, 3), wobble):
            pts += np.outer(np.cos(k * ang), u) + np.outer(np.sin(k * ang), v)
    pts[:, 3] += offset
    fields = np.zeros((dim - 1, samples, dim))
    fields[0, :, :2] = pts[:, :2]
    for i in range(1, dim - 1):
        fields[i, :, i + 1] = 1.0
    for (a, b), turns in zip(((0, 1), (2, 3)), twists):
        c, s = np.cos(turns * ang)[:, None], np.sin(turns * ang)[:, None]
        fields[a], fields[b] = c * fields[a] + s * fields[b], c * fields[b] - s * fields[a]
    if flip:
        fields[0] = -fields[0]
    return SampledLoop(pts), NormalFraming(fields)


def resampled_circle(dim: int, samples: int, turns: int, offset: float, flip: bool = False):
    """twisted_circle(dim, samples, (turns, 0), offset, flip=flip), resampled between samples.

    The loop's resample_tangent is declared `stacked`, and the framing
    resamples, so the frame loop has a refiner.
    """

    def point(t: float) -> np.ndarray:
        a = 2.0 * math.pi * t
        p = np.zeros(dim)
        p[0], p[1], p[3] = math.cos(a), -math.sin(a), offset
        return p

    @stacked
    def tangent(ts: np.ndarray) -> np.ndarray:
        a = 2.0 * math.pi * np.asarray(ts)
        out = np.zeros((len(a), dim))
        out[:, 0], out[:, 1] = -np.sin(a), -np.cos(a)
        return out

    def fields(t: float) -> np.ndarray:
        a = 2.0 * math.pi * t
        out = np.eye(dim)[1:]
        out[0, :3] = [math.cos(a), -math.sin(a), 0.0]
        c, s = math.cos(turns * a), math.sin(turns * a)
        out[0], out[1] = c * out[0] + s * out[1], c * out[1] - s * out[0]
        if flip:
            out[0] = -out[0]
        return out

    params = [k / samples for k in range(samples)]
    loop = SampledLoop(np.array([point(t) for t in params]), point, params, None, tangent)
    framing = NormalFraming(np.stack([fields(t) for t in params], axis=1), fields)
    return loop, framing


class NoNormalHere(Exception):
    """Raised by a manifold normal that is undefined at the points given."""


class TestLinkStack:
    """A report assembles all its components' frames as one stack and lifts them in one pass."""

    def spied(self, monkeypatch):
        import fbk.numkit as numkit
        import fbk.spinlift as spinlift

        calls = {"_rotors": 0, "_qr": 0}
        for module, name in ((spinlift, "_rotors"), (numkit, "_qr")):

            def spy(*args, real=getattr(module, name), name=name):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(module, name, spy)
        return calls

    def test_one_qr_and_one_kernel_pass_per_report(self, rng, monkeypatch):
        # link-files-shaped: 4 components of 64 samples in R^8, all moving
        # the same 4 coordinates
        in_four = np.arange(8) < 4
        comps = [
            twisted_circle(8, 64, (t, 0), 3.0 * i, rng.normal(size=(2, 2, 8)) * 0.02 * in_four)
            for i, t in enumerate((0, 1, 2, 3))
        ]
        link = FramedLink(comps, euclidean_ambient(8))
        alone = [index_of_circle(loop, framing, link.ambient) for loop, framing in comps]
        assert alone == [Z2(0), Z2(1), Z2(0), Z2(1)]
        calls = self.spied(monkeypatch)
        report = invariant_report(link)
        assert calls == {"_rotors": 1, "_qr": 1}
        assert [c.index for c in report.components] == [int(b) for b in alone]
        assert kappa(link) == Z2(0) and delta_pontryagin(link) == Z2(0)
        assert calls == {"_rotors": 3, "_qr": 3}

    def spied_with_callbacks(self, monkeypatch):
        """Calls of _qr, _rotors, the loops' stacked tangents and the frame refiners."""
        import fbk.framedlink as framedlink

        calls = self.spied(monkeypatch)
        calls.update(tangent=0, refiner=0)
        make_refiner = framedlink._frame_refiner

        def counted_refiner(part, *args):
            inner = make_refiner(part, *args)

            def refiner(t):
                calls["refiner"] += 1
                return inner(t)

            return refiner if inner else None

        monkeypatch.setattr(framedlink, "_frame_refiner", counted_refiner)
        return calls

    @pytest.mark.parametrize("resampled", [False, True])
    @pytest.mark.parametrize("failing", [3, 1])
    def test_failing_report_runs_one_pass(self, monkeypatch, failing, resampled):
        # twisted 0 to 3 turns: 64 samples need no refiner, and on 16 with
        # resamplers every frame loop refines, each refined frame one QR
        def link(flipped):
            comps = []
            for i in range(4):
                if not resampled:
                    comps.append(twisted_circle(5, 64, (i, 0), 3.0 * i, flip=i == flipped))
                    continue
                loop, framing = resampled_circle(5, 16, i, 3.0 * i, flip=i == flipped)

                @stacked
                def tangent(ts, inner=loop.resample_tangent):
                    calls["tangent"] += 1
                    return inner(ts)

                loop.resample_tangent = tangent
                comps.append((loop, framing))
            return FramedLink(comps, euclidean_ambient(5))

        calls = self.spied_with_callbacks(monkeypatch)
        invariant_report(link(None))
        passing = dict(calls)
        assert (passing["refiner"] > 0) == (passing["tangent"] > 0) == resampled
        for name in calls:
            calls[name] = 0
        with pytest.raises(OrientationMismatch, match="at sample 0;"):
            invariant_report(link(failing))
        assert calls["_qr"] - calls["refiner"] == calls["_rotors"] == 1
        assert all(calls[name] <= passing[name] for name in calls), (calls, passing)

    @pytest.mark.parametrize("first", ["good", "frames", "sign"])
    def test_raising_callback_in_a_batch(self, monkeypatch, first):
        # the manifold normal e_4 of R^4 x {0} in R^5 raises on component
        # 2's points; component 1 fails before it or passes
        import fbk.spinlift as spinlift

        monkeypatch.setattr(spinlift, "_angle_step_bound", lambda angle: 2.9)
        e4 = np.eye(5)[4]

        def normal(p):
            if p[3] == 6.0:
                raise NoNormalHere(f"no normal at {p[:2]}")
            return e4

        ambient = AmbientPresentation(5, [normal])

        def circle(offset, turns=1, flip=False):
            loop, framing = twisted_circle(5, 16, (turns, 0), offset, flip=flip)
            return loop, NormalFraming(framing.fields[:3])

        second = {"good": circle(3.0), "frames": circle(3.0, flip=True), "sign": circle(3.0, 8)}
        comps = [circle(0.0), second[first], circle(6.0), circle(9.0)]
        culprit = 2 if first == "good" else 1
        with pytest.raises(Exception) as alone:
            index_of_circle(*comps[culprit], ambient)
        assert type(alone.value) is {
            "good": NoNormalHere, "frames": OrientationMismatch, "sign": NotNearIdentity
        }[first]
        link = FramedLink(comps, ambient)
        for report in (invariant_report, kappa):
            with pytest.raises(type(alone.value)) as caught:
                report(link)
            assert str(caught.value) == str(alone.value)

    def test_stacked_frames_are_the_lone_frames(self, rng):
        from fbk.framedlink import _frame_loops, _FramePart

        comps = [twisted_circle(6, 24 + 8 * i, (i, 1), 3.0 * i) for i in range(3)]
        loop = wavy_circle(rng, dim=6, samples=40).translated(np.array([0, 0, 0, 9.0, 0, 0]))
        comps.append((loop, twist_framing(loop, standard_framing(loop, 6), 2)))
        ambient = euclidean_ambient(6)
        stacked = _values(_frame_loops([_FramePart(*comp) for comp in comps], ambient, DEFAULT_TOL))
        for rl, (loop, framing) in zip(stacked, comps):
            lone = frame_matrix_loop(loop, framing, ambient)
            assert np.array_equal(rl.samples, lone.samples) and rl.params == lone.params
            assert (rl.refiner is None) == (lone.refiner is None)
        assert np.array_equal(stacked[-1].refiner(0.3), lone.refiner(0.3))

    def test_components_moving_different_coordinate_counts(self, rng, monkeypatch):
        import fbk.spinlift as spinlift

        # the plain circles move 3 coordinates of R^7, the wobbling ones 4 and 6
        shapes = [np.arange(7) < 4, None, np.arange(7) < 6, None]
        comps = [
            twisted_circle(
                7, 48, (i, 0), 3.0 * i, None if w is None else rng.normal(size=(2, 2, 7)) * 0.02 * w
            )
            for i, w in enumerate(shapes)
        ]
        link = FramedLink(comps, euclidean_ambient(7))
        alone = [index_of_circle(loop, framing, link.ambient) for loop, framing in comps]
        dims = []
        kernel = spinlift._rotors

        def spy(rotations):
            dims.append(rotations.shape[1])
            return kernel(rotations)

        monkeypatch.setattr(spinlift, "_rotors", spy)
        report = invariant_report(link)
        assert [c.index for c in report.components] == [int(b) for b in alone]
        assert len(dims) == len(set(dims)) == 3

    @pytest.fixture
    def failing(self, monkeypatch):
        """Components failing in frames, refinement or the lift's sign test, and a good one.

        With the step bound raised to a Frobenius defect of 2.9, 16 samples
        turned half a turn a step in one plane pass refinement and fail the
        sign test, and turned 3/8 of a turn in two planes exceed the bound.
        """
        import fbk.spinlift as spinlift

        monkeypatch.setattr(spinlift, "_angle_step_bound", lambda angle: 2.9)
        return {
            "good": twisted_circle(5, 16, (1, 0), 0.0),
            "frames": twisted_circle(5, 16, (1, 0), 3.0, flip=True),
            "refinement": twisted_circle(5, 16, (6, 6), 6.0),
            "sign": twisted_circle(5, 16, (8, 0), 9.0),
        }

    def test_each_component_alone_fails_its_own_way(self, failing):
        ambient = euclidean_ambient(5)
        assert index_of_circle(*failing["good"], ambient) == Z2(1)
        for name, error, message in (
            ("frames", OrientationMismatch, "assembled frame has determinant -1 at sample 0;"),
            ("refinement", RefinementExhausted, "step at parameter 0.000000 exceeds"),
            ("sign", NotNearIdentity, "too small for a canonical sign"),
        ):
            with pytest.raises(error, match=message):
                index_of_circle(*failing[name], ambient)

    @pytest.mark.parametrize(
        "first, second",
        [
            ("frames", "refinement"),
            ("refinement", "frames"),
            ("frames", "sign"),
            ("sign", "frames"),
            ("refinement", "sign"),
            ("sign", "refinement"),
        ],
    )
    def test_first_failing_component_wins(self, failing, first, second):
        # component by component, the first failing component's frames,
        # refinement and lift all come before the second's
        ambient = euclidean_ambient(5)
        with pytest.raises(Exception) as alone:
            index_of_circle(*failing[first], ambient)
        link = FramedLink([failing["good"], failing[first], failing[second]], ambient)
        for report in (invariant_report, kappa, delta_pontryagin):
            with pytest.raises(type(alone.value)) as caught:
                report(link)
            assert str(caught.value) == str(alone.value)

    @pytest.mark.parametrize(
        "first, second", [("frames", "sign"), ("refinement", "frames"), ("sign", "refinement")]
    )
    def test_failing_report_notes_the_work_done_in_turn(self, failing, first, second):
        # an open recording scope sees the work of the components run one
        # after another up to the error, not the failed batch's work as well
        ambient = euclidean_ambient(5)
        with recording() as want:
            index_of_circle(*failing["good"], ambient)
            with pytest.raises(Exception):
                index_of_circle(*failing[first], ambient)
        assert want["frames_assembled"] >= 16
        link = FramedLink([failing["good"], failing[first], failing[second]], ambient)
        for report in (invariant_report, kappa, delta_pontryagin):
            with recording() as got, pytest.raises(Exception):
                report(link)
            assert got == want
