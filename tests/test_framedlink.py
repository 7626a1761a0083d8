import json
import math
import tracemalloc

import numpy as np
import pytest

from conftest import framing_from_callables, random_rotation, standard_framing, wavy_circle
from fbk.errors import (
    AmbientMismatch,
    EvaluationFailure,
    OrientationMismatch,
    ParseError,
    RankDeficient,
    RefinementExhausted,
    TooFewFields,
    ValidationError,
)
from fbk.framedlink import (
    FramedLink,
    NormalFraming,
    SampledLoop,
    cylinder_ambient,
    delta_pontryagin,
    euclidean_ambient,
    frame_matrix_loop,
    index_of_circle,
    invariant_report,
    kappa,
    load_link_file,
    sphere_ambient,
    twist_framing,
    winding_number,
    winding_parity,
)
from fbk.numkit import recording
from fbk.spinlift import RotationLoop, Z2, loop_class


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

    def test_frames_assembled_counts_refiner_evaluations(self):
        # three turns of the framing on 16 samples: every step is split, and
        # each split is one refiner evaluation and one more lifted step
        loop = plane_circle(16, 4, clockwise=True)
        framing = twist_framing(loop, standard_framing(loop, 4), 3)
        with recording() as record:
            assert index_of_circle(loop, framing, euclidean_ambient(4)) == Z2(1)
        assert record["refinement_depth"] >= 1
        assert record["frames_assembled"] == record["lift_steps"] > 16


class TestIndexOfCircle:
    def test_standard_circle_bounds_a_disc(self):
        link = pontryagin_link()
        loop, framing = link.components[0]
        assert index_of_circle(loop, framing, link.ambient) == Z2(0)

    def test_twisted_framing_flips(self):
        link = pontryagin_link(turns=1)
        loop, framing = link.components[0]
        assert index_of_circle(loop, framing, link.ambient) == Z2(1)

    def test_great_circle_in_sphere(self):
        loop = plane_circle(96, 5)
        framing = constant_framing(loop, (2, 3, 4))
        assert index_of_circle(loop, framing, sphere_ambient(5)) == Z2(0)


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
            moved_framing = framing.cycled_with(loop, shift)
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
