import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import fbk
import fbk.cli as cli
from fbk.errors import ValidationError
from fbk.framedlink import load_link
from fbk.scenarios import REGISTRY

from conftest import standard_framing
from test_framedlink import circle_link_doc, crossing_circles, plane_circle, write_link_file


def link_doc(components, dim: int) -> dict:
    """The link-file document of framed components in R^dim."""
    return {
        "ambient": {"kind": "euclidean", "dimension": dim},
        "components": [
            {"points": loop.points.tolist(), "framing": framing.fields.tolist()}
            for loop, framing in components
        ],
    }


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestList:
    def test_all_scenarios_listed(self, capsys):
        code, out, _ = run_cli(capsys, ["list"])
        assert code == 0
        for name in (
            "pontryagin-circle",
            "sphere-great-circle",
            "cylinder-spin",
            "suspended-hopf",
            "euclidean-quadric",
            "euclidean-quadric-twisted",
            "s5-vector-fields",
            "s5-alt-section",
        ):
            assert name in out


class TestScenario:
    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, ["scenario", "pontryagin-circle"])
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == 1
        assert doc["scenario"] == "pontryagin-circle"
        assert doc["kappa"] == 0
        assert doc["nonzero_count_mod2"] == 0

    def test_determinism(self, capsys):
        _, first, _ = run_cli(capsys, ["scenario", "pontryagin-circle", "--set", "turns=1"])
        _, second, _ = run_cli(capsys, ["scenario", "pontryagin-circle", "--set", "turns=1"])
        assert first == second

    def test_override_changes_answer(self, capsys):
        code, out, _ = run_cli(capsys, ["scenario", "pontryagin-circle", "--set", "turns=3"])
        assert code == 0
        assert json.loads(out)["kappa"] == 1

    def test_unknown_scenario_exit_code(self, capsys):
        code, _, err = run_cli(capsys, ["scenario", "does-not-exist"])
        assert code == 5
        assert "unknown scenario" in err

    def test_bad_override_exit_code(self, capsys):
        code, _, err = run_cli(capsys, ["scenario", "pontryagin-circle", "--set", "nope=1"])
        assert code == 3
        assert "override" in err

    def test_bad_override_value_exit_code(self, capsys):
        code, _, err = run_cli(capsys, ["scenario", "cylinder-spin", "--set", "circles=3"])
        assert code == 3
        assert "circles" in err

    @pytest.mark.parametrize(
        "override, message",
        [
            ("ortho_tol=-1", "ortho_tol must be strictly positive"),
            ("newton_tol=inf", "newton_tol must be strictly positive and finite"),
            ("samples=abc", "samples='abc' must be of type int"),
            ("lift_angle_max=2", "lift_angle_max must be below pi/2"),
            ("turns=1.5", "turns=1.5 must be of type int"),
        ],
    )
    def test_mistyped_override_exit_code(self, capsys, override, message):
        code, out, err = run_cli(capsys, ["scenario", "pontryagin-circle", "--set", override])
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and message in err

    def test_check_full_registry(self, capsys):
        # the registry doubles as the regression suite
        for name in sorted(REGISTRY):
            code, _, err = run_cli(capsys, ["scenario", name, "--check"])
            assert code == 0, f"{name}: {err}"
            assert "check passed" in err

    def test_wrong_jacobian_exit_code(self, capsys, monkeypatch):
        import fbk.scenarios as scenarios

        right = scenarios._quadric_twisted_jac
        monkeypatch.setattr(scenarios, "_quadric_twisted_jac", lambda x: 1.5 * right(x))
        code, out, err = run_cli(capsys, ["scenario", "euclidean-quadric-twisted", "--check"])
        assert code == 4
        assert out == ""
        assert "EvaluationFailure" in err
        assert "entry (0, 0) is 3.3, central differences give 2.2" in err

    def test_svd_failure_exit_code(self, capsys, monkeypatch):
        # the walk's SVD fails inside LAPACK, as one that does not converge does
        import fbk.numkit as numkit

        real = numkit._SVD_GUFUNCS

        def failing(J, signature):
            return real[J.shape[0] >= J.shape[1]](np.full_like(J, np.nan), signature=signature)

        monkeypatch.setattr(numkit, "_SVD_GUFUNCS", (failing, failing))
        code, out, err = run_cli(capsys, ["scenario", "suspended-hopf"])
        assert code == 4
        assert out == ""
        assert "EvaluationFailure: the SVD of a 4 x 5 matrix failed in LAPACK" in err

    def test_refinement_past_the_sample_cap_exit_code(self, capsys):
        # 16 steps of 22.5 degrees would split 22 levels deep under this bound;
        # refinement stops before its stack passes 2^14 samples
        code, out, err = run_cli(
            capsys,
            ["scenario", "sphere-great-circle", "--set", "samples=16", "--set", "lift_angle_max=1e-7"],
        )
        assert code == 4
        assert out == ""
        assert "RefinementExhausted: refinement to 32768 samples passes the cap of 16384" in err
        assert "lift_angle_max = 1e-07" in err

    @pytest.mark.parametrize(
        "name, newton_tol", [("euclidean-quadric-twisted", "1e-16"), ("suspended-hopf", "1e-300")]
    )
    def test_seed_stalled_at_the_rounding_floor_exit_code(self, capsys, name, newton_tol):
        code, out, err = run_cli(capsys, ["scenario", name, "--set", f"newton_tol={newton_tol}"])
        assert code == 4
        assert out == ""
        assert err.startswith("error: NoConvergence: seed correction stalled at residual ")

    @pytest.mark.parametrize("name", [name for name, s in REGISTRY.items() if s.traced])
    def test_ortho_tol_above_every_tangent_entry_exit_code(self, capsys, name):
        # no entry of a unit tangent passes ortho_tol 0.999999, so the walk's
        # sign rule takes the largest entry; the frames may still fail on it
        argv = ["scenario", name, "--set", "ortho_tol=0.999999", "--check"]
        code, _, err = run_cli(capsys, argv)
        assert code in (0, 3, 4), err

    def test_walk_that_never_closes_exit_code(self, capsys):
        argv = ["scenario", "euclidean-quadric", "--set", "closure_tol=1e-300"]
        code, out, err = run_cli(capsys, argv)
        assert code == 4
        assert out == ""
        assert err == "error: NotClosed: no closure within 4000 steps\n"

    def test_samples_above_the_lift_cap_exit_code(self, capsys):
        argv = ["scenario", "pontryagin-circle", "--set", "samples=16385"]
        code, out, err = run_cli(capsys, argv)
        assert code == 3
        assert out == ""
        assert err == (
            "error: override samples=16385 is above the cap of 16384 samples per loop\n"
        )

    def test_check_mismatch_exit_code(self, capsys, monkeypatch):
        scenario = REGISTRY["pontryagin-circle"]
        monkeypatch.setattr(scenario, "expected", lambda options: {"kappa": 1})
        code, _, err = run_cli(capsys, ["scenario", "pontryagin-circle", "--check"])
        assert code == 2
        assert "check failed" in err


class TestLink:
    def test_round_trip(self, capsys, tmp_path):
        path = write_link_file(tmp_path, circle_link_doc(turns=1))
        code, out, _ = run_cli(capsys, ["link", path])
        assert code == 0
        doc = json.loads(out)
        assert doc["kappa"] == 1
        assert doc["link_file"] == path

    def test_csv_dump(self, capsys, tmp_path):
        path = write_link_file(tmp_path, circle_link_doc())
        csv_dir = tmp_path / "geometry"
        code, _, _ = run_cli(capsys, ["link", path, "--csv", str(csv_dir)])
        assert code == 0
        csv_path = csv_dir / "component_00.csv"
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "t,x0,x1,x2,x3"
        assert len(lines) == 1 + 64

    def test_parse_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, ["link", str(bad)])
        assert code == 3
        assert "line" in err

    def test_non_utf8_file_exit_code(self, capsys, tmp_path):
        # a UTF-16 byte order mark: not UTF-8, so not a link file
        bad = tmp_path / "utf16.json"
        bad.write_bytes(b"\xff\xfe{}")
        code, out, err = run_cli(capsys, ["link", str(bad)])
        assert code == 3
        assert out == ""
        assert err.startswith(f"error: {bad}: line 1 column 1: ") and "UTF-8" in err

    @pytest.mark.parametrize(
        "token",
        [
            "NaN",
            "Infinity",
            "-Infinity",
            "1e400",
            "-1e400",
            pytest.param("1" + "0" * 400, id="10^400"),
        ],
    )
    def test_non_finite_number_is_a_parse_error(self, capsys, tmp_path, token):
        # link files are strict JSON: no NaN or Infinity literal, and no
        # number that overflows a double, an integer included; the parser
        # names where it stands
        doc = circle_link_doc()
        doc["components"][0]["points"][5][2] = "TOKEN"
        text = json.dumps(doc, indent=1).replace('"TOKEN"', token)
        at = text.index(token)
        line, column = text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)
        path = tmp_path / "strict.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, ["link", str(path)])
        assert code == 3
        assert out == ""
        assert err.startswith(f"error: {path}: line {line} column {column}: ")
        assert "must be finite" not in err

    def test_unreadable_path_exit_code(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, ["link", str(tmp_path / "missing.json")])
        assert code == 3
        assert "cannot read" in err and "missing.json" in err

    def test_validation_error_exit_code(self, capsys, tmp_path):
        doc = circle_link_doc()
        doc["components"][0]["framing"] = doc["components"][0]["framing"][:1]
        path = write_link_file(tmp_path, doc)
        code, _, err = run_cli(capsys, ["link", path])
        assert code == 3
        assert "framing" in err

    def test_numerical_failure_exit_code(self, capsys, tmp_path):
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
        path = write_link_file(tmp_path, doc)
        code, _, err = run_cli(capsys, ["link", path])
        assert code == 4
        assert "RefinementExhausted" in err

    def test_zero_framing_field_exit_code(self, capsys, tmp_path):
        doc = circle_link_doc()
        doc["components"][0]["framing"][2] = [[0.0] * 4] * 64
        code, _, err = run_cli(capsys, ["link", write_link_file(tmp_path, doc)])
        assert code == 3
        assert "framing" in err

    def test_short_framing_field_exit_code(self, capsys, tmp_path):
        # orthogonal to the other rows, but too short for Gram-Schmidt's
        # absolute residual threshold; a field of length 1e-3 is fine
        doc = circle_link_doc()
        fields = np.asarray(doc["components"][0]["framing"])
        for scale, want in ((1e-3, 0), (1e-11, 3)):
            doc["components"][0]["framing"] = (fields * [[[1.0]], [[1.0]], [[scale]]]).tolist()
            code, _, err = run_cli(capsys, ["link", write_link_file(tmp_path, doc)])
            assert code == want
        assert "framing" in err

    def test_framing_field_along_sphere_normal_exit_code(self, capsys, tmp_path):
        loop = plane_circle(64, 5)
        fields = [np.tile(np.eye(5)[i], (64, 1)) for i in (2, 3, 4)]
        doc = {
            "ambient": {"kind": "sphere", "dimension": 5},
            "components": [
                {"points": loop.points.tolist(), "framing": [f.tolist() for f in fields]}
            ],
        }
        code, _, _ = run_cli(capsys, ["link", write_link_file(tmp_path, doc)])
        assert code == 0
        doc["components"][0]["framing"][0] = loop.points.tolist()
        code, _, err = run_cli(capsys, ["link", write_link_file(tmp_path, doc)])
        assert code == 3
        assert "framing" in err

    def test_unevenly_sampled_circle_on_a_sphere_exit_code(self, capsys, tmp_path):
        # a circle of radius 0.6 on S^3, exactly on the sphere and exactly
        # framed, sampled at t + 0.3 sin(2 pi t) / (2 pi): its sample
        # tangents must be second order on uneven spacing to stay within
        # the tangent check against the sphere's normal
        t = np.arange(64) / 64
        a = 2.0 * math.pi * t + 0.3 * np.sin(2.0 * math.pi * t)
        c, s, zero = np.cos(a), np.sin(a), np.zeros(64)
        points = np.stack([0.6 * c, 0.6 * s, np.full(64, 0.8), zero], axis=1)
        inward = np.stack([-0.8 * c, -0.8 * s, np.full(64, 0.6), zero], axis=1)
        doc = {
            "ambient": {"kind": "sphere", "dimension": 4},
            "components": [
                {"points": points.tolist(), "framing": [inward.tolist(), [[0.0, 0, 0, 1]] * 64]}
            ],
        }
        code, out, err = run_cli(capsys, ["link", write_link_file(tmp_path, doc)])
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["kappa"] == 0 and report["components"][0]["index"] == 0

    def test_left_handed_framing_exit_code(self, capsys, tmp_path):
        # negating the last field keeps every frame nondegenerate but
        # left-handed; frame assembly would end in OrientationMismatch
        doc = circle_link_doc(samples=32)
        doc["components"][0]["framing"][-1] = (
            -np.asarray(doc["components"][0]["framing"][-1])
        ).tolist()
        code, _, err = run_cli(capsys, ["link", write_link_file(tmp_path, doc)])
        assert code == 3
        assert "component 0: " in err and "left-handed at sample 0;" in err

    @pytest.mark.parametrize(
        "dim, fields, samples, width, message",
        [
            (3, 2, 96, 3, "component 0: points live in R^3, ambient is R^4"),
            (4, 2, 96, 4, "component 0: framing has 2 fields, ambient requires 3"),
            (4, 3, 48, 4, "component 0: framing sampled at 48 points, loop at 96"),
            (4, 3, 96, 5, "component 0: framing vectors have the wrong dimension"),
        ],
    )
    def test_malformed_component_exit_code(
        self, capsys, tmp_path, dim, fields, samples, width, message
    ):
        # the cases of TestFramedLinkChecks as link documents: load_link
        # meets FramedLink's checks, with their messages
        doc = {
            "ambient": {"kind": "euclidean", "dimension": 4},
            "components": [
                {
                    "points": plane_circle(96, dim).points.tolist(),
                    "framing": np.ones((fields, samples, width)).tolist(),
                }
            ],
        }
        with pytest.raises(ValidationError) as caught:
            load_link(doc)
        assert str(caught.value) == message
        code, _, err = run_cli(capsys, ["link", write_link_file(tmp_path, doc)])
        assert code == 3
        assert err == f"error: {message}\n"

    def test_coincident_components_exit_code(self, capsys, tmp_path):
        doc = circle_link_doc()
        doc["components"] *= 2
        code, _, err = run_cli(capsys, ["link", write_link_file(tmp_path, doc)])
        assert code == 3
        assert "disjoint" in err

    def test_crossing_components_exit_code(self, capsys, tmp_path):
        path = write_link_file(tmp_path, link_doc(crossing_circles(), 3))
        code, _, err = run_cli(capsys, ["link", path])
        assert code == 3
        assert "component 0: segment 0 " in err and "component 1: segment 15;" in err
        assert "disjoint" in err
        for shift in (0.02, -0.02, 1e-3, -1e-3):
            path = write_link_file(tmp_path, link_doc(crossing_circles(shift), 3))
            code, _, _ = run_cli(capsys, ["link", path])
            assert code == 0

    def test_dimension_above_lift_cap_exit_code(self, capsys, tmp_path):
        # well formed in R^13, one dimension more than the lift supports
        loop = plane_circle(16, 13, clockwise=True)
        framing = standard_framing(loop, 13)
        doc = {
            "ambient": {"kind": "euclidean", "dimension": 13},
            "components": [
                {
                    "points": loop.points.tolist(),
                    "framing": [f.tolist() for f in framing.fields],
                }
            ],
        }
        code, _, err = run_cli(capsys, ["link", write_link_file(tmp_path, doc)])
        assert code == 3
        assert "ambient.dimension" in err

    def test_huge_dimension_without_components_exit_code(self, capsys, tmp_path):
        doc = {"ambient": {"kind": "euclidean", "dimension": 1000000}, "components": []}
        code, _, err = run_cli(capsys, ["link", write_link_file(tmp_path, doc)])
        assert code == 3
        assert "ambient.dimension" in err


def test_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(fbk.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, fbk; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_report_digest_names_the_keys_that_moved():
    import importlib.util

    tools = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")
    spec = importlib.util.spec_from_file_location(
        "report_digest", os.path.join(tools, "report_digest.py")
    )
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)

    before = {
        "components": [{"index": 1, "samples": 63}],
        "diagnostics": {"closure_errors": [3e-11], "max_residual": 7e-11, "seeds_skipped": 0},
        "kappa": 1,
    }
    after = {
        "components": [{"index": 1, "samples": 62}],
        "diagnostics": {"closure_errors": [2e-11], "max_residual": 7e-11, "margin": 0.5},
        "kappa": 1,
    }
    moved = digest.moved_keys(json.dumps(before).encode(), json.dumps(after).encode())
    assert moved == [
        "components[0].samples",
        "diagnostics.closure_errors[0]",
        "diagnostics.margin",
        "diagnostics.seeds_skipped",
    ]
    after["components"].append({"index": 0, "samples": 40})
    assert digest.moved_keys(json.dumps(before).encode(), json.dumps(after).encode())[0] == (
        "components"
    )
    # a failed run prints no report
    assert digest.moved_keys(b"", json.dumps(after).encode()) == []
