"""Self-tests of the benchmark: python3 -m pytest perfbench -q (about a minute)."""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from fbk.errors import FbkError  # noqa: E402

import worker  # noqa: E402
from workloads import SCENARIO_NAMES, WORKLOADS, build_cases  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def tiny_runs():
    """Untraced and traced tiny runs of every workload, seed 3."""
    runs = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                         "--trace", str(trace), "--tiny")
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            runs[workload, trace] = (json.loads(lines[-2])["record"], json.loads(lines[-1]))
    return runs


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_scenarios_workload_covers_the_registry():
    from fbk.scenarios import REGISTRY

    assert sorted(REGISTRY) == list(SCENARIO_NAMES)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_tiny_run_is_correct_and_names_match_spec(tiny_runs, workload, trace):
    record, result = tiny_runs[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert record["bits_repeat"] is True
    spec = SPEC["end_to_end" if trace == 0 else "per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_runs_agree(tiny_runs, workload):
    untraced, _ = tiny_runs[workload, 0]
    traced, _ = tiny_runs[workload, 1]
    assert untraced["bits_digest"] == traced["bits_digest"]
    assert untraced["fingerprint"] == traced["fingerprint"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_expected_bit_counts_as_failure(tmp_path, workload):
    cases = build_cases(workload, 5, str(tmp_path), tiny=True)
    cases[0].expected["kappa"] ^= 1
    tally = worker.Tally()
    worker.run_round(cases, tally, FbkError)
    assert tally.attempted == len(cases)
    assert tally.wrong == 1 and tally.failed == 1


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench("--workload", "scenarios", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_importtime_parser():
    # Children come before their parent, one indent deeper; the first import
    # of scipy happens inside scipy.linalg, which is counted once.
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |         scipy._lib",
        "import time:       200 |        300 |       scipy",
        "import time:       400 |        700 |     scipy.linalg",
        "import time:       200 |        900 |   fbk.tracer",
        "import time:       100 |       1000 | fbk",
    ])
    import run

    assert run.parse_importtime(log) == {"import.fbk_ms": 1.0, "import.scipy_ms": 0.7}
