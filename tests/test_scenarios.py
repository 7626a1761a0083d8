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
"""

import pytest

from fbk import recording, run_scenario

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
