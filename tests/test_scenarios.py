"""Exact integer diagnostics of every registered scenario and the acceptance overrides.

The counts are work, not tolerances: a change that moves one of them does
different work and has to say why. lift_steps is recorded by a scope around
the whole run, so it includes the lifts behind the "delta" cross-check; the
column sums to 1936, the lift steps of one round of the scenarios workload.
(perfbench/baseline.json records 1944 from before the walk factored each
Jacobian once by SVD: each traced circle then had 63 samples, not 62.)
"""

import pytest

from fbk import recording, run_scenario

# name, overrides, refinement_depth, seeds_skipped (None: not traced),
# number of closure errors (None: not traced), samples per component, lift_steps
TABLE = [
    ("cylinder-spin", {}, 0, None, None, [96], 96),
    ("euclidean-quadric", {}, 0, 0, 1, [62], 62),
    ("euclidean-quadric-twisted", {}, 0, 0, 1, [62], 62),
    ("pontryagin-circle", {}, 0, None, None, [96], 192),
    ("s5-alt-section", {}, 0, 0, 1, [62], 124),
    ("s5-vector-fields", {}, 0, 0, 1, [62], 124),
    ("sphere-great-circle", {}, 0, None, None, [96], 96),
    ("suspended-hopf", {}, 0, 0, 1, [62], 62),
    ("pontryagin-circle", {"turns": 1}, 0, None, None, [96], 192),
    ("pontryagin-circle", {"turns": 2}, 0, None, None, [96], 192),
    ("pontryagin-circle", {"turns": 3}, 0, None, None, [96], 192),
    ("cylinder-spin", {"spin": "nonstandard", "circles": 1}, 0, None, None, [96], 96),
    ("cylinder-spin", {"spin": "standard", "circles": 2}, 0, None, None, [96, 96], 192),
    ("cylinder-spin", {"spin": "nonstandard", "circles": 2}, 0, None, None, [96, 96], 192),
    ("suspended-hopf", {"regular_value": "alt"}, 0, 0, 1, [62], 62),
]


@pytest.mark.parametrize(
    "name, overrides, depth, skipped, closures, samples, lift_steps",
    TABLE,
    ids=[f"{row[0]}{row[1] or ''}" for row in TABLE],
)
def test_integer_diagnostics(name, overrides, depth, skipped, closures, samples, lift_steps):
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
