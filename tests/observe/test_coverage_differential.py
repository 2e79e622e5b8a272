"""Differential property: coverage is bit-identical on all backends.

The tentpole contract of the coverage engine: the same model yields
the *same* :class:`~repro.observe.CoverageReport` -- same universe
totals, same sorted hit tuples -- whether measured online (event /
compiled / compiled-py, and batched at N == 1) or by per-lane trace
replay (compiled-batched at N > 1).  Models are hypothesis-generated
over a deliberately tight bus pool so conflicts and ILLEGAL values
occur regularly (the same strategy as the monitor differential).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core.values_np import have_numpy
from repro.observe import measure_coverage

from ..engine.test_differential import colliding_models
from .conftest import conflict_model

needs_numpy = pytest.mark.skipif(
    not have_numpy(),
    reason="the compiled-batched backend needs the repro[fast] extra",
)

SETTINGS = settings(max_examples=25, deadline=None)


@SETTINGS
@given(colliding_models())
def test_scalar_backends_agree(model):
    reference = measure_coverage(model, backend="event").to_dict()
    assert measure_coverage(
        model, backend="compiled"
    ).to_dict() == reference
    assert measure_coverage(
        model, backend="compiled-py"
    ).to_dict() == reference


@needs_numpy
@SETTINGS
@given(colliding_models())
def test_batched_single_lane_matches_event(model):
    reference = measure_coverage(model, backend="event").to_dict()
    # N == 1: the online probe over the full canonical stream.
    assert measure_coverage(
        model, backend="compiled-batched", register_values={}
    ).to_dict() == reference


@needs_numpy
@SETTINGS
@given(colliding_models())
def test_batched_lane_replay_matches_scalar_runs(model):
    vectors = [
        {},
        {name: 7 for name in model.registers},
        dict(zip(model.registers, range(1, len(model.registers) + 1))),
        {name: 0 for name in model.registers},
        {name: 13 for name in model.registers},
        {name: 99 for name in model.registers},
        {next(iter(model.registers)): 42},
    ]  # N = 7
    lanes = measure_coverage(
        model, backend="compiled-batched", register_values=vectors,
        per_lane=True,
    )
    assert len(lanes) == 7
    for vector, lane in zip(vectors, lanes):
        scalar = measure_coverage(
            model, backend="compiled", register_values=vector or None
        )
        assert lane.to_dict() == scalar.to_dict()
    # And the merged sweep equals the fold of its lanes.
    merged = measure_coverage(
        model, backend="compiled-batched", register_values=vectors
    )
    folded = lanes[0]
    for lane in lanes[1:]:
        folded = folded.merge(lane)
    assert merged == folded


@needs_numpy
def test_seeded_conflict_covers_the_pair_identically_everywhere():
    """The acceptance scenario: a deliberate two-driver clash marks
    the exact same conflict pair on every backend (batched both at
    N == 1 and as a lane of N == 7)."""
    model = conflict_model()
    reference = measure_coverage(model, backend="event")
    assert reference.conflict_pairs_hit, "the clash must be covered"
    for report in (
        measure_coverage(model, backend="compiled"),
        measure_coverage(model, backend="compiled-py"),
        measure_coverage(
            model, backend="compiled-batched", register_values={}
        ),
        measure_coverage(
            model, backend="compiled-batched",
            register_values=[{} for _ in range(7)],
            per_lane=True,
        )[3],
    ):
        assert report.to_dict() == reference.to_dict()
