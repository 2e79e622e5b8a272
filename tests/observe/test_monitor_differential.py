"""Differential property: monitor verdicts agree on every backend.

The tentpole contract of the assertion subsystem: the same property
set over the same model yields *bit-identical* verdicts -- every
violation at the same ``(CS, PH)`` with the same signal and values --
whether evaluated online (event / compiled / compiled-py, and batched
at N == 1) or by per-lane trace replay (compiled-batched at N > 1).

Models are hypothesis-generated over a deliberately tight bus pool so
conflicts and ILLEGAL values occur regularly (the same strategy as
``tests/engine/test_differential.py``).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core import DISC
from repro.core.values_np import have_numpy
from repro.observe import (
    check_model,
    default_properties,
    implies_within,
    stable_between,
    when,
)

from ..engine.test_differential import colliding_models
from .conftest import conflict_model

needs_numpy = pytest.mark.skipif(
    not have_numpy(),
    reason="the compiled-batched backend needs the repro[fast] extra",
)

SETTINGS = settings(max_examples=25, deadline=None)


def property_set(model):
    """Defaults plus one of each stateful property, model-derived."""
    first_reg = next(iter(model.registers))
    return default_properties(model) + [
        stable_between(first_reg, 1, model.cs_max),
        implies_within(
            when("BA", op="ne", value=DISC),
            when("BA", op="eq", value=DISC),
            k_steps=2,
            label="bus-released",
        ),
    ]


def verdict(report):
    """The comparable essence of a report (order included)."""
    return (
        report.to_dict()["violations"],
        report.cycles,
        report.conflicts,
        list(report.properties),
    )


@needs_numpy
@SETTINGS
@given(colliding_models())
def test_all_backends_agree_on_verdicts(model):
    properties = property_set(model)
    reference = verdict(check_model(model, properties, backend="event"))
    assert verdict(
        check_model(model, properties, backend="compiled")
    ) == reference
    assert verdict(
        check_model(model, properties, backend="compiled-py")
    ) == reference
    # Batched N == 1: the online monitor over the full canonical stream.
    assert verdict(
        check_model(
            model, properties, backend="compiled-batched",
            register_values={},
        )
    ) == reference


@needs_numpy
@SETTINGS
@given(colliding_models())
def test_batched_lane_replay_matches_scalar_runs(model):
    properties = property_set(model)
    vectors = [
        {},
        {name: 7 for name in model.registers},
        dict(zip(model.registers, range(1, len(model.registers) + 1))),
        {name: 0 for name in model.registers},
        {name: 13 for name in model.registers},
        {name: 99 for name in model.registers},
        {next(iter(model.registers)): 42},
    ]  # N = 7
    lane_reports = check_model(
        model, properties, backend="compiled-batched",
        register_values=vectors,
    )
    assert len(lane_reports) == 7
    for vector, lane_report in zip(vectors, lane_reports):
        scalar = check_model(
            model, properties, backend="compiled",
            register_values=vector,
        )
        assert verdict(lane_report) == verdict(scalar)


@needs_numpy
def test_seeded_conflict_localizes_identically_everywhere():
    """The acceptance scenario: a deliberate two-driver clash is
    reported at the exact same (CS, PH) and signal on every backend
    (batched both at N == 1 and as a lane of N == 7)."""
    model = conflict_model()
    properties = default_properties(model)

    def locations(report):
        return [
            (v.prop, str(v.at), v.signal) for v in report.violations
        ]

    expected = [
        ("never_illegal", "cs2.rb", "B1"),
        ("never_illegal", "cs2.rb", "B2"),
        ("no_conflicts", "cs2.rb", "B1"),
        ("no_conflicts", "cs2.rb", "B2"),
        ("no_conflicts", "cs2.cm", "ADD_in1"),
        ("no_conflicts", "cs2.cm", "ADD_in2"),
        ("never_illegal", "cs3.wb", "B1"),
        ("never_illegal", "cs3.wb", "B2"),
        ("no_conflicts", "cs3.wb", "B1"),
        ("no_conflicts", "cs3.wb", "B2"),
        ("no_conflicts", "cs3.cr", "R3_in"),
        ("never_illegal", "cs4.ra", "R3"),
    ]
    assert locations(
        check_model(model, properties, backend="event")
    ) == expected
    assert locations(
        check_model(model, properties, backend="compiled")
    ) == expected
    assert locations(
        check_model(model, properties, backend="compiled-py")
    ) == expected
    assert locations(
        check_model(
            model, properties, backend="compiled-batched",
            register_values={},
        )
    ) == expected
    lane_reports = check_model(
        model, properties, backend="compiled-batched",
        register_values=[{} for _ in range(7)],
    )
    for lane_report in lane_reports:
        assert locations(lane_report) == expected


@SETTINGS
@given(colliding_models())
def test_scalar_backends_agree(model):
    """The scalar arms alone, so they also run without numpy."""
    properties = property_set(model)
    reference = verdict(check_model(model, properties, backend="event"))
    for backend in ("compiled", "compiled-py"):
        assert verdict(
            check_model(model, properties, backend=backend)
        ) == reference
