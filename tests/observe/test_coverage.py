"""Unit tests for the structural coverage engine.

The universe is derived from the one lowered Plan (so it is identical
for every backend by construction); reports are canonical and closed
under merge; the on-disk DB accumulates with plan-cache semantics
(content-addressed, lenient reads, atomic writes).
"""

import functools
import json

import pytest

from repro.core import ModuleSpec
from repro.core.modules_lib import Operation
from repro.engine.plan import lower
from repro.observe import (
    CoverageDB,
    CoverageError,
    CoverageModel,
    CoverageProbe,
    CoverageReport,
    as_coverage_db,
    coverage_model_for,
    measure_coverage,
)

from .conftest import conflict_model, fig1_model, tiny_model


def _add_k(k, a, b):
    return a + b + k


# ----------------------------------------------------------------------
# universe derivation
# ----------------------------------------------------------------------
class TestCoverageModel:
    def test_universe_from_fig1_plan(self):
        model = fig1_model()
        cov = CoverageModel.from_plan(lower(model))
        # One coverage point per TRANS spec row.
        assert len(cov.transfers) == 6
        # Fig. 1 asserts in (5, RA/RB/CM) and (6, CR).
        assert len(cov.cells) == 4
        assert all(isinstance(s, int) and isinstance(p, int)
                   for s, p in cov.cells)
        assert set(cov.buses) == {"B1", "B2"}
        assert set(cov.registers) == {"R1", "R2"}
        # Every observable port gets the three value classes.
        totals = cov.totals()
        assert totals["port_classes"] == 3 * len(cov.ports)
        # Fig. 1's B1 is driven by two transfers (R1 read, ADD write).
        assert len(cov.conflict_pairs) == 1

    def test_conflict_pairs_from_driver_order(self):
        cov = CoverageModel.from_plan(lower(conflict_model()))
        # B1, B2 carry two drivers each; the ADD inputs collide too.
        assert len(cov.conflict_pairs) >= 2
        for a, b in cov.conflict_pairs:
            # Unordered owner pairs, canonical in global driver order.
            assert cov.owner_index[a] < cov.owner_index[b]

    def test_coverage_model_for_any_backend(self):
        model = fig1_model()
        compiled = model.elaborate(backend="compiled")
        event = model.elaborate(backend="event")
        assert coverage_model_for(compiled) == coverage_model_for(event)

    def test_missed_lists_the_complement(self):
        model = fig1_model()
        report = measure_coverage(model, backend="compiled")
        cov = CoverageModel.from_plan(lower(model))
        missed = cov.missed(report)
        assert missed["transfers"] == []
        assert missed["cells"] == []
        # The clean run never provokes its potential conflict pair.
        assert len(missed["conflict_pairs"]) == 1


# ----------------------------------------------------------------------
# report algebra
# ----------------------------------------------------------------------
class TestCoverageReport:
    def _reports(self):
        model = conflict_model()
        a = measure_coverage(model, backend="compiled")
        b = measure_coverage(
            model, backend="compiled",
            register_values={"R1": 9, "R2": 9},
        )
        return a, b

    def test_merge_is_idempotent(self):
        a, _ = self._reports()
        assert a.merge(a) == a

    def test_merge_is_commutative_and_associative(self):
        a, b = self._reports()
        c = measure_coverage(
            conflict_model(), backend="compiled",
            register_values={"R1": 0, "R2": 0},
        )
        assert a.merge(b) == b.merge(a)
        assert a.merge(b).merge(c) == a.merge(b.merge(c))

    def test_merge_rejects_different_models(self):
        a = measure_coverage(fig1_model(), backend="compiled")
        b = measure_coverage(tiny_model(), backend="compiled")
        with pytest.raises(CoverageError):
            a.merge(b)

    def test_dict_round_trip(self):
        a, _ = self._reports()
        assert CoverageReport.from_dict(a.to_dict()) == a
        assert CoverageReport.from_dict(json.loads(a.to_json())) == a

    def test_render_names_every_dimension(self):
        a, _ = self._reports()
        text = a.render()
        for word in ("transfers", "cells", "port classes",
                     "conflict pairs", "overall"):
            assert word in text

    def test_conflict_run_covers_the_pair(self):
        model = conflict_model()
        report = measure_coverage(model, backend="compiled")
        assert len(report.conflict_pairs_hit) >= 1
        assert 0.0 < report.coverage <= 1.0

    def test_probe_report_exposed_after_run(self):
        probe = CoverageProbe()
        fig1_model().elaborate(backend="compiled", observe=probe).run()
        assert probe.report is not None
        assert probe.report.transfers_hit


# ----------------------------------------------------------------------
# the cumulative on-disk DB
# ----------------------------------------------------------------------
class TestCoverageDB:
    def test_update_accumulates(self, tmp_path):
        db = CoverageDB(tmp_path)
        model = conflict_model()
        a = measure_coverage(model, backend="compiled")
        b = measure_coverage(
            model, backend="compiled",
            register_values={"R1": 5, "R2": 5},
        )
        first = db.update(a)
        assert first == a
        merged = db.update(b)
        assert merged == a.merge(b)
        assert db.get(a.digest) == merged

    def test_update_is_idempotent_on_disk(self, tmp_path):
        db = CoverageDB(tmp_path)
        a = measure_coverage(fig1_model(), backend="compiled")
        db.update(a)
        again = db.update(a)
        assert again == a

    def test_body_variants_accumulate_into_one_entry(self, tmp_path):
        """The DB is keyed by the Plan digest, which leaves operation
        bodies out: two bodies of Fig. 1's ADD accumulate into one
        entry, as two stimuli of one design do."""
        db = CoverageDB(tmp_path)
        for k in (1, 100):
            model = fig1_model()
            model.modules["ADD"] = ModuleSpec(
                "ADD",
                operations={
                    "ADD": Operation("ADD", 2, functools.partial(_add_k, k)),
                },
                latency=1,
            )
            db.update(measure_coverage(model, backend="compiled"))
        assert len(list((tmp_path / "coverage" / "v1").glob("*.json"))) == 1

    def test_get_missing_returns_none(self, tmp_path):
        assert CoverageDB(tmp_path).get("0" * 64) is None

    def test_corrupt_entry_is_discarded_with_warning(self, tmp_path):
        db = CoverageDB(tmp_path)
        a = measure_coverage(fig1_model(), backend="compiled")
        db.put(a)
        db.path_for(a.digest).write_text("{not json", encoding="utf-8")
        with pytest.warns(RuntimeWarning):
            assert db.get(a.digest) is None
        # The next update starts fresh instead of failing.
        with pytest.warns(RuntimeWarning):
            assert db.update(a) == a

    def test_foreign_payload_is_rejected(self, tmp_path):
        db = CoverageDB(tmp_path)
        a = measure_coverage(fig1_model(), backend="compiled")
        db.put(a)
        path = db.path_for(a.digest)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["magic"] = "something-else"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.warns(RuntimeWarning):
            assert db.get(a.digest) is None

    def test_as_coverage_db_shapes(self, tmp_path):
        assert as_coverage_db(None) is None
        assert as_coverage_db(False) is None
        db = as_coverage_db(tmp_path)
        assert isinstance(db, CoverageDB)
        assert as_coverage_db(db) is db


# ----------------------------------------------------------------------
# front-door errors
# ----------------------------------------------------------------------
class TestMeasureCoverage:
    def test_vector_sequence_needs_batched_backend(self):
        with pytest.raises(CoverageError):
            measure_coverage(
                fig1_model(), backend="compiled",
                register_values=[{"R1": 1}, {"R1": 2}],
            )
