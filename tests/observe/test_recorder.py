"""The JSONL recorder: schema stability, value encoding, round-trip
through files, RunReport aggregation, and the one-line rendering of
live records."""

import json

import pytest

from repro.core.values import DISC, ILLEGAL
from repro.observe import (
    SCHEMA_VERSION,
    JsonlRecorder,
    RunReport,
    decode_value,
    encode_value,
    format_event,
    read_events,
)

from .conftest import conflict_model, fig1_model


class TestValueEncoding:
    def test_std_logic_analogues(self):
        assert encode_value(DISC) == "z"
        assert encode_value(ILLEGAL) == "x"
        assert encode_value(42) == 42

    @pytest.mark.parametrize("value", [DISC, ILLEGAL, 0, 1, 255])
    def test_round_trip(self, value):
        assert decode_value(encode_value(value)) == value


class TestJsonlRecorder:
    def test_in_memory_recording(self):
        recorder = JsonlRecorder()
        fig1_model().elaborate(observe=recorder).run()
        kinds = [e["event"] for e in recorder.events]
        assert kinds[0] == "run_start"
        assert kinds[-1] == "run_end"
        assert "phase" in kinds and "bus" in kinds and "latch" in kinds

    def test_schema_version_stamped(self):
        recorder = JsonlRecorder()
        fig1_model().elaborate(observe=recorder).run()
        start = recorder.events[0]
        assert start["schema"] == SCHEMA_VERSION
        assert start["model"] == "example"
        assert start["backend"] == "event"
        assert start["cs_max"] == 7

    def test_file_output_round_trips(self, tmp_path):
        path = tmp_path / "run.jsonl"
        recorder = JsonlRecorder(str(path), keep_events=True)
        fig1_model().elaborate(observe=recorder).run()
        reread = read_events(str(path))
        assert reread == recorder.events
        # Every line is standalone JSON.
        for line in path.read_text().splitlines():
            assert json.loads(line)["event"]

    def test_disc_encoded_as_z_in_stream(self):
        recorder = JsonlRecorder()
        fig1_model().elaborate(observe=recorder).run()
        releases = [
            e for e in recorder.events
            if e["event"] == "bus" and e["value"] == "z"
        ]
        assert releases, "bus releases must appear as std-logic 'z'"

    def test_conflict_records_location_and_drivers(self):
        recorder = JsonlRecorder()
        conflict_model().elaborate(observe=recorder).run()
        conflicts = [e for e in recorder.events if e["event"] == "conflict"]
        assert conflicts
        first = conflicts[0]
        assert first["signal"] == "B1"
        assert first["cs"] == 2
        assert len(first["drivers"]) == 2

    def test_run_end_carries_stats_and_registers(self):
        recorder = JsonlRecorder()
        fig1_model().elaborate(observe=recorder).run()
        end = recorder.events[-1]
        assert end["clean"] is True
        assert end["stats"]["delta_cycles"] == 42
        assert end["registers"] == {"R1": 5, "R2": 3}

    def test_read_events_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"event":"step"}\nnot json\n')
        with pytest.raises(ValueError, match="line 2"):
            read_events(str(path))
        path.write_text('{"no_event_key": 1}\n')
        with pytest.raises(ValueError, match="missing 'event'"):
            read_events(str(path))


class TestRunReport:
    def _recorded(self, model):
        recorder = JsonlRecorder()
        model.elaborate(observe=recorder).run()
        return RunReport.from_recorder(recorder)

    def test_aggregates_counts_and_registers(self):
        report = self._recorded(fig1_model())
        assert report.model == "example"
        assert report.backend == "event"
        assert report.clean is True
        assert report.counts["phase"] == 42
        assert report.registers == {"R1": 5, "R2": 3}
        assert report.bus_occupancy["B1"] == 4
        assert report.register_activity == {"R1": 1}

    def test_conflict_timeline_grouped_by_location(self):
        report = self._recorded(conflict_model())
        assert report.clean is False
        assert report.conflicts_by_location
        # Signals grouped under "cs<N>.<ph>" keys.
        for where, signals in report.conflicts_by_location.items():
            assert where.startswith("cs")
            assert "." in where
            assert signals

    def test_from_jsonl_file(self, tmp_path):
        path = tmp_path / "run.jsonl"
        fig1_model().elaborate(observe=JsonlRecorder(str(path))).run()
        report = RunReport.from_jsonl(str(path))
        assert report.registers == {"R1": 5, "R2": 3}
        assert report.wall is not None and report.wall > 0

    def test_to_json_stable_keys(self):
        report = self._recorded(fig1_model())
        decoded = json.loads(report.to_json())
        assert list(decoded) == [
            "model", "backend", "cs_max", "schema", "wall", "clean",
            "plan_cache", "plan_build_ms",
            "stats", "registers", "counts", "conflicts",
            "conflicts_by_location", "bus_occupancy",
            "register_activity", "phase_wall",
        ]

    def test_render_mentions_the_essentials(self):
        text = self._recorded(conflict_model()).render()
        assert "run report: clash [event]" in text
        assert "conflicts" in text
        assert "B1" in text

    def test_phase_wall_covers_all_six_phases(self):
        report = self._recorded(fig1_model())
        assert set(report.phase_wall) == {"ra", "rb", "cm", "wa", "wb", "cr"}

    def test_plan_cache_rows_survive_and_render(self, tmp_path):
        recorder = JsonlRecorder()
        fig1_model().elaborate(
            backend="compiled", plan_cache=tmp_path, observe=recorder
        ).run()
        report = RunReport.from_recorder(recorder)
        assert report.plan_cache == "miss"
        assert report.plan_build_ms is not None
        assert report.plan_build_ms >= 0.0
        text = report.render()
        assert "plan cache    : miss" in text
        assert "ms)" in text

    def test_event_backend_has_no_plan_rows(self):
        report = self._recorded(fig1_model())
        assert report.plan_cache is None
        assert "plan cache" not in report.render()


class TestTruncatedLogs:
    """`repro report` on a truncated/partial recording (a crashed or
    still-running simulation) must degrade gracefully, not crash."""

    def _recorded_lines(self, tmp_path):
        path = tmp_path / "run.jsonl"
        recorder = JsonlRecorder(str(path))
        fig1_model().elaborate(observe=recorder).run()
        return path, path.read_text().splitlines()

    def test_lenient_read_skips_truncated_tail(self, tmp_path):
        path, lines = self._recorded_lines(tmp_path)
        # Chop the final record mid-JSON, as a killed writer would.
        path.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][:7])
        with pytest.warns(UserWarning, match="truncated"):
            events = read_events(str(path), strict=False)
        assert len(events) == len(lines) - 1

    def test_lenient_read_skips_malformed_tail(self, tmp_path):
        path, lines = self._recorded_lines(tmp_path)
        path.write_text("\n".join(lines) + '\n{"no_event_key": 1}\n')
        with pytest.warns(UserWarning, match="malformed"):
            events = read_events(str(path), strict=False)
        assert len(events) == len(lines)

    def test_strict_read_still_rejects_truncated_tail(self, tmp_path):
        path, lines = self._recorded_lines(tmp_path)
        path.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][:7])
        with pytest.raises(ValueError):
            read_events(str(path))

    def test_lenient_read_still_rejects_mid_file_corruption(self, tmp_path):
        path, lines = self._recorded_lines(tmp_path)
        lines[3] = "garbage"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="line 4"):
            read_events(str(path), strict=False)

    def test_run_report_from_truncated_log(self, tmp_path):
        path, lines = self._recorded_lines(tmp_path)
        # Drop run_end entirely and truncate the new last line.
        path.write_text("\n".join(lines[:-2]) + "\n" + lines[-2][:5])
        with pytest.warns(UserWarning):
            report = RunReport.from_jsonl(str(path))
        assert report.model == "example"
        assert report.render()

    def test_empty_file_reports_cleanly(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert read_events(str(path), strict=False) == []
        report = RunReport.from_jsonl(str(path))
        assert report.render()


class TestFormatEvent:
    def test_each_record_kind_renders(self):
        conflict = format_event({
            "event": "conflict", "cs": 2, "ph": "rb", "signal": "B1",
            "drivers": [["a", 1], ["b", 2]], "digest": "d",
        })
        violation = format_event({
            "event": "violation", "cs": 2, "ph": "rb",
            "property": "never_illegal", "signal": "B1",
            "message": "observed ILLEGAL",
        })
        assert conflict == "CONFLICT   cs2.rb B1 (drivers: a=1, b=2)"
        assert violation == (
            "VIOLATION  cs2.rb [never_illegal] B1 observed ILLEGAL"
        )

    def test_unknown_kind_falls_back_to_json(self):
        line = format_event({"event": "mystery", "cs": 1})
        assert line.startswith("mystery  ")
        assert json.loads(line.split("  ", 1)[1]) == {
            "event": "mystery", "cs": 1,
        }
