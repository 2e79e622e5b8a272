"""The temporal assertion monitor: properties, reports, parsing, CLI glue."""

import json

import pytest

from repro.core import DISC, ILLEGAL
from repro.engine import run_metrics
from repro.observe import (
    AssertionMonitor,
    MonitorError,
    always_at,
    check_model,
    default_properties,
    implies_within,
    load_properties,
    monitored_watch_list,
    never_illegal,
    no_conflicts,
    parse_properties,
    stable_between,
    when,
)
from repro.observe.monitor import AssertionReport, Violation

from .conftest import conflict_model, fig1_model


def run_monitored(model, properties, backend="event", **kwargs):
    monitor = AssertionMonitor(properties)
    model.elaborate(backend=backend, observe=monitor, **kwargs).run()
    assert monitor.report is not None
    return monitor.report


class TestDefaultProperties:
    def test_clean_model_passes(self):
        report = run_monitored(fig1_model(), default_properties())
        assert report.ok
        assert report.properties == ["never_illegal", "no_conflicts"]
        assert report.cycles == 42
        assert report.conflicts == 0

    def test_conflict_model_fails_both(self):
        report = run_monitored(conflict_model(), default_properties())
        assert not report.ok
        by_prop = report.by_property()
        assert by_prop["never_illegal"]
        assert by_prop["no_conflicts"]

    def test_violations_carry_cs_ph_and_signal(self):
        report = run_monitored(conflict_model(), [no_conflicts()])
        first = report.violations[0]
        assert (first.at.step, first.at.phase.vhdl_name) == (2, "rb")
        assert first.signal == "B1"
        assert "drivers" in first.message

    def test_violations_sorted_by_time(self):
        report = run_monitored(conflict_model(), default_properties())
        keys = [v.sort_key() for v in report.violations]
        assert keys == sorted(keys)


class TestScopedProperties:
    def test_never_illegal_scoped_to_signal(self):
        report = run_monitored(conflict_model(), [never_illegal("B2")])
        assert {v.signal for v in report.violations} == {"B2"}

    def test_no_conflicts_scoped(self):
        report = run_monitored(conflict_model(), [no_conflicts("R3_in")])
        assert [v.signal for v in report.violations] == ["R3_in"]
        assert report.conflicts == 7  # all conflicts counted, one matched

    def test_always_at_passes_on_clean_model(self):
        prop = always_at(
            "cr", lambda state: state.get("R1", DISC) != ILLEGAL,
            signal="R1",
        )
        assert run_monitored(fig1_model(), [prop]).ok

    def test_always_at_catches_illegal_register(self):
        prop = always_at(
            "ra", lambda state: state.get("R3", DISC) != ILLEGAL,
            signal="R3",
        )
        report = run_monitored(conflict_model(), [prop])
        assert not report.ok
        v = report.violations[0]
        assert (v.at.step, v.signal, v.observed) == (4, "R3", ILLEGAL)


class TestImpliesWithin:
    def test_response_in_time_passes(self):
        # Fig. 1 drives B1 from step 5 on; R1 latches 5 at cs7.ra --
        # two control steps after the first trigger.
        prop = implies_within(
            when("B1", op="ne", value=DISC),
            when("R1", op="eq", value=5, changed_only=True),
            k_steps=2,
        )
        assert run_monitored(fig1_model(), [prop]).ok

    def test_missing_response_is_reported_with_trigger_time(self):
        prop = implies_within(
            when("B1", op="ne", value=DISC),
            when("R2", op="eq", value=999),
            k_steps=1,
        )
        report = run_monitored(fig1_model(), [prop])
        assert not report.ok
        assert report.violations[0].at.step == 5

    def test_obligation_open_at_run_end_is_strong(self):
        # Trigger in the final step: the window never elapses inside
        # the run, but strong semantics flag it at end of run.
        model = fig1_model()
        prop = implies_within(
            when("R1", op="eq", value=5, changed_only=True),
            when("R2", op="eq", value=999),
            k_steps=5,
        )
        report = run_monitored(model, [prop])
        assert len(report.violations) == 1

    def test_negative_window_rejected(self):
        with pytest.raises(MonitorError):
            implies_within(when("B1"), when("B1"), k_steps=-1)


class TestStableBetween:
    def test_untouched_register_is_stable(self):
        assert run_monitored(
            fig1_model(), [stable_between("R2", 1, 7)]
        ).ok

    def test_latch_inside_window_violates(self):
        report = run_monitored(fig1_model(), [stable_between("R1", 1, 7)])
        assert not report.ok
        v = report.violations[0]
        assert (v.signal, v.observed, v.expected) == ("R1", 5, 2)
        assert v.at.step == 7  # value driven in 6 is latched at cs7.ra

    def test_window_after_latch_is_stable(self):
        assert run_monitored(
            fig1_model(), [stable_between("R1", 1, 6)]
        ).ok

    def test_empty_window_rejected(self):
        with pytest.raises(MonitorError):
            stable_between("R1", 5, 4)


class TestAssertionReport:
    def test_render_marks_pass_and_fail(self):
        report = run_monitored(conflict_model(), default_properties())
        text = report.render()
        assert "assertion report:" in text
        assert "FAIL never_illegal" in text
        assert "FAIL no_conflicts" in text
        assert "cs2.rb" in text

    def test_to_dict_round_trips_through_json(self):
        report = run_monitored(conflict_model(), default_properties())
        decoded = json.loads(report.to_json())
        assert decoded["ok"] is False
        assert decoded["violations"][0]["cs"] == 2
        assert decoded["violations"][0]["ph"] == "rb"
        # ILLEGAL encodes as "x" on the wire.
        assert "x" in json.dumps(decoded)

    def test_end_of_run_violation_encodes_null_time(self):
        v = Violation(
            prop="p", at=None, signal=None, observed=None,
            expected="response", message="m",
        )
        assert v.to_dict()["cs"] is None
        assert v.sort_key() > Violation(
            prop="p", at=None, signal=None, observed=None,
            expected="", message="",
        ).sort_key() or True  # sort_key is total even without time

    def test_empty_report_is_ok(self):
        assert AssertionReport().ok


class TestRunMetricsMonitor:
    def test_violations_column(self):
        monitor = AssertionMonitor(default_properties())
        sim = conflict_model().elaborate(observe=monitor).run()
        row = run_metrics(sim, monitor=monitor)
        assert row["violations"] == len(monitor.report.violations)
        assert row["violations"] > 0

    def test_report_accepted_directly(self):
        monitor = AssertionMonitor(default_properties())
        sim = fig1_model().elaborate(observe=monitor).run()
        row = run_metrics(sim, monitor=monitor.report)
        assert row["violations"] == 0

    def test_no_monitor_no_column(self):
        sim = fig1_model().elaborate().run()
        assert "violations" not in run_metrics(sim)


class TestCheckModel:
    def test_scalar_backend(self):
        report = check_model(conflict_model(), default_properties())
        assert not report.ok

    def test_batched_single_mapping_returns_single_report(self):
        pytest.importorskip("numpy")
        report = check_model(
            fig1_model(), default_properties(),
            backend="compiled-batched",
            register_values={"R1": 7, "R2": 1},
        )
        assert report.ok

    def test_batched_sequence_returns_per_lane(self):
        pytest.importorskip("numpy")
        reports = check_model(
            fig1_model(), default_properties(),
            backend="compiled-batched",
            register_values=[{"R1": 1}, {"R1": 2}, {"R1": 3}],
        )
        assert len(reports) == 3
        assert all(r.ok for r in reports)

    def test_sequence_on_scalar_backend_rejected(self):
        with pytest.raises(MonitorError):
            check_model(
                fig1_model(), default_properties(),
                backend="compiled", register_values=[{"R1": 1}],
            )

    def test_monitored_watch_list_covers_buses_and_reg_outs(self):
        model = fig1_model()
        watch = monitored_watch_list(model)
        assert set(watch) == {"B1", "B2", "R1_out", "R2_out"}


class TestParseProperties:
    def test_never_default_is_illegal(self):
        props = parse_properties('[{"type": "never", "signal": "B1"}]')
        report = run_monitored(conflict_model(), props)
        assert {v.signal for v in report.violations} == {"B1"}

    def test_never_with_op_and_value(self):
        props = parse_properties(
            '[{"type": "never", "signal": "R1", "op": "gt", "value": 4}]'
        )
        report = run_monitored(fig1_model(), props)
        assert not report.ok  # R1 latches 5

    def test_value_accepts_z_and_x(self):
        props = parse_properties(
            '[{"type": "never", "signal": "B1", "value": "x"}]'
        )
        assert not run_monitored(conflict_model(), props).ok

    def test_properties_wrapper_object(self):
        props = parse_properties(
            '{"properties": [{"type": "no_conflicts"}]}'
        )
        assert props[0].label == "no_conflicts"

    def test_full_catalogue_parses(self):
        source = json.dumps([
            {"type": "never"},
            {"type": "no_conflicts", "signals": ["B1"]},
            {"type": "always_at", "phase": "cr", "signal": "R1",
             "op": "ne", "value": "x"},
            {"type": "implies_within",
             "trigger": {"signal": "B1", "op": "ne", "value": "z"},
             "response": {"signal": "R1", "value": 5, "changed": True},
             "steps": 2},
            {"type": "stable_between", "register": "R2",
             "from": 1, "to": 7, "label": "r2-frozen"},
        ])
        props = parse_properties(source)
        assert len(props) == 5
        assert props[4].label == "r2-frozen"
        assert run_monitored(fig1_model(), props).ok

    @pytest.mark.parametrize("bad", [
        "not json",
        "{}",
        "[]",
        '[{"type": "nope"}]',
        '[{"type": "never", "op": "spaceship"}]',
        '[{"type": "never", "value": 1.5}]',
        '[{"type": "always_at", "signal": "R1"}]',
        '[{"type": "always_at", "phase": "xx", "signal": "R1"}]',
        '[{"type": "implies_within", "trigger": {"signal": "B1"}}]',
        '[{"type": "implies_within", "trigger": {"signal": "B1"},'
        ' "response": {"signal": "B1"}, "steps": -1}]',
        '[{"type": "implies_within", "trigger": {},'
        ' "response": {"signal": "B1"}, "steps": 1}]',
        '[{"type": "stable_between", "register": "R1"}]',
        '[{"type": "no_conflicts", "signals": "B1"}]',
        '["just a string"]',
    ])
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(MonitorError):
            parse_properties(bad)

    def test_error_names_the_property_index(self):
        with pytest.raises(MonitorError, match="property #2"):
            parse_properties(
                '[{"type": "never"}, {"type": "bogus"}]'
            )

    def test_load_properties_missing_file(self):
        with pytest.raises(MonitorError):
            load_properties("/nonexistent/assert.json")

    def test_load_properties_reads_file(self, tmp_path):
        path = tmp_path / "props.json"
        path.write_text('[{"type": "no_conflicts"}]')
        props = load_properties(str(path))
        assert run_monitored(conflict_model(), props).conflicts == 7


class TestMonitorReuse:
    def test_one_monitor_across_runs_resets(self):
        monitor = AssertionMonitor(default_properties())
        conflict_model().elaborate(observe=monitor).run()
        assert not monitor.report.ok
        fig1_model().elaborate(observe=monitor).run()
        assert monitor.report.ok  # fresh evaluation per run
