"""The hierarchical span tracer and its Chrome trace-event export.

Spans are cut at the same probe boundaries as the Profiler's phase
walls (shared ``perf_counter`` clock), so the two observers reconcile;
the export is the Chrome trace-event format Perfetto loads directly.
"""

import json
import time

from repro.observe import (
    Profiler,
    ProbeSet,
    RequestContext,
    SpanTracer,
    new_trace_id,
)

from .conftest import fig1_model


def _traced(backend="compiled", **kwargs):
    tracer = SpanTracer()
    with tracer.span("elaborate"):
        sim = fig1_model().elaborate(
            backend=backend, observe=tracer, **kwargs
        )
    sim.run()
    tracer.annotate_backend(sim)
    return tracer, sim


def _by_name(tracer):
    names = {}
    for span in tracer.spans:
        names.setdefault(span["name"], []).append(span)
    return names


class TestSpanHierarchy:
    def test_run_wraps_steps_wraps_phases(self):
        tracer, _ = _traced()
        names = _by_name(tracer)
        assert len(names["run"]) == 1
        # One step span per control step, six phase spans per step.
        step_spans = [s for s in tracer.spans if s["cat"] == "step"]
        phase_spans = [s for s in tracer.spans if s["cat"] == "phase"]
        assert len(step_spans) == 7
        assert len(phase_spans) == 42
        run = names["run"][0]
        run_end = run["ts"] + run["dur"]
        for span in step_spans + phase_spans:
            assert span["ts"] >= run["ts"] - 1e-6
            assert span["ts"] + span["dur"] <= run_end + 1e-6

    def test_phase_spans_carry_their_step(self):
        tracer, _ = _traced()
        phase_spans = [s for s in tracer.spans if s["cat"] == "phase"]
        assert {s["args"]["cs"] for s in phase_spans} == set(range(1, 8))
        assert {s["name"] for s in phase_spans} == {
            "ra", "rb", "cm", "wa", "wb", "cr",
        }

    def test_elaborate_span_precedes_the_run(self):
        tracer, _ = _traced()
        names = _by_name(tracer)
        elaborate = names["elaborate"][0]
        run = names["run"][0]
        assert elaborate["ts"] <= run["ts"]

    def test_plan_span_synthesized_from_the_backend(self, tmp_path):
        tracer, _ = _traced(plan_cache=tmp_path)
        names = _by_name(tracer)
        (plan_span,) = names["plan:miss"]
        assert plan_span["cat"] == "plan"
        assert plan_span["dur"] > 0.0
        assert len(plan_span["args"]["digest"]) == 16


class TestProfilerReconciliation:
    def test_phase_walls_agree(self):
        tracer = SpanTracer()
        profiler = Profiler()
        sim = fig1_model().elaborate(
            backend="compiled", observe=ProbeSet(tracer, profiler)
        )
        sim.run()
        span_walls = tracer.phase_wall()
        assert set(span_walls) == set(profiler.phase_wall)
        # Same clock, same boundaries: sums agree to within the cost
        # of the neighbouring probe callbacks themselves.
        for phase, seconds in profiler.phase_wall.items():
            assert abs(span_walls[phase] - seconds) < 0.05
        assert abs(tracer.run_wall() - profiler.wall) < 0.05

    def test_phase_walls_agree_with_a_sampling_profiler(self):
        """A ``sample_every=N`` Profiler on the *same* run profiles only
        every Nth step; the tracer still spans every step, so the
        reconciliation restricts its span sum to the sampled steps."""
        tracer = SpanTracer()
        profiler = Profiler(sample_every=3)
        sim = fig1_model().elaborate(
            backend="compiled", observe=ProbeSet(tracer, profiler)
        )
        sim.run()
        # fig1 has 7 steps; steps 1, 4, 7 are sampled.
        sampled = {1, 4, 7}
        assert profiler.sampled_steps == len(sampled)
        span_walls: dict = {}
        for span in tracer.spans:
            if span.get("cat") == "phase" and span["args"]["cs"] in sampled:
                span_walls[span["name"]] = (
                    span_walls.get(span["name"], 0.0) + span["dur"] / 1e6
                )
        assert set(span_walls) == set(profiler.phase_wall)
        for phase, seconds in profiler.phase_wall.items():
            assert abs(span_walls[phase] - seconds) < 0.05


class TestChromeExport:
    def test_export_shape(self, tmp_path):
        tracer, _ = _traced()
        for label in ("conn 1", "lane deadbeef"):
            tid = tracer.alloc_track(label)
            tracer.add_span("stage", tracer.t0, tracer.t0 + 0.001, tid=tid)
        payload = json.loads(tracer.to_json())
        assert set(payload) == {"traceEvents", "displayTimeUnit"}
        events = payload["traceEvents"]
        # Metadata names the process and each track.
        kinds = {e["ph"] for e in events}
        assert kinds == {"M", "X"}
        names = {
            e["args"]["name"] for e in events if e["name"] == "thread_name"
        }
        assert names == {"main", "conn 1", "lane deadbeef"}
        for event in events:
            if event["ph"] == "X":
                assert event["ts"] >= 0.0
                assert event["dur"] >= 0.0
        out = tmp_path / "trace.json"
        tracer.write(str(out))
        assert json.loads(out.read_text())["traceEvents"]

    def test_events_sorted_per_track(self):
        tracer, _ = _traced()
        events = [
            e for e in tracer.to_chrome()["traceEvents"] if e["ph"] == "X"
        ]
        keys = [(e["tid"], e["ts"]) for e in events]
        assert keys == sorted(keys)


class TestRequestContext:
    def test_trace_ids_are_distinct_hex(self):
        ids = {new_trace_id() for _ in range(64)}
        assert len(ids) == 64
        for trace_id in ids:
            assert len(trace_id) == 16
            int(trace_id, 16)

    def test_spans_carry_trace_op_and_track(self):
        tracer = SpanTracer()
        tid = tracer.alloc_track("conn test")
        ctx = RequestContext("abc123", tracer, tid=tid, op="simulate")
        t0 = time.perf_counter()
        ctx.add_span("queue", t0, t0 + 0.001, args={"batch": 7})
        with ctx.span("serialize", bytes_out=42):
            pass
        queue, serialize = tracer.spans
        assert queue["args"] == {
            "trace": "abc123", "op": "simulate", "batch": 7,
        }
        assert queue["tid"] == tid
        assert queue["cat"] == "serve"
        assert serialize["args"]["bytes_out"] == 42
        assert serialize["args"]["trace"] == "abc123"

    def test_alloc_track_labels_the_export(self):
        tracer = SpanTracer()
        lane_tid = tracer.alloc_track("lane deadbeef")
        tracer.add_span("sweep", tracer.t0, tracer.t0 + 0.001, tid=lane_tid)
        labels = {
            e["tid"]: e["args"]["name"]
            for e in tracer.to_chrome()["traceEvents"]
            if e["name"] == "thread_name"
        }
        assert labels[lane_tid] == "lane deadbeef"

    def test_untraced_context_is_a_noop(self):
        ctx = RequestContext("abc123", tracer=None, op="simulate")
        assert ctx.add_span("queue", 0.0, 1.0) is None
        with ctx.span("serialize"):
            pass  # must not raise, must not record anything
