"""Hierarchical span tracing as a probe, exported as Chrome trace JSON.

:class:`SpanTracer` turns one run into a tree of wall-clock spans --
``run`` wrapping per-control-step ``cs<N>`` spans wrapping per-phase
``ra``/``rb``/``cm``/``wa``/``wb``/``cr`` spans -- plus the
elaboration-side spans the CLI opens around it (``elaborate``, with
the plan resolution synthesized underneath from the backend's
``plan_build_ms``).  Service-side sources (one per connection or
batching lane) get their own named tracks via
:meth:`SpanTracer.alloc_track`.

Spans share the :class:`~repro.observe.profiler.Profiler`'s clock
(``time.perf_counter``) and are cut at exactly the same probe
boundaries, so the sum of a run's phase spans reconciles with the
profiler's per-phase wall totals (tested in
``tests/observe/test_trace_spans.py``).

The output is the Chrome trace-event format (``"traceEvents"`` with
complete ``ph="X"`` events; timestamps and durations in microseconds)
-- load the file in Perfetto (ui.perfetto.dev) or ``chrome://tracing``.
Like every probe, the tracer costs nothing when not attached, and the
per-cycle cost when attached is one ``perf_counter`` call plus one
list append (measured by the E6 overhead benchmark next to the
profiler's).
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from ..core.phases import Phase
from .probe import Probe

__all__ = ["RequestContext", "SpanTracer", "new_trace_id"]

#: Track id of the run-side spans; :meth:`SpanTracer.alloc_track`
#: hands out the ids above it.
MAIN_TID = 0


def new_trace_id() -> str:
    """A 16-hex-char random trace id for one service request."""
    return os.urandom(8).hex()


class SpanTracer(Probe):
    """Collects hierarchical wall-clock spans for one process."""

    def __init__(self) -> None:
        #: Clock origin: every span timestamp is relative to this.
        self.t0 = time.perf_counter()
        #: Completed spans as Chrome trace events (``ph="X"``).
        self.spans: List[Dict[str, Any]] = []
        #: Explicit track names (tid -> label) set via
        #: :meth:`alloc_track`; :meth:`_metadata` names the rest.
        self.track_labels: Dict[int, str] = {}
        self._next_tid = 1
        self._run_start: Optional[float] = None
        self._step_open: Optional[tuple] = None  # (step, start)
        self._phase_open: Optional[tuple] = None  # (StepPhase, start)
        self._elaborate_span: Optional[Dict[str, Any]] = None

    def alloc_track(self, label: str) -> int:
        """Reserve a named track (Chrome tid) for a span source.

        The service uses one track per connection and one per batching
        lane so overlapping request spans render side by side instead
        of stacking on tid 0."""
        tid = self._next_tid
        self._next_tid += 1
        self.track_labels[tid] = label
        return tid

    # ------------------------------------------------------------------
    # span plumbing
    # ------------------------------------------------------------------
    def _now(self) -> float:
        return time.perf_counter()

    def _us(self, t: float) -> float:
        return (t - self.t0) * 1e6

    def add_span(
        self,
        name: str,
        start: float,
        end: Optional[float] = None,
        *,
        dur: Optional[float] = None,
        tid: int = MAIN_TID,
        cat: str = "repro",
        args: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Record one complete span.

        ``start``/``end`` are ``perf_counter`` readings on this
        tracer's clock; ``dur`` (seconds) may replace ``end`` for
        spans whose duration was measured elsewhere (plan build)."""
        if dur is None:
            dur = (end if end is not None else self._now()) - start
        event = {
            "name": name,
            "cat": cat,
            "ph": "X",
            "ts": self._us(start),
            "dur": max(dur, 0.0) * 1e6,
            "pid": 0,
            "tid": tid,
        }
        if args:
            event["args"] = args
        self.spans.append(event)
        return event

    @contextmanager
    def span(
        self,
        name: str,
        *,
        cat: str = "repro",
        args: Optional[Dict[str, Any]] = None,
    ) -> Iterator[None]:
        """Bracket a code region as a span (e.g. elaboration)."""
        start = self._now()
        try:
            yield
        finally:
            event = self.add_span(
                name, start, self._now(), cat=cat, args=args
            )
            if name == "elaborate":
                self._elaborate_span = event

    # ------------------------------------------------------------------
    # Probe interface (the run-side hierarchy)
    # ------------------------------------------------------------------
    def on_run_start(self, backend: Any) -> None:
        self._run_start = self._now()
        self._step_open = None
        self._phase_open = None

    def on_phase(self, at) -> None:
        now = self._now()
        if self._phase_open is not None:
            prev, start = self._phase_open
            self.add_span(
                prev.phase.vhdl_name, start, now,
                cat="phase", args={"cs": prev.step},
            )
        if at.phase is Phase.RA:
            if self._step_open is not None:
                step, start = self._step_open
                self.add_span(f"cs{step}", start, now, cat="step")
            self._step_open = (at.step, now)
        self._phase_open = (at, now)

    def on_run_end(self, backend: Any, wall: float) -> None:
        now = self._now()
        if self._phase_open is not None:
            prev, start = self._phase_open
            self.add_span(
                prev.phase.vhdl_name, start, now,
                cat="phase", args={"cs": prev.step},
            )
            self._phase_open = None
        if self._step_open is not None:
            step, start = self._step_open
            self.add_span(f"cs{step}", start, now, cat="step")
            self._step_open = None
        name = getattr(backend, "backend_name", type(backend).__name__)
        start = self._run_start if self._run_start is not None else now - wall
        self.add_span("run", start, now, args={"backend": name})
        self._run_start = None

    # ------------------------------------------------------------------
    # backend-side synthesis
    # ------------------------------------------------------------------
    def annotate_backend(self, backend: Any) -> None:
        """Synthesize the plan-resolution span only the backend knows.

        ``plan_build_ms`` happened inside elaboration; re-emit it as a
        child at the elaborate span's start (or the clock origin when
        elaboration was not bracketed), named after the cache verdict.
        """
        state = getattr(backend, "plan_cache_state", None)
        if state is None:
            return
        if self._elaborate_span is not None:
            plan_ts = self._elaborate_span["ts"]
        else:
            plan_ts = 0.0
        build_ms = getattr(backend, "plan_build_ms", 0.0)
        event = {
            "name": f"plan:{state}",
            "cat": "plan",
            "ph": "X",
            "ts": plan_ts,
            "dur": build_ms * 1e3,
            "pid": 0,
            "tid": MAIN_TID,
        }
        plan = getattr(backend, "model_plan", None)
        if plan is not None:
            event["args"] = {"digest": plan.digest[:16]}
        self.spans.append(event)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def _metadata(self) -> List[Dict[str, Any]]:
        tids = sorted({span["tid"] for span in self.spans})
        events: List[Dict[str, Any]] = [{
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": MAIN_TID,
            "args": {"name": "repro"},
        }]
        for tid in tids:
            label = self.track_labels.get(tid) or (
                "main" if tid == MAIN_TID else f"track {tid}"
            )
            events.append({
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "args": {"name": label},
            })
        return events

    def to_chrome(self) -> Dict[str, Any]:
        """The Chrome trace-event JSON object."""
        ordered = sorted(self.spans, key=lambda s: (s["tid"], s["ts"]))
        return {
            "traceEvents": self._metadata() + ordered,
            "displayTimeUnit": "ms",
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_chrome(), indent=indent)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())
            handle.write("\n")

    # ------------------------------------------------------------------
    # reconciliation helpers (tested against the Profiler)
    # ------------------------------------------------------------------
    def phase_wall(self) -> Dict[str, float]:
        """Per-phase summed span seconds (the Profiler's quantity)."""
        totals: Dict[str, float] = {}
        names = {phase.vhdl_name for phase in Phase}
        for span in self.spans:
            if span.get("cat") == "phase" and span["name"] in names:
                totals[span["name"]] = (
                    totals.get(span["name"], 0.0) + span["dur"] / 1e6
                )
        return totals

    def run_wall(self) -> float:
        """Summed seconds of the ``run`` spans."""
        return sum(
            span["dur"] / 1e6
            for span in self.spans
            if span["name"] == "run"
        )


class RequestContext:
    """Trace id + span plumbing for one service request.

    Minted by the server at HTTP/WebSocket accept and threaded through
    the batching scheduler, so every stage of a request's life --
    accept, parse, queue, coalesce, sweep, serialize -- lands in *one*
    :class:`SpanTracer` under one ``trace`` id (the Chrome trace's
    ``args.trace``).  ``tracer=None`` makes every method a no-op, so
    the context can be threaded unconditionally while tracing stays
    structurally free when disabled.
    """

    __slots__ = ("trace_id", "tracer", "tid", "op")

    def __init__(
        self,
        trace_id: str,
        tracer: Optional[SpanTracer] = None,
        tid: int = MAIN_TID,
        op: str = "",
    ) -> None:
        self.trace_id = trace_id
        self.tracer = tracer
        self.tid = tid
        self.op = op

    def add_span(
        self,
        name: str,
        start: float,
        end: Optional[float] = None,
        args: Optional[Dict[str, Any]] = None,
        tid: Optional[int] = None,
    ) -> Optional[Dict[str, Any]]:
        """One complete request-stage span tagged with the trace id."""
        if self.tracer is None:
            return None
        merged: Dict[str, Any] = {"trace": self.trace_id}
        if self.op:
            merged["op"] = self.op
        if args:
            merged.update(args)
        return self.tracer.add_span(
            name, start, end,
            tid=self.tid if tid is None else tid,
            cat="serve", args=merged,
        )

    @contextmanager
    def span(self, name: str, **args: Any) -> Iterator[None]:
        """Bracket one request stage (no-op without a tracer)."""
        if self.tracer is None:
            yield
            return
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_span(name, start, time.perf_counter(), args=args or None)
