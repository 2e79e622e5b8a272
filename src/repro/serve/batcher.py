"""The per-design batching scheduler.

Concurrent single-vector simulate/verify requests against the same
design (and the same property set) coalesce into one sweep: the first
request opens the pair's lane, whose drain task takes everything that
queued behind it (up to ``max_batch``) as one batch and runs it on the
event loop, one rider at a time, through the design's re-armed
``compiled-py`` elaboration.  Per-rider registers, conflicts, monitor
violations and clean flags reach each caller's future when the batch
ends.  Batching is *natural*: while one batch runs, new arrivals pile
up in the queue and form the next batch -- no timer is needed at load,
though ``batch_window_ms`` can force a gathering pause (tests use it
to pin deterministic batch shapes).  A lane's drain task exits once
its queue is empty.  Runs are pure Python that a thread could not
overlap under the GIL; yielding between riders lets arrivals, health
checks, deadline timers and disconnect watchdogs in between lanes.

Admission control is a server-wide bound on queued requests
(``max_pending``): when the backlog is full a request is rejected
immediately with a ``queue_full`` error (HTTP 503) instead of growing
an unbounded queue.  Per-request deadlines cover queue wait and batch:
requests already past their deadline when the batch forms are failed
without occupying a lane, and callers waiting on a future time out on
their own clock.  A rider whose caller timed out or disconnected
before its turn is skipped; one whose lane already ran has its result
discarded -- the batch itself is never torn down, matching the
cancellation semantics documented in ``docs/serving.md``.

Per-lane verdicts are bit-identical to scalar ``compiled`` runs: each
lane is a :meth:`~repro.engine.compiled.CompiledRTSimulation.rearm`
plus run of the differential-tested generated kernel and, for verify
requests, the per-lane trace replay of
:func:`repro.observe.monitor.evaluate_trace` -- the same replay
``repro.observe.monitor.check_model`` uses for batched sweeps.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from ..observe import recorder
from ..observe.metrics import (
    record_serve_batch,
    record_serve_deadline_budget,
    record_serve_rejection,
    record_serve_stage,
    serve_queue_depth,
)
from ..observe.trace import MAIN_TID, RequestContext, SpanTracer
from ..observe.monitor import (
    Property,
    default_properties,
    evaluate_trace,
    monitored_watch_list,
    parse_properties,
)
from .cache import CachedDesign
from .protocol import ServeError, SimRequest

#: The one sweep realization: every served lane re-arms one
#: elaboration of the generated kernel.
SWEEP_BACKEND = "compiled-py"

#: The ``"default"`` verify property set, built once: it does not
#: depend on the model, and a Property is immutable (each run mints
#: its own checkers), so every verify lane shares these.
_DEFAULT_PROPERTIES: Tuple[Property, ...] = tuple(default_properties())


# ----------------------------------------------------------------------
# the sweep itself
# ----------------------------------------------------------------------
def run_sweep(
    entry: CachedDesign,
    vectors: Sequence[Dict[str, int]],
    properties: Optional[Sequence[Property]],
    backend: str,
    state: Optional[dict] = None,
) -> List[dict]:
    """Execute one coalesced sweep; returns one lane dict per vector.

    Each lane dict carries ``registers`` (plain ints), ``conflicts``
    (wire-schema conflict records), ``clean``, and -- when properties
    were requested -- the lane's ``report``
    (:class:`~repro.observe.monitor.AssertionReport` ``to_dict``).

    The lanes run through **one armed elaboration** on the scalar
    ``backend`` (the service passes :data:`SWEEP_BACKEND`): the
    compiled tables are input-independent, so each lane is a
    :meth:`~repro.engine.compiled.CompiledRTSimulation.rearm` (value
    plane reset in place) plus a kernel run instead of a fresh
    elaboration.  Per lane this is bit-identical to a sequential
    ``compiled`` run (differential-tested in ``tests/serve``).

    ``state``, when given, keeps the armed elaborations across calls
    (the service passes :attr:`CachedDesign.armed`).  Calls sharing it
    must not overlap; the service's run on the event loop and none
    yields, so every property set of a design shares them.
    """
    model = entry.model
    key = (backend, properties is not None)
    sim = state.get(key) if state is not None else None
    if sim is None:
        watch = monitored_watch_list(model) if properties is not None else None
        sim = model.elaborate(
            backend=backend, plan=entry.plan, plan_cache=entry.plan_cache,
            watch=watch,
        )
        if state is not None:
            state[key] = sim
    lanes: List[dict] = []
    for vector in vectors:
        sim.rearm(vector)
        sim.run()
        conflicts = list(sim.conflicts)
        lane = {
            "registers": dict(sim.registers),
            "conflicts": [recorder.conflict_event(e) for e in conflicts],
            "clean": bool(sim.clean),
        }
        if properties is not None:
            report = evaluate_trace(model, sim.tracer, properties, conflicts)
            lane["report"] = report.to_dict()
            lane["clean"] = lane["clean"] and report.ok
        lanes.append(lane)
    return lanes


# ----------------------------------------------------------------------
# scheduling
# ----------------------------------------------------------------------
class PendingRequest:
    """One admitted request waiting for (or riding) a sweep."""

    __slots__ = (
        "vector", "deadline", "enqueued", "future", "id",
        "trace", "ctx", "budget_ms",
    )

    def __init__(
        self,
        vector: Dict[str, int],
        deadline: Optional[float],
        future: "asyncio.Future[dict]",
        request_id: Any,
        enqueued: float,
        trace: Optional[str] = None,
        ctx: Optional[RequestContext] = None,
        budget_ms: Optional[float] = None,
    ) -> None:
        self.vector = vector
        self.deadline = deadline  # loop-clock absolute, or None
        self.enqueued = enqueued
        self.future = future
        self.id = request_id
        #: the request's trace id, echoed on its result record
        self.trace = trace
        #: span plumbing (None when the server runs untraced)
        self.ctx = ctx
        self.budget_ms = budget_ms


class _Lane:
    """One (design, property-set) batching queue; its drain task exits
    when the queue is empty."""

    __slots__ = ("entry", "properties", "key", "queue", "task", "tid")

    def __init__(
        self,
        entry: CachedDesign,
        properties: Optional[Sequence[Property]],
        key: Tuple[str, Optional[str]],
        tid: int = MAIN_TID,
    ) -> None:
        self.entry = entry
        self.properties = properties
        self.key = key
        self.queue: Deque[PendingRequest] = deque()
        self.task: Optional[asyncio.Task] = None
        #: trace track: coalesce/sweep spans of this lane render on
        #: their own Chrome-trace row.
        self.tid = tid


class BatchingEngine:
    """Admission control + per-design lanes, swept on the event loop."""

    def __init__(
        self,
        max_batch: int = 64,
        max_pending: int = 256,
        batch_window_ms: float = 0.0,
        on_records: Optional[Callable[[str, List[dict]], None]] = None,
        tracer: Optional[SpanTracer] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self.backend = SWEEP_BACKEND
        self.max_batch = max_batch
        self.max_pending = max_pending
        self.batch_window_ms = batch_window_ms
        #: observer hook: (digest, wire records of one sweep) -- the
        #: server fans these out to WebSocket watch subscriptions.
        self.on_records = on_records
        #: span sink shared with the server (None = tracing disabled;
        #: the hot path stays structurally free).
        self.tracer = tracer
        #: monotonically numbered sweeps -- the ``batch`` span arg that
        #: joins a request's queue span to the sweep it coalesced into.
        self._batch_seq = 0
        #: lanes that hold requests; a lane leaves when it drains
        self._lanes: Dict[Tuple[str, Optional[str]], _Lane] = {}
        #: trace track per lane key seen (empty when untraced)
        self._tracks: Dict[Tuple[str, Optional[str]], int] = {}
        self._pending = 0
        self._in_flight: set = set()
        self._closing = False
        #: lifetime counters (healthz)
        self.sweeps = 0
        self.lanes_swept = 0
        self.rejected = 0
        self.expired = 0
        self.discarded = 0

    # -- lane management -------------------------------------------------
    def _lane_for(self, entry: CachedDesign, request: SimRequest) -> _Lane:
        key = (entry.digest, request.prop_key())
        lane = self._lanes.get(key)
        if lane is not None:
            return lane
        properties: Optional[Sequence[Property]] = None
        if request.properties is not None:
            if request.properties == "default":
                properties = _DEFAULT_PROPERTIES
            else:
                try:
                    properties = parse_properties(request.properties)
                except Exception as exc:
                    raise ServeError("bad_request", f"bad properties: {exc}")
        if self.tracer is None:
            tid = MAIN_TID
        elif key in self._tracks:
            tid = self._tracks[key]
        else:
            tid = self._tracks[key] = self.tracer.alloc_track(
                f"lane {entry.digest[:8]}"
            )
        lane = _Lane(entry, properties, key, tid=tid)
        lane.task = asyncio.get_running_loop().create_task(
            self._drain(lane), name=f"repro-serve-lane-{entry.digest[:12]}"
        )
        self._lanes[key] = lane
        return lane

    # -- admission --------------------------------------------------------
    async def submit(
        self,
        entry: CachedDesign,
        request: SimRequest,
        ctx: Optional[RequestContext] = None,
    ) -> dict:
        """Admit one request and wait for its lane result.

        ``ctx`` (when the server traces) receives the request's
        ``queue`` span, cut when its batch dispatches and tagged with
        the batch sequence number it coalesced into.

        Raises :class:`ServeError` with ``queue_full`` (admission),
        ``closing`` (shutdown), ``deadline`` (budget exhausted at any
        point of the queue-wait/sweep path) or ``bad_request``.
        """
        if self._closing:
            record_serve_rejection("closing")
            self.rejected += 1
            raise ServeError("closing", "server is draining; try another replica")
        if self._pending >= self.max_pending:
            record_serve_rejection("queue_full")
            self.rejected += 1
            raise ServeError(
                "queue_full",
                f"admission queue is full ({self.max_pending} pending); "
                "retry with backoff",
            )
        registers = entry.model.registers
        for name in request.register_values:
            if name not in registers:
                unknown = set(request.register_values) - set(registers)
                raise ServeError(
                    "bad_request",
                    f"register_values for unknown registers: "
                    f"{sorted(unknown)}",
                )
        loop = asyncio.get_running_loop()
        lane = self._lane_for(entry, request)
        deadline = (
            loop.time() + request.deadline_ms / 1000.0
            if request.deadline_ms is not None
            else None
        )
        pending = PendingRequest(
            vector=request.register_values,
            deadline=deadline,
            future=loop.create_future(),
            request_id=request.id,
            enqueued=time.perf_counter(),
            trace=request.trace,
            ctx=ctx,
            budget_ms=request.deadline_ms,
        )
        self._pending += 1
        serve_queue_depth().set(self._pending)
        self._in_flight.add(pending.future)
        pending.future.add_done_callback(self._in_flight.discard)
        lane.queue.append(pending)
        try:
            if deadline is None:
                return await pending.future
            remaining = deadline - loop.time()
            try:
                return await asyncio.wait_for(pending.future, timeout=remaining)
            except asyncio.TimeoutError:
                self._expire(pending)
                raise ServeError(
                    "deadline",
                    f"deadline of {request.deadline_ms:g}ms exhausted "
                    "while the request was queued or in a sweep",
                ) from None
        finally:
            # Guarantee a caller that bails (disconnect, cancellation)
            # leaves a done future behind, so the drain task skips or
            # discards its lane instead of resolving into the void.
            if not pending.future.done():
                pending.future.cancel()

    def _expire(self, req: PendingRequest) -> None:
        """Count one deadline expiry and the budget share it used."""
        self.expired += 1
        record_serve_rejection("deadline")
        if req.budget_ms:
            record_serve_deadline_budget(
                (time.perf_counter() - req.enqueued) * 1000.0 / req.budget_ms
            )

    # -- the per-lane drain task -----------------------------------------
    async def _drain(self, lane: _Lane) -> None:
        loop = asyncio.get_running_loop()
        try:
            while lane.queue:
                gather_t0 = time.perf_counter()
                if self.batch_window_ms > 0:
                    await asyncio.sleep(self.batch_window_ms / 1000.0)
                now = loop.time()
                live: List[PendingRequest] = []
                for _ in range(min(len(lane.queue), self.max_batch)):
                    req = lane.queue.popleft()
                    self._pending -= 1
                    if req.future.done():  # caller already gone
                        self.discarded += 1
                        continue
                    if req.deadline is not None and now >= req.deadline:
                        self._expire(req)
                        req.future.set_exception(ServeError(
                            "deadline", "deadline expired before dispatch"
                        ))
                        continue
                    live.append(req)
                serve_queue_depth().set(self._pending)
                if live:
                    await self._dispatch(lane, live, gather_t0)
        finally:  # no await since the empty check: no rider is lost
            del self._lanes[lane.key]

    async def _dispatch(
        self, lane: _Lane, live: List[PendingRequest], gather_t0: float
    ) -> None:
        self._batch_seq += 1
        seq = self._batch_seq
        t0 = time.perf_counter()
        if self.tracer is not None:
            # Every request's queue span ends here, tagged with the
            # batch it joined; the lane-track coalesce span shows the
            # window/backlog gathering that formed the batch.
            for req in live:
                if req.ctx is not None:
                    req.ctx.add_span(
                        "queue", req.enqueued, t0, args={"batch": seq}
                    )
            self.tracer.add_span(
                "coalesce", gather_t0, t0, tid=lane.tid, cat="serve",
                args={"batch": seq, "lanes": len(live)},
            )
        record_serve_stage("coalesce", (t0 - gather_t0) * 1000.0)
        # One run_sweep call per rider, yielding between them; None
        # marks a rider whose caller left before its turn.
        lanes: List[Optional[dict]] = []
        try:
            for req in live:
                if lanes:
                    await asyncio.sleep(0)
                if req.future.done():
                    lanes.append(None)
                    continue
                lanes.extend(run_sweep(
                    lane.entry, [req.vector], lane.properties, self.backend,
                    lane.entry.armed,
                ))
        except Exception as exc:  # a sweep bug must not kill the lane
            for req in live:
                if not req.future.done():
                    req.future.set_exception(
                        ServeError("internal", f"sweep failed: {exc}")
                    )
            return
        sweep_end = time.perf_counter()
        sweep_ms = (sweep_end - t0) * 1000.0
        self.sweeps += 1
        self.lanes_swept += len(live)
        record_serve_batch(len(live), sweep_ms)
        record_serve_stage("sweep", sweep_ms)
        if self.tracer is not None:
            self.tracer.add_span(
                "sweep", t0, sweep_end, tid=lane.tid, cat="serve",
                args={
                    "batch": seq,
                    "lanes": len(live),
                    "digest": lane.entry.digest[:12],
                    "backend": self.backend,
                    "traces": [
                        req.trace for req in live if req.trace is not None
                    ],
                },
            )
        now = time.perf_counter()
        fanout: List[dict] = []
        for req, result in zip(live, lanes):
            if result is None:
                self.discarded += 1
                continue
            result["batch"] = len(live)
            result["sweep_ms"] = sweep_ms
            queue_ms = max(0.0, (now - req.enqueued) * 1000.0 - sweep_ms)
            result["queue_ms"] = queue_ms
            result["id"] = req.id
            if req.trace is not None:
                result["trace"] = req.trace
            record_serve_stage("queue", queue_ms)
            if req.budget_ms:
                record_serve_deadline_budget(
                    (now - req.enqueued) * 1000.0 / req.budget_ms
                )
            for record in result["conflicts"]:
                fanout.append(dict(record, digest=lane.entry.digest))
            for violation in (result.get("report") or {}).get("violations", ()):
                fanout.append({
                    "event": "violation",
                    **violation,
                    "digest": lane.entry.digest,
                })
            if req.future.done():
                self.discarded += 1
                continue
            req.future.set_result(result)
        if fanout and self.on_records is not None:
            self.on_records(lane.entry.digest, fanout)

    # -- shutdown -----------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return self._pending

    async def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admitting, then wait for every admitted request.

        Returns True when everything drained inside ``timeout``.
        """
        self._closing = True
        waiting = [f for f in self._in_flight if not f.done()]
        if not waiting:
            return True
        gather = asyncio.gather(*waiting, return_exceptions=True)
        try:
            await asyncio.wait_for(asyncio.shield(gather), timeout=timeout)
            return True
        except asyncio.TimeoutError:
            return False

    async def close(self, timeout: Optional[float] = 10.0) -> bool:
        """Graceful shutdown: drain, then cancel what outlived the
        budget; lanes skip cancelled riders, so they empty at once."""
        drained = await self.drain(timeout=timeout)
        for future in list(self._in_flight):
            future.cancel()
        tasks = [lane.task for lane in self._lanes.values() if lane.task]
        if tasks:
            await asyncio.wait(tasks)
        return drained

    def stats(self) -> dict:
        return {
            "backend": self.backend,
            "queue_depth": self._pending,
            "lanes": len(self._lanes),
            "sweeps": self.sweeps,
            "lanes_swept": self.lanes_swept,
            "batch_mean": (
                round(self.lanes_swept / self.sweeps, 3) if self.sweeps else 0.0
            ),
            "rejected": self.rejected,
            "expired": self.expired,
            "discarded": self.discarded,
            "closing": self._closing,
        }
