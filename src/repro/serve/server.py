"""The asyncio HTTP + WebSocket simulation service.

One :class:`ServeServer` owns the three moving parts:

* a :class:`~repro.serve.cache.ModelCache` keyed by ``model_digest``
  (warm-started from the on-disk ``plans/v1`` tier when a PlanCache is
  attached),
* a :class:`~repro.serve.batcher.BatchingEngine` coalescing concurrent
  requests per design into single sweeps of one re-armed elaboration,
  run on one sweep thread,
* a hand-rolled HTTP/1.1 transport (stdlib ``asyncio.start_server``;
  keep-alive, NDJSON bodies) with an RFC 6455 WebSocket upgrade at
  ``GET /v1/stream``.

Routes::

    GET  /v1/healthz    one JSON health record (engine + cache stats)
    GET  /v1/metrics    Prometheus text exposition of the REGISTRY
    GET  /v1/models     NDJSON: one record per resident design
    POST /v1/models     submit a model document -> digest record
    POST /v1/simulate   one simulate request -> NDJSON records
    POST /v1/verify     one verify request -> NDJSON records
    GET  /v1/stream     WebSocket: ops submit/simulate/verify/watch/
                        stats/ping, multiplexed per connection

Mid-sweep client disconnects are detected on both transports (an EOF
watchdog on HTTP, the frame reader on WebSocket) and cancel the
request's future, so the batcher discards the lane instead of
resolving into the void.  WebSocket ``watch`` subscriptions reuse the
per-client :class:`~repro.observe.stream.RecordQueue` backpressure
accounting of the NDJSON stream server: every watcher has its own
bounded queue with ``accepted``/``dropped`` counters, and a stalled
watcher loses *its own* records, never another client's.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Set, Tuple

from ..engine.plan import PlanCacheArg
from ..observe.log import AccessLogWriter, wide_event
from ..observe.metrics import (
    REGISTRY,
    record_serve_model,
    record_serve_request,
    record_serve_stage,
    serve_models,
)
from ..observe.stream import RecordQueue
from ..observe.trace import MAIN_TID, RequestContext, SpanTracer, new_trace_id
from . import wsproto
from .batcher import SWEEP_BACKEND, BatchingEngine
from .cache import ModelCache
from .flight import FlightRecorder
from .protocol import (
    ERROR_STATUS,
    NDJSON_CONTENT_TYPE,
    ServeError,
    SimRequest,
    dump_record,
    encode_ndjson,
    parse_sim_request,
    result_record,
)

#: Upper bound on one request body / header block.
MAX_BODY = 10 * 1024 * 1024
MAX_HEAD = 64 * 1024

_REASONS = {status: reason for status, reason in ERROR_STATUS.values()}
_REASONS.setdefault(200, "OK")


def _lane_records(lane: dict, digest: str, request_id: Any) -> List[dict]:
    """NDJSON response records of one lane result: conflicts, then
    violations, then the terminal result record."""
    records: List[dict] = []
    for conflict in lane["conflicts"]:
        record = dict(conflict)
        if request_id is not None:
            record["id"] = request_id
        records.append(record)
    report = lane.get("report")
    if report is not None:
        for violation in report["violations"]:
            record = {"event": "violation", **violation}
            if request_id is not None:
                record["id"] = request_id
            records.append(record)
    records.append(result_record(
        request_id,
        digest,
        lane["registers"],
        lane["clean"],
        lane["batch"],
        lane["queue_ms"],
        lane["sweep_ms"],
        report=report,
        trace=lane.get("trace"),
    ))
    return records


class _Watcher:
    """One WebSocket watch subscription with its bounded record queue."""

    __slots__ = ("conn", "digests", "queue", "sent", "draining")

    def __init__(self, conn: "_WsConn", max_queue: int) -> None:
        self.conn = conn
        #: None = every design; else the subscribed digest set.
        self.digests: Optional[Set[str]] = None
        self.queue = RecordQueue(maxsize=max_queue)
        self.sent = 0
        self.draining = False


class _HttpConn:
    """Per-HTTP-connection read state.

    ``pending`` is the connection's one outstanding socket read: while
    a simulate/verify request rides a sweep it doubles as the EOF
    watchdog (a disconnect completes it empty), and when it completes
    with data those bytes are the next pipelined request -- either way
    it is *the* read :meth:`ServeServer._read_request` would issue
    next, so nothing is torn down between requests.  ``carry`` holds
    bytes already read past the previous request's body.
    """

    __slots__ = ("reader", "carry", "pending", "tid")

    def __init__(self, reader, tid: int = MAIN_TID) -> None:
        self.reader = reader
        self.carry = b""
        self.pending: Optional["asyncio.Task[bytes]"] = None
        #: trace track: this connection's request spans render on
        #: their own Chrome-trace row (MAIN_TID when untraced).
        self.tid = tid

    async def next_chunk(self) -> bytes:
        """One socket read, honoring the outstanding watchdog read."""
        task = self.pending
        if task is not None:
            self.pending = None
            return await task
        return await self.reader.read(8192)

    def watchdog(self) -> "asyncio.Task[bytes]":
        """The connection's outstanding read, started if needed."""
        if self.pending is None:
            self.pending = asyncio.ensure_future(self.reader.read(8192))
        return self.pending


class _WsConn:
    """Per-WebSocket-connection state (writer lock, op tasks)."""

    __slots__ = ("reader", "writer", "lock", "tasks", "peer", "tid")

    def __init__(self, reader, writer, tid: int = MAIN_TID) -> None:
        self.reader = reader
        self.writer = writer
        self.lock = asyncio.Lock()
        self.tasks: Set[asyncio.Task] = set()
        peer = writer.get_extra_info("peername")
        self.peer = f"{peer[0]}:{peer[1]}" if peer else "?"
        self.tid = tid


class ServeServer:
    """The simulation service (construct, ``await start()``, serve)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        backend: str = "auto",
        max_batch: int = 64,
        max_pending: int = 256,
        batch_window_ms: float = 0.0,
        plan_cache: PlanCacheArg = None,
        max_models: int = 64,
        drain_timeout: float = 10.0,
        watch_queue: int = 1024,
        trace: bool = False,
        trace_out: Optional[str] = None,
        access_log: Optional[str] = None,
        flight_size: int = 256,
        flight_dir: Optional[str] = None,
    ) -> None:
        if backend != "auto":
            raise ValueError(
                f"unknown serve backend {backend!r}: every sweep runs on "
                f"{SWEEP_BACKEND}, so only 'auto' is accepted"
            )
        self._host = host
        self._port = port
        self._drain_timeout = drain_timeout
        self._watch_queue = watch_queue
        #: span sink for request-scoped tracing (None = disabled; the
        #: request path then does no span work at all).
        self.tracer: Optional[SpanTracer] = (
            SpanTracer() if (trace or trace_out) else None
        )
        self._trace_out = trace_out
        #: wide-event JSON access log ("-" = stdout; None = disabled).
        self.access: Optional[AccessLogWriter] = (
            AccessLogWriter(access_log) if access_log else None
        )
        #: always-on ring of recent wide events, dumped on 5xx/SIGUSR1.
        self.flight = FlightRecorder(capacity=flight_size, directory=flight_dir)
        self.models = ModelCache(plan_cache=plan_cache, max_models=max_models)
        # One sweep thread.  More would isolate nothing: sweeps are pure
        # Python and hold the GIL (no served sweep calls into numpy), so
        # while one thread compiles a design another barely runs.  And
        # each extra thread that compiles grows its own glibc malloc
        # arena to the compile's peak and keeps it, so the resident set
        # would depend on which threads happened to compile.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-sweep"
        )
        self.engine = BatchingEngine(
            max_batch=max_batch,
            max_pending=max_pending,
            batch_window_ms=batch_window_ms,
            executor=self._executor,
            on_records=self._fanout,
            tracer=self.tracer,
        )
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._watchers: Set[_Watcher] = set()
        self._conns: Set[Any] = set()
        self._started = 0.0
        self._closing = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "ServeServer":
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port
        )
        sock = self._server.sockets[0]
        self._host, self._port = sock.getsockname()[:2]
        self._started = time.monotonic()
        return self

    @property
    def address(self) -> Tuple[str, int]:
        return self._host, self._port

    async def close(self) -> bool:
        """Graceful shutdown: stop accepting, drain in-flight sweeps,
        close watcher connections.  Returns True when fully drained."""
        self._closing = True
        if self._server is not None:
            self._server.close()
        drained = await self.engine.close(timeout=self._drain_timeout)
        for watcher in list(self._watchers):
            try:
                watcher.conn.writer.write(
                    wsproto.encode_close(1001, "server closing")
                )
                # A stalled watcher must not stall shutdown: the close
                # frame is best-effort, bounded by its own tiny budget.
                await asyncio.wait_for(watcher.conn.writer.drain(), 1.0)
            except (ConnectionError, OSError, asyncio.TimeoutError):
                pass
            watcher.conn.writer.close()
        self._watchers.clear()
        # Idle keep-alive connections are parked on a read; closing the
        # transport wakes their handler tasks with EOF so nothing
        # outlives the loop.
        for writer in list(self._conns):
            writer.close()
        if self._server is not None:
            await self._server.wait_closed()
        self._executor.shutdown(wait=True)
        if self.tracer is not None and self._trace_out:
            self.tracer.write(self._trace_out)
        if self.access is not None:
            self.access.close()
        return drained

    # ------------------------------------------------------------------
    # connection loop (HTTP/1.1 keep-alive)
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        tid = MAIN_TID
        if self.tracer is not None:
            peer = writer.get_extra_info("peername")
            tid = self.tracer.alloc_track(
                f"conn {peer[0]}:{peer[1]}" if peer else "conn ?"
            )
        conn = _HttpConn(reader, tid=tid)
        self._conns.add(writer)
        try:
            while True:
                parsed = await self._read_request(conn)
                if parsed is None:
                    return
                method, path, headers, body, t_first = parsed
                if headers.get("upgrade", "").lower() == "websocket":
                    await self._handle_websocket(reader, writer, headers, tid)
                    return
                keep_alive = (
                    headers.get("connection", "").lower() != "close"
                    and not self._closing
                )
                done = await self._route(
                    method, path, headers, body, conn, writer, keep_alive,
                    t_first,
                )
                if not done or not keep_alive:
                    return
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            pass
        except ServeError as exc:
            try:
                writer.write(self._response(
                    exc.status, encode_ndjson([exc.record()]), close=True
                ))
                await writer.drain()
            except (ConnectionError, OSError):
                pass
        finally:
            self._conns.discard(writer)
            if conn.pending is not None:
                conn.pending.cancel()
            writer.close()

    async def _read_request(self, conn: _HttpConn):
        """Parse one request head + body; returns None on clean EOF.

        ``conn.carry`` holds bytes already read past the previous
        body (pipelined requests) -- they are the start of this one.

        The returned tuple ends with ``t_first``: the clock reading at
        the first bytes of this request, the start of its ``accept``
        span (None only when the head arrived fully pipelined)."""
        buf = bytearray(conn.carry)
        conn.carry = b""
        t_first = time.perf_counter() if buf else None
        while b"\r\n\r\n" not in buf:
            if len(buf) > MAX_HEAD:
                raise ServeError("too_large", "request head too large")
            chunk = await conn.next_chunk()
            if not chunk:
                if buf.strip():
                    raise ServeError("bad_request", "truncated request head")
                return None
            if t_first is None:
                t_first = time.perf_counter()
            buf += chunk
        head, _, rest = bytes(buf).partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, path, _version = lines[0].split(" ", 2)
        except ValueError:
            raise ServeError("bad_request", f"malformed request line {lines[0]!r}")
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        if "transfer-encoding" in headers:
            raise ServeError("bad_request", "chunked bodies are not supported")
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise ServeError("bad_request", "bad Content-Length")
        if length > MAX_BODY:
            raise ServeError("too_large", f"body exceeds {MAX_BODY} bytes")
        body = rest[:length]
        conn.carry = rest[length:]
        if len(body) < length:
            body += await conn.reader.readexactly(length - len(body))
        return method, path.split("?", 1)[0], headers, body, t_first

    def _response(
        self,
        status: int,
        body: bytes,
        content_type: str = NDJSON_CONTENT_TYPE,
        close: bool = False,
    ) -> bytes:
        reason = _REASONS.get(status, "OK")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'close' if close else 'keep-alive'}\r\n"
            "\r\n"
        )
        return head.encode("latin-1") + body

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    async def _route(
        self, method, path, headers, body, conn, writer, keep_alive,
        t_first=None,
    ) -> bool:
        """Dispatch one request; returns False when the connection died."""
        t0 = time.perf_counter()
        op = path.rsplit("/", 1)[-1] or "?"
        status, payload, content_type = 200, b"", NDJSON_CONTENT_TYPE
        code = "ok"
        request: Optional[SimRequest] = None
        ctx: Optional[RequestContext] = None
        result: Optional[dict] = None
        try:
            if path == "/v1/healthz" and method == "GET":
                payload = encode_ndjson([self._health_record()])
            elif path == "/v1/metrics" and method == "GET":
                payload = REGISTRY.to_prometheus().encode("utf-8")
                content_type = "text/plain; version=0.0.4"
            elif path == "/v1/debug/last" and method == "GET":
                payload = encode_ndjson([self.flight.last()])
            elif path == "/v1/models" and method == "GET":
                payload = encode_ndjson([
                    {"event": "model", **row}
                    for row in self.models.describe()
                ])
            elif path == "/v1/models" and method == "POST":
                payload = encode_ndjson([self._submit(self._json_body(body))])
            elif path in ("/v1/simulate", "/v1/verify") and method == "POST":
                parse_t0 = time.perf_counter()
                request = parse_sim_request(
                    self._json_body(body), verify=path.endswith("verify")
                )
                if request.trace is None:
                    request.trace = new_trace_id()
                if self.tracer is not None:
                    ctx = RequestContext(
                        request.trace, self.tracer, tid=conn.tid, op=op
                    )
                    if t_first is not None:
                        ctx.add_span("accept", t_first, parse_t0)
                    ctx.add_span("parse", parse_t0, time.perf_counter())
                records = await self._simulate_watched(request, conn, ctx)
                if records is None:  # client went away mid-sweep
                    self._access(wide_event(
                        trace=request.trace, op=op, method=method, path=path,
                        id=request.id, status=499, code="disconnected",
                        ms=round((time.perf_counter() - t0) * 1000.0, 3),
                    ))
                    return False
                result = records[-1]
                payload = encode_ndjson(records)
            elif path in (
                "/v1/healthz", "/v1/metrics", "/v1/models",
                "/v1/simulate", "/v1/verify", "/v1/debug/last",
            ):
                raise ServeError(
                    "method_not_allowed", f"{method} not allowed on {path}"
                )
            else:
                raise ServeError("not_found", f"unknown route {path}")
        except ServeError as exc:
            status, code = exc.status, exc.code
            payload = encode_ndjson([exc.record(
                id=request.id if request is not None else None,
                trace=request.trace if request is not None else None,
            )])
        ms = (time.perf_counter() - t0) * 1000.0
        if op in ("simulate", "verify", "models"):
            record_serve_request(op, code, ms)
        if op in ("simulate", "verify"):
            event = wide_event(
                trace=request.trace if request is not None else None,
                op=op,
                method=method,
                path=path,
                id=request.id if request is not None else None,
                digest=(result or {}).get("digest"),
                batch=(result or {}).get("batch"),
                queue_ms=(result or {}).get("queue_ms"),
                sweep_ms=(result or {}).get("sweep_ms"),
                status=status,
                code=None if code == "ok" else code,
                ms=round(ms, 3),
            )
            self._access(event)
            if status >= 500:
                self.dump_flight(f"http-{status}")
        ser_t0 = time.perf_counter()
        try:
            writer.write(self._response(
                status, payload, content_type, close=not keep_alive
            ))
            await writer.drain()
        except (ConnectionError, OSError):
            return False
        if op in ("simulate", "verify"):
            record_serve_stage(
                "serialize", (time.perf_counter() - ser_t0) * 1000.0
            )
            if ctx is not None:
                ctx.add_span("serialize", ser_t0, time.perf_counter())
        return True

    def _access(self, event: dict) -> None:
        """One wide event -> flight ring (always) + access log (if on)."""
        self.flight.record(event)
        if self.access is not None:
            self.access.write(event)

    def dump_flight(self, reason: str, force: bool = False) -> Optional[str]:
        """Dump the flight ring with the health snapshot attached.

        Thread-safe (SIGUSR1 handlers call it from the main thread
        while the loop thread serves)."""
        return self.flight.dump(
            reason, extra={"health": self._health_record()}, force=force
        )

    @staticmethod
    def _json_body(body: bytes) -> Any:
        if not body.strip():
            raise ServeError("bad_request", "empty request body")
        try:
            return json.loads(body)
        except json.JSONDecodeError as exc:
            raise ServeError("bad_request", f"body is not valid JSON: {exc}")

    def _submit(self, document: Any) -> dict:
        if isinstance(document, dict) and isinstance(
            document.get("model"), dict
        ):
            document = document["model"]
        if not isinstance(document, dict):
            raise ServeError(
                "bad_request", "body must be a model document object"
            )
        entry, cached = self.models.submit(document)
        record_serve_model(cached)
        serve_models().set(len(self.models))
        return {"event": "model", "cached": cached, **entry.describe()}

    async def _simulate(
        self, request: SimRequest, ctx: Optional[RequestContext] = None
    ) -> List[dict]:
        """The transport-independent request path."""
        entry, cached = self.models.resolve(request.model)
        if cached is not None:
            record_serve_model(cached)
            serve_models().set(len(self.models))
        lane = await self.engine.submit(entry, request, ctx=ctx)
        return _lane_records(lane, entry.digest, request.id)

    async def _simulate_watched(
        self,
        request: SimRequest,
        conn: _HttpConn,
        ctx: Optional[RequestContext] = None,
    ):
        """Run :meth:`_simulate` racing the connection's watchdog read.

        Returns the response records, or None when the client
        disconnected mid-sweep (the lane future is cancelled so the
        batcher discards it).  The watchdog is the connection's one
        persistent outstanding read (:class:`_HttpConn`): it is *not*
        torn down per request -- left pending it becomes the next
        request's head read, and bytes it catches mid-sweep are a
        pipelined request stashed in ``conn.carry``.
        """
        sim_task = asyncio.ensure_future(self._simulate(request, ctx))
        watchdog = conn.watchdog()
        try:
            await asyncio.wait(
                (sim_task, watchdog), return_when=asyncio.FIRST_COMPLETED
            )
            if watchdog.done():
                conn.pending = None
                data = watchdog.result()
                if not data and not sim_task.done():
                    sim_task.cancel()
                    return None
                conn.carry = data
            try:
                return await sim_task
            except asyncio.CancelledError:
                return None
        finally:
            if not sim_task.done():
                sim_task.cancel()

    def _health_record(self) -> dict:
        record = {
            "event": "health",
            "status": "draining" if self._closing else "ok",
            "uptime_s": round(time.monotonic() - self._started, 3),
            "models": len(self.models),
            "submits": self.models.submits,
            "evictions": self.models.evictions,
            "watchers": len(self._watchers),
            "flight_dumps": self.flight.dumps,
            **self.engine.stats(),
        }
        if self.access is not None:
            record["access_log"] = {
                "accepted": self.access.accepted,
                "dropped": self.access.dropped,
            }
        return record

    # ------------------------------------------------------------------
    # WebSocket transport
    # ------------------------------------------------------------------
    async def _handle_websocket(
        self, reader, writer, headers, tid: int = MAIN_TID
    ) -> None:
        key = headers.get("sec-websocket-key")
        if not key:
            writer.write(self._response(
                400,
                encode_ndjson([ServeError(
                    "bad_request", "missing Sec-WebSocket-Key"
                ).record()]),
                close=True,
            ))
            await writer.drain()
            return
        accept = wsproto.accept_key(key)
        writer.write((
            "HTTP/1.1 101 Switching Protocols\r\n"
            "Upgrade: websocket\r\n"
            "Connection: Upgrade\r\n"
            f"Sec-WebSocket-Accept: {accept}\r\n"
            "\r\n"
        ).encode("latin-1"))
        await writer.drain()
        # Cap the transport's user-space write buffer so ``drain()``
        # exerts real backpressure on a slow reader: watch fan-out then
        # fills the watcher's *bounded* RecordQueue and overflow is
        # counted as that client's drops, instead of accumulating
        # unbounded (and unaccounted) in the transport buffer.
        transport = writer.transport
        if transport is not None:
            transport.set_write_buffer_limits(high=64 * 1024)
        conn = _WsConn(reader, writer, tid=tid)
        watcher: Optional[_Watcher] = None
        try:
            while True:
                try:
                    opcode, payload = await wsproto.read_frame(reader)
                except (wsproto.WsError, asyncio.IncompleteReadError,
                        ConnectionError, OSError):
                    return
                if opcode == wsproto.OP_CLOSE:
                    async with conn.lock:
                        writer.write(wsproto.encode_close(1000))
                        await writer.drain()
                    return
                if opcode == wsproto.OP_PING:
                    async with conn.lock:
                        writer.write(wsproto.encode_frame(
                            payload, wsproto.OP_PONG
                        ))
                        await writer.drain()
                    continue
                if opcode not in (wsproto.OP_TEXT, wsproto.OP_BINARY):
                    continue
                try:
                    message = json.loads(payload)
                except (json.JSONDecodeError, UnicodeDecodeError):
                    await self._ws_send(conn, ServeError(
                        "bad_request", "frame is not valid JSON"
                    ).record())
                    continue
                watcher = await self._ws_dispatch(conn, message, watcher)
        finally:
            if watcher is not None:
                self._watchers.discard(watcher)
                watcher.queue.close()
            for task in list(conn.tasks):
                task.cancel()
            writer.close()

    async def _ws_send(self, conn: _WsConn, record: dict) -> None:
        async with conn.lock:
            conn.writer.write(wsproto.encode_text(dump_record(record)))
            await conn.writer.drain()

    async def _ws_dispatch(
        self, conn: _WsConn, message: Any, watcher: Optional[_Watcher]
    ) -> Optional[_Watcher]:
        """Handle one op frame; sim ops run as tasks so a slow sweep
        never blocks the frame reader (that is what detects disconnects
        and accepts further multiplexed ops)."""
        if not isinstance(message, dict):
            await self._ws_send(conn, ServeError(
                "bad_request", "op frame must be a JSON object"
            ).record())
            return watcher
        op = message.get("op")
        req_id = message.get("id")
        if op == "ping":
            await self._ws_send(conn, {"event": "pong", "id": req_id})
        elif op == "stats":
            record = self._health_record()
            record["id"] = req_id
            if watcher is not None:
                record["watch"] = {
                    "sent": watcher.sent,
                    "accepted": watcher.queue.accepted,
                    "dropped": watcher.queue.dropped,
                }
            await self._ws_send(conn, record)
        elif op == "submit":
            t0 = time.perf_counter()
            try:
                record = self._submit(message.get("model"))
                record["id"] = req_id
                code = "ok"
            except ServeError as exc:
                record, code = exc.record(req_id), exc.code
            record_serve_request(
                "models", code, (time.perf_counter() - t0) * 1000.0
            )
            await self._ws_send(conn, record)
        elif op in ("simulate", "verify"):
            task = asyncio.ensure_future(
                self._ws_simulate(conn, message, op)
            )
            conn.tasks.add(task)
            task.add_done_callback(conn.tasks.discard)
        elif op == "watch":
            if watcher is None:
                watcher = _Watcher(conn, self._watch_queue)
                self._watchers.add(watcher)
            digest = message.get("digest")
            if digest is None:
                watcher.digests = None
            elif watcher.digests is None:
                watcher.digests = {str(digest)}
            else:
                watcher.digests.add(str(digest))
            await self._ws_send(conn, {
                "event": "watching",
                "digest": digest,
                "id": req_id,
            })
        else:
            await self._ws_send(conn, ServeError(
                "bad_request", f"unknown op {op!r}"
            ).record(req_id))
        return watcher

    async def _ws_simulate(self, conn: _WsConn, message: dict, op: str) -> None:
        t0 = time.perf_counter()
        code = "ok"
        request: Optional[SimRequest] = None
        ctx: Optional[RequestContext] = None
        result: Optional[dict] = None
        try:
            request = parse_sim_request(message, verify=op == "verify")
            if request.trace is None:
                request.trace = new_trace_id()
            if self.tracer is not None:
                ctx = RequestContext(
                    request.trace, self.tracer, tid=conn.tid, op=op
                )
                ctx.add_span("parse", t0, time.perf_counter())
            records = await self._simulate(request, ctx)
            result = records[-1]
        except ServeError as exc:
            code = exc.code
            records = [exc.record(
                message.get("id"),
                trace=request.trace if request is not None else None,
            )]
        except asyncio.CancelledError:
            record_serve_request(
                op, "cancelled", (time.perf_counter() - t0) * 1000.0
            )
            raise
        ms = (time.perf_counter() - t0) * 1000.0
        record_serve_request(op, code, ms)
        status = 200 if code == "ok" else ERROR_STATUS[code][0]
        self._access(wide_event(
            trace=request.trace if request is not None else None,
            op=op,
            method="ws",
            id=message.get("id"),
            digest=(result or {}).get("digest"),
            batch=(result or {}).get("batch"),
            queue_ms=(result or {}).get("queue_ms"),
            sweep_ms=(result or {}).get("sweep_ms"),
            status=status,
            code=None if code == "ok" else code,
            ms=round(ms, 3),
        ))
        if status >= 500:
            self.dump_flight(f"ws-{status}")
        ser_t0 = time.perf_counter()
        try:
            async with conn.lock:
                for record in records:
                    conn.writer.write(wsproto.encode_text(dump_record(record)))
                await conn.writer.drain()
        except (ConnectionError, OSError):
            return
        record_serve_stage("serialize", (time.perf_counter() - ser_t0) * 1000.0)
        if ctx is not None:
            ctx.add_span("serialize", ser_t0, time.perf_counter())

    # ------------------------------------------------------------------
    # watch fan-out (called by the batcher on the loop thread)
    # ------------------------------------------------------------------
    def _fanout(self, digest: str, records: List[dict]) -> None:
        for watcher in list(self._watchers):
            if watcher.digests is not None and digest not in watcher.digests:
                continue
            for record in records:
                watcher.queue.offer(record)
            if not watcher.draining:
                watcher.draining = True
                asyncio.ensure_future(self._drain_watcher(watcher))

    async def _drain_watcher(self, watcher: _Watcher) -> None:
        try:
            while True:
                records = watcher.queue.drain()
                if not records:
                    # Clear the flag *before* the exit check: an offer
                    # racing this empty drain either lands in the
                    # re-drain below, or observes ``draining == False``
                    # in ``_fanout`` and schedules a fresh drainer --
                    # previously (flag cleared after returning) such a
                    # record was stranded until the next sweep.
                    watcher.draining = False
                    records = watcher.queue.drain()
                    if not records:
                        return
                    watcher.draining = True
                async with watcher.conn.lock:
                    for record in records:
                        watcher.conn.writer.write(
                            wsproto.encode_text(dump_record(record))
                        )
                    await watcher.conn.writer.drain()
                watcher.sent += len(records)
        except (ConnectionError, OSError):
            self._watchers.discard(watcher)
            watcher.draining = False
        except asyncio.CancelledError:
            watcher.draining = False
            raise


# ----------------------------------------------------------------------
# threaded harness (tests, the CLI, the bench driver)
# ----------------------------------------------------------------------
class ServeHandle:
    """A server running on its own event-loop thread."""

    def __init__(self, server: ServeServer, loop, thread) -> None:
        self.server = server
        self._loop = loop
        self._thread = thread

    @property
    def address(self) -> Tuple[str, int]:
        return self.server.address

    def run(self, coro, timeout: float = 30.0):
        """Run a coroutine on the server loop (tests poke internals)."""
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        return future.result(timeout=timeout)

    def close(self, timeout: float = 30.0) -> bool:
        drained = self.run(self.server.close(), timeout=timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=timeout)
        self._loop.close()
        return drained

    def __enter__(self) -> "ServeHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve_in_thread(**kwargs: Any) -> ServeHandle:
    """Boot a :class:`ServeServer` on a daemon event-loop thread and
    block until it accepts connections."""
    server = ServeServer(**kwargs)
    loop = asyncio.new_event_loop()
    started = threading.Event()
    boot: Dict[str, Any] = {}

    def runner() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(server.start())
        except BaseException as exc:  # surface bind errors to the caller
            boot["error"] = exc
            started.set()
            return
        started.set()
        loop.run_forever()

    thread = threading.Thread(
        target=runner, name="repro-serve-loop", daemon=True
    )
    thread.start()
    started.wait(timeout=30.0)
    if "error" in boot:
        loop.close()
        raise boot["error"]
    return ServeHandle(server, loop, thread)
