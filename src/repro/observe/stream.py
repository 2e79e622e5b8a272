"""Live NDJSON probe streaming over a socket.

:class:`StreamServer` is an ordinary :class:`~repro.observe.probe.Probe`
attached through the same ``observe=`` hook as every other observer, so
it inherits the canonical per-cycle emission order for free.  Each
callback serializes to the *same* event dicts the JSONL recorder
writes (one JSON object per ``\\n``-terminated line -- NDJSON), pushed
to every connected client; ``repro watch HOST:PORT`` is the matching
tail/pretty-print client.

Backpressure is explicit, never blocking, and accounted *per client*:
every watcher gets its own bounded :class:`RecordQueue` drained by its
own sender thread, and when a watcher falls behind only *its* queue
overflows -- the event is dropped and counted against that client
(``server.client_drops()``) while faster watchers keep receiving the
full stream.  ``server.dropped`` aggregates the per-client counts (so
one slow ``repro watch`` can no longer mask another's losses, they are
itemized) and ``run_metrics(stream=server)`` surfaces
``stream_events`` / ``stream_dropped`` next to the kernel counters.
:mod:`repro.serve` reuses :class:`RecordQueue` for the same
per-connection backpressure accounting on its WebSocket watch feeds.

Monitors compose with streaming: wire an
:class:`~repro.observe.monitor.AssertionMonitor` listener to
:meth:`StreamServer.emit_violation` and watchers see each assertion
failure live, as an extra ``{"event": "violation", ...}`` record type
on the same wire.
"""

from __future__ import annotations

import json
import queue
import socket
import threading
from typing import IO, TYPE_CHECKING, Any, Callable, List, Optional, Tuple

from . import recorder
from .probe import Probe

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .monitor import Violation

#: Sentinel shutting down a sender thread.
_CLOSE = object()


class RecordQueue:
    """A bounded, never-blocking handoff queue with loss accounting.

    The producer calls :meth:`offer`; when the consumer has fallen
    behind and the queue is full the record is dropped and counted
    instead of stalling the producer.  One instance per consumer makes
    losses attributable: :class:`StreamServer` keeps one per watcher,
    :mod:`repro.serve` one per WebSocket watch subscription.

    Thread-safe.  Consumers either block in :meth:`get` (dedicated
    sender threads) or batch-drain with :meth:`drain` (asyncio tasks
    scheduled right after the producer's :meth:`offer`).
    """

    def __init__(self, maxsize: int = 1024) -> None:
        self._q: "queue.Queue[Any]" = queue.Queue(maxsize=maxsize)
        #: records accepted into the queue
        self.accepted = 0
        #: records dropped because this consumer's queue was full
        self.dropped = 0

    def offer(self, item: Any) -> bool:
        """Enqueue without blocking; count (and report) a full queue."""
        try:
            self._q.put_nowait(item)
        except queue.Full:
            self.dropped += 1
            return False
        self.accepted += 1
        return True

    def get(self) -> Any:
        """Blocking take (sender-thread consumers)."""
        return self._q.get()

    def pending(self) -> bool:
        """True while items are queued (consumer-side peek)."""
        return not self._q.empty()

    def put(self, item: Any) -> None:
        """Blocking enqueue that never drops (shutdown sentinels that
        must preserve already-queued records, unlike :meth:`close`)."""
        self._q.put(item)

    def drain(self) -> List[Any]:
        """Take everything currently queued without blocking."""
        items: List[Any] = []
        while True:
            try:
                items.append(self._q.get_nowait())
            except queue.Empty:
                return items

    def close(self) -> None:
        """Wake the consumer with the close sentinel, even when full."""
        while True:
            try:
                self._q.put_nowait(_CLOSE)
                return
            except queue.Full:
                try:  # make room: the consumer is gone anyway
                    self._q.get_nowait()
                except queue.Empty:
                    pass


class _ClientSlot:
    """One connected watcher: its socket, queue, and delivery counters."""

    __slots__ = ("conn", "peer", "queue", "sent", "thread")

    def __init__(self, conn: socket.socket, max_queue: int) -> None:
        self.conn = conn
        try:
            host, port = conn.getpeername()[:2]
            self.peer = f"{host}:{port}"
        except OSError:  # racing a disconnect
            self.peer = "?"
        self.queue = RecordQueue(max_queue)
        #: records actually written to this watcher's socket
        self.sent = 0
        self.thread: Optional[threading.Thread] = None


class StreamServer(Probe):
    """Serve the probe event stream as NDJSON over TCP.

    Parameters
    ----------
    host, port:
        Bind address; port 0 (default) picks a free port --
        ``server.address`` is the bound ``(host, port)`` pair.
    max_queue:
        Bound of each *watcher's* event queue; a watcher that falls
        behind drops events from its own queue only, counted against
        that client (see :meth:`client_drops`).
    wait_for_client:
        Seconds ``on_run_start`` waits for at least one client before
        the run proceeds (0 = do not wait).  Lets ``repro watch``
        attach before the first event without racing the run.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        max_queue: int = 1024,
        wait_for_client: float = 0.0,
    ) -> None:
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(8)
        self.address: Tuple[str, int] = self._sock.getsockname()[:2]
        self.wait_for_client = wait_for_client
        self.max_queue = max_queue
        #: records offered to the fanout (one per probe callback)
        self.events = 0
        #: watcher connections accepted over the server's lifetime
        #: (``run_metrics(stream=server)`` reports it next to the
        #: delivery counters).
        self.clients_total = 0
        self._slots: List[_ClientSlot] = []
        #: (peer, sent, dropped) tallies of departed watchers, so the
        #: aggregate counters survive disconnects.
        self._departed: List[Tuple[str, int, int]] = []
        self._lock = threading.Lock()
        self._have_client = threading.Event()
        self._closed = False
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-stream-accept", daemon=True
        )
        self._accept_thread.start()

    # ------------------------------------------------------------------
    # server plumbing
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _addr = self._sock.accept()
            except OSError:  # listening socket closed
                return
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            slot = _ClientSlot(conn, self.max_queue)
            with self._lock:
                if self._closed:
                    conn.close()
                    return
                self._slots.append(slot)
                self.clients_total += 1
            slot.thread = threading.Thread(
                target=self._sender_loop,
                args=(slot,),
                name=f"repro-stream-send-{slot.peer}",
                daemon=True,
            )
            slot.thread.start()
            self._have_client.set()

    def _sender_loop(self, slot: _ClientSlot) -> None:
        """Drain one watcher's queue onto its socket (one thread each,
        so a stalled watcher only ever stalls itself)."""
        while True:
            item = slot.queue.get()
            if item is _CLOSE:
                return
            data = (json.dumps(item, separators=(",", ":")) + "\n").encode("utf-8")
            try:
                slot.conn.sendall(data)
            except OSError:
                self._retire(slot)
                return
            slot.sent += 1

    def _retire(self, slot: _ClientSlot) -> None:
        """Move a dead watcher's counters into the departed tally."""
        with self._lock:
            if slot in self._slots:
                self._slots.remove(slot)
                self._departed.append(
                    (slot.peer, slot.sent, slot.queue.dropped)
                )
        try:
            slot.conn.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass

    def emit(self, record: dict) -> None:
        """Offer one event dict to every connected client's queue.

        Never blocks the simulation: a full queue counts a drop
        against that client alone."""
        self.events += 1
        with self._lock:
            slots = list(self._slots)
        for slot in slots:
            slot.queue.offer(record)

    def emit_violation(self, violation: "Violation") -> None:
        """Monitor listener hook: stream an assertion failure live."""
        self.emit({"event": "violation", **violation.to_dict()})

    @property
    def client_count(self) -> int:
        """Watchers connected right now."""
        with self._lock:
            return len(self._slots)

    @property
    def dropped(self) -> int:
        """Events lost to backpressure, summed over all watchers
        (including departed ones); itemize with :meth:`client_drops`."""
        with self._lock:
            return sum(s.queue.dropped for s in self._slots) + sum(
                d for _peer, _sent, d in self._departed
            )

    def client_drops(self) -> List[dict]:
        """Per-client delivery accounting, one row per watcher.

        Each row is ``{"peer", "sent", "dropped", "connected"}``;
        departed watchers keep their rows so a slow client's losses
        stay visible (and attributable) after it hangs up."""
        with self._lock:
            live = [
                {
                    "peer": s.peer,
                    "sent": s.sent,
                    "dropped": s.queue.dropped,
                    "connected": True,
                }
                for s in self._slots
            ]
            gone = [
                {
                    "peer": peer,
                    "sent": sent,
                    "dropped": dropped,
                    "connected": False,
                }
                for peer, sent, dropped in self._departed
            ]
        return live + gone

    def close(self, timeout: float = 5.0) -> None:
        """Drain the per-client queues, hang up, stop every thread."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        # One process-metrics sample per server lifetime.
        from .metrics import record_stream_close

        record_stream_close(self)
        # close() alone does not wake a thread blocked in accept() on
        # Linux; shutdown() does (accept then fails with OSError).
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        with self._lock:
            slots = list(self._slots)
        for slot in slots:
            slot.queue.close()
        for slot in slots:
            if slot.thread is not None:
                slot.thread.join(timeout=timeout)
        with self._lock:
            slots, self._slots = self._slots, []
            for slot in slots:
                self._departed.append(
                    (slot.peer, slot.sent, slot.queue.dropped)
                )
        for slot in slots:
            try:
                slot.conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            slot.conn.close()
        self._accept_thread.join(timeout=timeout)

    def __enter__(self) -> "StreamServer":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # probe interface -- same wire records as the JSONL recorder
    # ------------------------------------------------------------------
    def on_run_start(self, backend: Any) -> None:
        if self.wait_for_client > 0:
            self._have_client.wait(self.wait_for_client)
        self.emit(recorder.run_start_event(backend))

    def on_step(self, step: int) -> None:
        self.emit(recorder.step_event(step))

    def on_phase(self, at: Any) -> None:
        self.emit(recorder.phase_event(at))

    def on_bus_drive(self, at: Any, bus: str, value: int) -> None:
        self.emit(recorder.bus_event(at, bus, value))

    def on_register_latch(self, at: Any, register: str, value: int) -> None:
        self.emit(recorder.latch_event(at, register, value))

    def on_conflict(self, event: Any) -> None:
        self.emit(recorder.conflict_event(event))

    def on_run_end(self, backend: Any, wall: float) -> None:
        self.emit(recorder.run_end_event(backend, wall))


# ----------------------------------------------------------------------
# the watch client
# ----------------------------------------------------------------------
def parse_endpoint(text: str) -> Tuple[str, int]:
    """Parse a ``HOST:PORT`` endpoint (host defaults to localhost)."""
    host, sep, port_text = text.rpartition(":")
    if not sep:
        host, port_text = "127.0.0.1", text
    host = host or "127.0.0.1"
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"bad endpoint {text!r} (expected HOST:PORT)") from None
    if not (0 < port < 65536):
        raise ValueError(f"bad port {port} in endpoint {text!r}")
    return host, port


def format_event(event: dict) -> str:
    """One human-readable line per wire record (the watch pretty-printer)."""
    kind = event.get("event", "?")
    cs, ph = event.get("cs"), event.get("ph")
    where = f"cs{cs}.{ph}" if cs is not None and ph is not None else "--"
    if kind == "run_start":
        return (
            f"run_start  model={event.get('model')} backend={event.get('backend')} "
            f"cs_max={event.get('cs_max')}"
        )
    if kind == "step":
        return f"step       cs{cs}"
    if kind == "phase":
        return f"phase      {where}"
    if kind == "bus":
        return f"bus        {where} {event.get('signal')} = {event.get('value')}"
    if kind == "latch":
        return f"latch      {where} {event.get('register')} = {event.get('value')}"
    if kind == "conflict":
        drivers = ", ".join(f"{o}={v}" for o, v in event.get("drivers", []))
        return f"CONFLICT   {where} {event.get('signal')} (drivers: {drivers})"
    if kind == "violation":
        return (
            f"VIOLATION  {where} [{event.get('property')}] "
            f"{event.get('signal') or ''} {event.get('message')}".rstrip()
        )
    if kind == "run_end":
        return (
            f"run_end    clean={event.get('clean')} "
            f"wall={event.get('wall', 0.0):.4f}s"
        )
    return f"{kind}  {json.dumps(event, separators=(',', ':'))}"


def watch_stream(
    host: str,
    port: int,
    out: IO[str],
    raw: bool = False,
    max_events: Optional[int] = None,
    timeout: Optional[float] = None,
    on_event: Optional[Callable[[dict], None]] = None,
) -> int:
    """Tail a :class:`StreamServer` until EOF (or ``max_events``).

    Prints one line per event (raw NDJSON with ``raw=True``) and
    returns the number of events received.  ``timeout`` bounds both the
    connect and each read; ``on_event`` sees every decoded record
    (used by tests and embedders)."""
    seen = 0
    with socket.create_connection((host, port), timeout=timeout) as conn:
        if timeout is not None:
            conn.settimeout(timeout)
        buffer = b""
        while max_events is None or seen < max_events:
            try:
                chunk = conn.recv(65536)
            except socket.timeout:
                break
            if not chunk:
                break
            buffer += chunk
            while b"\n" in buffer:
                line, buffer = buffer.split(b"\n", 1)
                if not line.strip():
                    continue
                try:
                    event = json.loads(line)
                except json.JSONDecodeError:
                    continue
                seen += 1
                if on_event is not None:
                    on_event(event)
                out.write((line.decode("utf-8") if raw else format_event(event)) + "\n")
                if max_events is not None and seen >= max_events:
                    break
    return seen
