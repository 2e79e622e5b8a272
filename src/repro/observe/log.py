"""Wide-event structured JSON access logs for the service plane.

One request = one JSON line carrying everything needed to explain it
after the fact: trace id, operation, design digest, queue wait, sweep
wall, batch occupancy, HTTP status and wire error code.  The writer is
**bounded and never blocking**: the request path offers events to a
:class:`RecordQueue` and a dedicated writer thread drains them to
disk, so a slow filesystem back-pressures into counted drops instead
of stalled responses -- the same loss-accounting discipline the
WebSocket watch fan-out of :mod:`repro.serve` uses, one queue per
watcher.

The same event dictionaries feed the flight recorder
(:mod:`repro.serve.flight`), so a post-mortem dump and the access log
speak one schema (documented in ``docs/serving.md``).
"""

from __future__ import annotations

import json
import queue
import sys
import threading
import time
from typing import IO, Any, Dict, List, Mapping, Optional

__all__ = ["AccessLogWriter", "RecordQueue", "parse_access_log", "wide_event"]

#: Sentinel shutting down the writer thread.
_CLOSE = object()


class RecordQueue:
    """A bounded, never-blocking handoff queue with loss accounting.

    The producer calls :meth:`offer`; when the consumer has fallen
    behind and the queue is full the record is dropped and counted
    instead of stalling the producer.  One instance per consumer makes
    losses attributable: :class:`AccessLogWriter` keeps one for its
    writer thread, :mod:`repro.serve` one per WebSocket watch
    subscription.

    Thread-safe.  Consumers either block in :meth:`get` (a dedicated
    writer thread) or batch-drain with :meth:`drain` (asyncio tasks
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
        """Blocking take (writer-thread consumers)."""
        return self._q.get()

    def pending(self) -> bool:
        """True while items are queued (consumer-side peek)."""
        return not self._q.empty()

    def put(self, item: Any) -> None:
        """Blocking enqueue that never drops (a shutdown sentinel that
        must stay behind the records already queued)."""
        self._q.put(item)

    def drain(self) -> List[Any]:
        """Take everything currently queued without blocking."""
        items: List[Any] = []
        while True:
            try:
                items.append(self._q.get_nowait())
            except queue.Empty:
                return items


def wide_event(**fields: Any) -> Dict[str, Any]:
    """One wide event: ``{"event": "access", "ts": <epoch>, ...}``.

    ``None``-valued fields are elided so every line carries only what
    the request actually knew (an admission rejection has no digest,
    a health probe no batch).
    """
    event: Dict[str, Any] = {"event": "access", "ts": round(time.time(), 6)}
    for name, value in fields.items():
        if value is not None:
            event[name] = value
    return event


class AccessLogWriter:
    """Bounded async writer: JSON lines on a dedicated thread.

    ``path`` may be ``"-"`` for stdout.  :meth:`write` never blocks;
    when the writer thread has fallen ``maxsize`` events behind, the
    event is dropped and counted (:attr:`dropped`).
    """

    def __init__(self, path: str, maxsize: int = 4096) -> None:
        self.path = path
        self._queue = RecordQueue(maxsize=maxsize)
        self._handle: Optional[IO[str]] = None
        self._owns_handle = path != "-"
        self._thread = threading.Thread(
            target=self._run, name="repro-access-log", daemon=True
        )
        self._closed = False
        self._thread.start()

    # -- producer side (the request path; never blocks) -----------------
    def write(self, event: Mapping[str, Any]) -> bool:
        """Offer one wide event; returns False when it was dropped."""
        if self._closed:
            return False
        return self._queue.offer(dict(event))

    @property
    def accepted(self) -> int:
        return self._queue.accepted

    @property
    def dropped(self) -> int:
        return self._queue.dropped

    # -- the writer thread ----------------------------------------------
    def _run(self) -> None:
        handle: IO[str]
        if self.path == "-":
            handle = sys.stdout
        else:
            handle = open(self.path, "a", encoding="utf-8")
        self._handle = handle
        try:
            while True:
                item = self._queue.get()
                if item is _CLOSE:
                    return
                handle.write(
                    json.dumps(item, separators=(",", ":"), sort_keys=False)
                )
                handle.write("\n")
                # Flush at queue-empty boundaries: cheap at load (one
                # flush per drained burst), prompt when idle.
                if not self._queue.pending():
                    handle.flush()
        finally:
            handle.flush()
            if self._owns_handle:
                handle.close()

    def close(self, timeout: float = 5.0) -> None:
        """Flush and stop the writer thread (idempotent)."""
        if self._closed:
            return
        self._closed = True
        # A blocking put: the sentinel waits behind the queued records,
        # so the shutdown flush keeps every one of them.
        self._queue.put(_CLOSE)
        self._thread.join(timeout=timeout)


def parse_access_log(path: str) -> List[Dict[str, Any]]:
    """Read a wide-event access log back; raises on malformed lines."""
    events: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{line_no}: malformed access-log line: {exc}"
                ) from None
            if not isinstance(event, dict) or event.get("event") != "access":
                raise ValueError(
                    f"{path}:{line_no}: not a wide access event: {line[:80]}"
                )
            events.append(event)
    return events
