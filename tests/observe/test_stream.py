"""The NDJSON stream server, the watch client, and backpressure."""

import io
import json
import socket
import threading
import time

from repro.engine import run_metrics
from repro.observe import (
    AssertionMonitor,
    ProbeSet,
    StreamServer,
    default_properties,
    format_event,
    parse_endpoint,
    watch_stream,
)

from .conftest import conflict_model, fig1_model


def drain(host, port, timeout=10.0):
    """Collect decoded records from a stream endpoint in a thread."""
    events = []

    def worker():
        watch_stream(
            host, port, out=io.StringIO(), timeout=timeout,
            on_event=events.append,
        )

    thread = threading.Thread(target=worker, daemon=True)
    thread.start()
    return events, thread


class TestStreamServer:
    def test_full_run_reaches_the_client(self):
        with StreamServer(wait_for_client=10.0) as server:
            host, port = server.address
            events, thread = drain(host, port)
            fig1_model().elaborate(observe=server).run()
        thread.join(timeout=10.0)
        assert events[0]["event"] == "run_start"
        assert events[-1]["event"] == "run_end"
        kinds = {e["event"] for e in events}
        assert {"step", "phase", "bus", "latch"} <= kinds
        assert server.events == len(events)
        assert server.dropped == 0

    def test_wire_schema_matches_the_recorder(self):
        from repro.observe import JsonlRecorder

        recorder = JsonlRecorder()
        with StreamServer(wait_for_client=10.0) as server:
            host, port = server.address
            events, thread = drain(host, port)
            fig1_model().elaborate(
                observe=ProbeSet(recorder, server)
            ).run()
        thread.join(timeout=10.0)
        streamed = [dict(e) for e in events]
        recorded = [dict(e) for e in recorder.events]
        # The phase record's wall-clock 't' is recorder-only detail;
        # everything else is byte-identical.
        for event in streamed + recorded:
            event.pop("t", None)
            event.pop("wall", None)
        assert streamed == recorded

    def test_violations_stream_live(self):
        with StreamServer(wait_for_client=10.0) as server:
            host, port = server.address
            events, thread = drain(host, port)
            monitor = AssertionMonitor(
                default_properties(),
                listener=server.emit_violation,
            )
            conflict_model().elaborate(
                observe=ProbeSet(monitor, server)
            ).run()
        thread.join(timeout=10.0)
        violations = [e for e in events if e["event"] == "violation"]
        assert len(violations) == len(monitor.report.violations)
        first = violations[0]
        assert first["cs"] == 2 and first["ph"] == "rb"
        assert first["property"] in ("never_illegal", "no_conflicts")

    def test_no_client_counts_but_never_blocks(self):
        with StreamServer() as server:
            fig1_model().elaborate(observe=server).run()
            assert server.events > 0

    def test_slow_client_drops_are_counted_per_client(self):
        """One stalled watcher loses events; a live one loses none --
        and the losses are attributed, not pooled."""
        with StreamServer(max_queue=64) as server:
            # Shrink the send buffer (accepted sockets inherit it) so
            # a non-reading client stalls its sender almost at once.
            server._sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
            )
            host, port = server.address
            # The slow client connects but never reads.
            slow = socket.create_connection((host, port))
            slow.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1)
            # The fast client drains everything.
            events, thread = drain(host, port)
            while server.clients_total < 2:
                pass
            total = 400
            padding = "x" * 1024
            for i in range(total):
                server.emit({"event": "step", "cs": i, "pad": padding})
                if i % 8 == 0:  # let the fast sender keep up
                    threading.Event().wait(0.001)
            # Wait until the fast client's queue is fully delivered.
            deadline = threading.Event()
            for _ in range(100):
                if len(events) >= total:
                    break
                deadline.wait(0.05)
            rows = {row["peer"]: row for row in server.client_drops()}
            assert len(rows) == 2
            dropped = sorted(row["dropped"] for row in rows.values())
            assert dropped[0] == 0, "the fast client lost events"
            assert dropped[1] > 0, "the slow client's losses went uncounted"
            assert server.dropped == dropped[1]
            assert server.events == total
            assert len(events) == total
            slow.close()
        thread.join(timeout=10.0)

    def test_record_queue_drops_when_full(self):
        from repro.observe.stream import RecordQueue

        q = RecordQueue(maxsize=2)
        assert q.offer(1) and q.offer(2)
        assert not q.offer(3)
        assert q.accepted == 2 and q.dropped == 1
        assert q.drain() == [1, 2]
        assert q.offer(4)
        assert q.get() == 4

    def test_departed_client_keeps_its_drop_row(self):
        with StreamServer(wait_for_client=10.0) as server:
            host, port = server.address
            events, thread = drain(host, port)
            fig1_model().elaborate(observe=server).run()
        thread.join(timeout=10.0)
        rows = server.client_drops()
        assert len(rows) == 1
        assert rows[0]["dropped"] == 0
        assert rows[0]["sent"] > 0

    def test_run_metrics_stream_columns(self):
        with StreamServer() as server:
            sim = fig1_model().elaborate(observe=server).run()
        row = run_metrics(sim, stream=server)
        assert row["stream_events"] == server.events
        assert row["stream_dropped"] == server.dropped
        assert row["stream_clients"] == 0

    def test_clients_total_counts_lifetime_connections(self):
        with StreamServer(wait_for_client=10.0) as server:
            host, port = server.address
            events, thread = drain(host, port)
            sim = fig1_model().elaborate(observe=server).run()
            assert server.clients_total == 1
            assert server.client_count == 1
        thread.join(timeout=10.0)
        # The lifetime count survives disconnects (and close()).
        assert server.clients_total == 1
        row = run_metrics(sim, stream=server)
        assert row["stream_clients"] == 1

    def test_no_stream_no_columns(self):
        sim = fig1_model().elaborate().run()
        row = run_metrics(sim)
        assert "stream_events" not in row

    def test_close_is_idempotent(self):
        server = StreamServer()
        server.close()
        server.close()

    def test_close_wakes_a_blocked_accept_promptly(self):
        server = StreamServer()
        # Give the accept thread time to block in accept(); a close()
        # that won the race to it would pass without the wake-up.
        time.sleep(0.2)
        t0 = time.perf_counter()
        server.close()
        assert time.perf_counter() - t0 < 0.1
        assert not server._accept_thread.is_alive()


class TestWatchClient:
    def test_max_events_disconnects_early(self):
        with StreamServer(wait_for_client=10.0) as server:
            host, port = server.address
            out = io.StringIO()
            result = {}

            def worker():
                result["count"] = watch_stream(
                    host, port, out=out, max_events=3, timeout=10.0,
                )

            thread = threading.Thread(target=worker, daemon=True)
            thread.start()
            fig1_model().elaborate(observe=server).run()
            thread.join(timeout=10.0)
        assert result["count"] == 3
        assert len(out.getvalue().splitlines()) == 3

    def test_raw_mode_passes_ndjson_through(self):
        with StreamServer(wait_for_client=10.0) as server:
            host, port = server.address
            out = io.StringIO()

            def worker():
                watch_stream(
                    host, port, out=out, raw=True, max_events=1,
                    timeout=10.0,
                )

            thread = threading.Thread(target=worker, daemon=True)
            thread.start()
            fig1_model().elaborate(observe=server).run()
            thread.join(timeout=10.0)
        record = json.loads(out.getvalue().splitlines()[0])
        assert record["event"] == "run_start"

    def test_connection_refused_raises_oserror(self):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()  # nothing listens here now
        try:
            watch_stream("127.0.0.1", port, out=io.StringIO(), timeout=0.5)
        except OSError:
            pass
        else:  # pragma: no cover
            raise AssertionError("expected a connection error")


class TestParseEndpoint:
    def test_host_and_port(self):
        assert parse_endpoint("0.0.0.0:9000") == ("0.0.0.0", 9000)

    def test_bare_port_defaults_to_localhost(self):
        assert parse_endpoint("9000") == ("127.0.0.1", 9000)

    def test_empty_host_defaults_to_localhost(self):
        assert parse_endpoint(":9000") == ("127.0.0.1", 9000)

    def test_bad_port_rejected(self):
        for bad in ("host:", "host:abc", "host:0", "host:70000"):
            try:
                parse_endpoint(bad)
            except ValueError:
                continue
            raise AssertionError(f"{bad!r} should be rejected")


class TestFormatEvent:
    def test_each_record_kind_renders(self):
        lines = [
            format_event({"event": "run_start", "model": "m",
                          "backend": "event", "cs_max": 7}),
            format_event({"event": "step", "cs": 2}),
            format_event({"event": "phase", "cs": 2, "ph": "rb"}),
            format_event({"event": "bus", "cs": 2, "ph": "rb",
                          "signal": "B1", "value": 7}),
            format_event({"event": "latch", "cs": 3, "ph": "ra",
                          "register": "R1", "value": 7}),
            format_event({"event": "conflict", "cs": 2, "ph": "rb",
                          "signal": "B1", "drivers": [["a", 1], ["b", 2]]}),
            format_event({"event": "violation", "cs": 2, "ph": "rb",
                          "property": "never_illegal", "signal": "B1",
                          "message": "observed ILLEGAL"}),
            format_event({"event": "run_end", "clean": True, "wall": 0.1}),
        ]
        assert "cs2.rb" in lines[2]
        assert "CONFLICT" in lines[5]
        assert "VIOLATION" in lines[6] and "never_illegal" in lines[6]
        assert all(line for line in lines)

    def test_unknown_kind_falls_back_to_json(self):
        assert "mystery" in format_event({"event": "mystery"})
