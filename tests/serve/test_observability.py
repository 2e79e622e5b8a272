"""The service observability plane, end to end.

One server, three observers: request-scoped spans in the Chrome trace
export (accept -> parse -> queue -> coalesce -> sweep -> serialize,
joined by trace id and batch number), one wide JSON event per request
in the access log, and the always-on flight recorder that dumps the
recent-request ring on any 5xx (served back via ``/v1/debug/last``).
Plus the regressions the observability PR fixed: per-watcher drop
accounting for slow watch clients, and trace-id stability across a
503-then-retry.
"""

import glob
import http.client
import json
import os
import threading
import time

import pytest

from repro.observe import parse_access_log, parse_prometheus
from repro.serve import FlightRecorder, ServeClient, serve_in_thread
from repro.serve.client import WsClient

from .conftest import fig1_model


def _http_get(host, port, path):
    """One raw GET; returns (status, content_type, body_bytes)."""
    conn = http.client.HTTPConnection(host, port, timeout=30.0)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.getheader("Content-Type"), resp.read()
    finally:
        conn.close()


class TestFlightRecorder:
    def test_ring_is_bounded(self):
        flight = FlightRecorder(capacity=8)
        for i in range(20):
            flight.record({"event": "access", "id": i})
        assert len(flight) == 8
        assert [e["id"] for e in flight.snapshot()] == list(range(12, 20))

    def test_dump_writes_ring_plus_extra(self, tmp_path):
        flight = FlightRecorder(capacity=4, directory=str(tmp_path))
        flight.record({"event": "access", "id": "a"})
        path = flight.dump("http-503", extra={"health": {"status": "ok"}})
        assert os.path.basename(path).startswith("flight-")
        assert path.endswith("-001-http-503.json")
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["event"] == "flight_dump"
        assert payload["reason"] == "http-503"
        assert payload["records"] == [{"event": "access", "id": "a"}]
        assert payload["health"] == {"status": "ok"}

    def test_dumps_are_rate_limited_unless_forced(self, tmp_path):
        flight = FlightRecorder(directory=str(tmp_path), min_interval_s=60.0)
        assert flight.dump("http-503") is not None
        # An error storm must not produce a file per rejected request.
        assert flight.dump("http-503") is None
        assert flight.dump("sigusr1", force=True) is not None
        assert flight.dumps == 2

    def test_last_serves_live_ring_then_latest_dump(self, tmp_path):
        flight = FlightRecorder(directory=str(tmp_path))
        flight.record({"event": "access", "id": 1})
        live = flight.last()
        assert live["event"] == "flight"
        assert live["records"] == [{"event": "access", "id": 1}]
        path = flight.dump("sweep-failure")
        last = flight.last()
        assert last["event"] == "flight_dump"
        assert last["reason"] == "sweep-failure"
        assert last["path"] == path

    def test_no_directory_keeps_dumps_in_memory(self, tmp_path, monkeypatch):
        """Embedded servers must not litter the working directory: with
        no dump directory, ``dump`` captures in memory only."""
        monkeypatch.chdir(tmp_path)
        flight = FlightRecorder()
        flight.record({"event": "access", "id": 1})
        assert flight.dump("http-503") is None
        assert flight.dumps == 1
        assert os.listdir(str(tmp_path)) == []
        last = flight.last()
        assert last["event"] == "flight_dump"
        assert last["path"] is None

    def test_rejects_degenerate_capacity(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)


class TestRequestTracing:
    """Accept -> queue -> sweep spans share one trace id per request,
    and coalesced requests point at the same batch span."""

    def test_coalesced_requests_share_the_batch_span(self, tmp_path):
        trace_path = str(tmp_path / "trace.json")
        log_path = str(tmp_path / "access.log")
        with serve_in_thread(
            batch_window_ms=100.0,
            trace_out=trace_path,
            access_log=log_path,
        ) as handle:
            host, port = handle.address
            with ServeClient(host, port) as client:
                digest = client.submit(fig1_model())["digest"]
            results = {}

            def fire(req_id):
                with ServeClient(host, port) as worker:
                    results[req_id] = worker.simulate(
                        digest, id=req_id, trace=f"trace-{req_id}"
                    )[-1]

            threads = [
                threading.Thread(target=fire, args=(name,))
                for name in ("a", "b")
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        # Caller-supplied trace ids echo on the results.
        assert results["a"]["trace"] == "trace-a"
        assert results["b"]["trace"] == "trace-b"

        # close() wrote the trace: both requests joined one sweep.
        with open(trace_path, "r", encoding="utf-8") as handle:
            spans = [
                e for e in json.load(handle)["traceEvents"]
                if e.get("ph") == "X"
            ]
        by_name = {}
        for span in spans:
            by_name.setdefault(span["name"], []).append(span)
        coalesced = [
            s for s in by_name["sweep"]
            if set(s["args"]["traces"]) == {"trace-a", "trace-b"}
        ]
        assert coalesced, "the two requests never coalesced into one sweep"
        sweep = coalesced[0]
        assert sweep["args"]["lanes"] == 2
        assert sweep["args"]["digest"] == digest[:12]
        batch = sweep["args"]["batch"]
        for trace_id in ("trace-a", "trace-b"):
            stages = {
                s["name"] for s in spans
                if s.get("args", {}).get("trace") == trace_id
            }
            assert {"accept", "parse", "queue", "serialize"} <= stages
            (queue,) = [
                s for s in by_name["queue"]
                if s["args"]["trace"] == trace_id
            ]
            assert queue["args"]["batch"] == batch

        # ... and the access log carries the same story, one line each.
        events = {e["id"]: e for e in parse_access_log(log_path)}
        assert set(events) == {"a", "b"}
        for req_id in ("a", "b"):
            event = events[req_id]
            assert event["trace"] == f"trace-{req_id}"
            assert event["op"] == "simulate"
            assert event["status"] == 200
            assert "code" not in event
            assert event["batch"] == 2
            assert event["queue_ms"] >= 0.0
            assert event["sweep_ms"] >= 0.0
            assert event["ms"] > 0.0

    def test_disabled_tracing_serves_identically(self, server):
        """No trace/access flags: the request path must not grow spans,
        and results carry a server-minted trace id regardless (the
        flight ring is always on)."""
        host, port = server.address
        with ServeClient(host, port) as client:
            result = client.simulate(fig1_model())[-1]
        assert server.server.tracer is None
        assert server.server.access is None
        assert len(result["trace"]) == 16
        int(result["trace"], 16)
        # The always-on flight ring recorded the wide event.
        assert any(
            e.get("trace") == result["trace"]
            for e in server.server.flight.snapshot()
        )


class TestRetryTraceStability:
    def test_trace_survives_a_503_retry_and_the_503_dumps_flight(
        self, tmp_path
    ):
        """A queue-full 503 and its retried 200 share one trace id in
        the access log; the 5xx dumps the flight ring to disk and
        ``/v1/debug/last`` serves that dump."""
        log_path = str(tmp_path / "access.log")
        flight_dir = str(tmp_path / "flight")
        with serve_in_thread(
            max_pending=1,
            batch_window_ms=300.0,
            access_log=log_path,
            flight_dir=flight_dir,
        ) as handle:
            host, port = handle.address
            with ServeClient(host, port) as client:
                digest = client.submit(fig1_model())["digest"]

                # Park one request in the 300ms gathering window so the
                # single admission slot is occupied.
                def park():
                    with ServeClient(host, port) as parked_client:
                        parked_client.simulate(digest, id="parked")

                parked = threading.Thread(target=park)
                parked.start()
                for _ in range(3000):  # until the slot is actually taken
                    if handle.server.engine.queue_depth >= 1:
                        break
                    time.sleep(0.001)
                else:
                    pytest.fail("admission queue never filled")

                result = client.simulate(
                    digest, id="retried", trace="retry-1",
                    retries=6, retry_backoff=0.1,
                )[-1]
                assert result["trace"] == "retry-1"
                parked.join()

                # The 503 dumped the ring (rate-limited, so >= 1 file).
                dumps = glob.glob(
                    os.path.join(flight_dir, "flight-*-http-503.json")
                )
                assert dumps
                status, _, body = _http_get(host, port, "/v1/debug/last")
                assert status == 200
                last = json.loads(body.splitlines()[0])
                assert last["event"] == "flight_dump"
                assert last["reason"] == "http-503"
                assert last["health"]["status"] == "ok"

        events = parse_access_log(log_path)
        retried = [e for e in events if e.get("trace") == "retry-1"]
        statuses = [e["status"] for e in retried]
        assert statuses.count(200) == 1
        assert all(s in (200, 503) for s in statuses)
        assert any(
            e["status"] == 503 and e["code"] == "queue_full"
            for e in retried
        ), f"no 503 logged under the retried trace: {retried}"

    def test_debug_last_serves_the_live_ring_before_any_dump(self, server):
        host, port = server.address
        with ServeClient(host, port) as client:
            client.simulate(fig1_model(), id="ring-1")
        status, _, body = _http_get(host, port, "/v1/debug/last")
        assert status == 200
        last = json.loads(body.splitlines()[0])
        assert last["event"] == "flight"
        assert last["dumps"] == 0
        assert any(e.get("id") == "ring-1" for e in last["records"])


class TestMetricsEndpoint:
    def test_prometheus_content_type_and_round_trip(self, server):
        host, port = server.address
        with ServeClient(host, port) as client:
            client.simulate(fig1_model(), deadline_ms=30000.0, id="m-1")
        status, content_type, body = _http_get(host, port, "/v1/metrics")
        assert status == 200
        assert content_type == "text/plain; version=0.0.4"
        parsed = parse_prometheus(body.decode("utf-8"))
        # Per-stage latency families, labelled by stage.
        stages = {
            s["labels"]["stage"]
            for s in parsed["repro_serve_stage_ms_count"]["samples"]
        }
        assert {"queue", "coalesce", "serialize"} <= stages
        # The deadline carried a budget: the SLO histogram observed it.
        budget = parsed["repro_serve_deadline_budget_consumed_count"]
        assert budget["samples"][0]["value"] >= 1.0
        # HELP/TYPE exactly once per family, no matter the label sets.
        text = body.decode("utf-8")
        for family in ("repro_serve_stage_ms", "repro_serve_requests_total"):
            assert text.count(f"# HELP {family} ") == 1
            assert text.count(f"# TYPE {family} ") == 1


class TestSlowWatcherAccounting:
    def test_slow_watcher_drops_are_per_client_and_do_not_stall_others(
        self,
    ):
        """Each watch client owns a bounded queue: a client that never
        reads drops on *its* counter while a reading client keeps
        receiving promptly."""
        with serve_in_thread(watch_queue=4) as handle:
            server = handle.server
            reader = WsClient(*handle.address)
            stalled = WsClient(*handle.address)
            try:
                assert reader.call(
                    {"op": "watch"}
                )[-1]["event"] == "watching"
                assert stalled.call(
                    {"op": "watch"}
                )[-1]["event"] == "watching"

                async def poke(count):
                    server._fanout("feed", [
                        {"event": "result", "id": i} for i in range(count)
                    ])

                # 50 offers against capacity-4 queues, all enqueued on
                # the loop thread before any drainer runs: exactly 4
                # accepted and 46 dropped per watcher, deterministically.
                handle.run(poke(50))
                got = [reader.recv(timeout=30.0)["id"] for _ in range(4)]
                assert got == [0, 1, 2, 3]

                # A second round while `stalled` still hasn't read a
                # byte: the reading client is not held back.
                handle.run(poke(50))
                assert [
                    reader.recv(timeout=30.0)["id"] for _ in range(4)
                ] == [0, 1, 2, 3]

                counters = {
                    (w.queue.accepted, w.queue.dropped)
                    for w in server._watchers
                }
                assert counters == {(8, 92)}

                stats = reader.call({"op": "stats", "id": "s"})
                watch = next(
                    r["watch"] for r in stats if "watch" in r
                )
                assert watch == {"sent": 8, "accepted": 8, "dropped": 92}
            finally:
                reader.close()
                stalled.close()


class TestTopCommand:
    def test_top_renders_one_frame_from_a_live_scrape(self, server, capsys):
        from repro.cli import main

        host, port = server.address
        with ServeClient(host, port) as client:
            for i in range(3):
                client.simulate(fig1_model(), id=f"top-{i}")
        rc = main([
            "top", "--host", host, "--port", str(port),
            "--iterations", "1", "--no-clear",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"repro top -- http://{host}:{port}" in out
        assert "RPS" in out and "P99 MS" in out
        assert "simulate" in out
        assert "cache hit" in out and "queue depth" in out

    def test_top_reports_scrape_failure(self, capsys):
        from repro.cli import main

        rc = main([
            "top", "--host", "127.0.0.1", "--port", "1",
            "--iterations", "1", "--no-clear",
        ])
        assert rc == 1
        assert "cannot scrape" in capsys.readouterr().err
