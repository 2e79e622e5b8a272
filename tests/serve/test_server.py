"""End-to-end service tests over real sockets: HTTP routes, the
batching scheduler's failure modes (deadline, admission, disconnect,
drain), pipelining, and the WebSocket transport."""

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.serialize import model_to_dict
from repro.serve import ServeClient, ServeClientError, serve_in_thread
from repro.serve.protocol import decode_registers

from .conftest import (
    WsClient,
    conflict_model,
    fig1_model,
    http_request,
    raw_socket,
    read_http_response,
    tiny_model,
)


# ----------------------------------------------------------------------
# HTTP basics
# ----------------------------------------------------------------------
class TestHttpRoutes:
    def test_health(self, server):
        with ServeClient(*server.address) as client:
            health = client.health()
        assert health["event"] == "health"
        assert health["status"] == "ok"
        assert health["models"] == 0
        assert health["backend"] == "compiled-py"

    def test_submit_then_simulate_by_digest(self, server):
        model = fig1_model()
        expected = model.elaborate(
            register_values={"R1": 9, "R2": 4}, backend="compiled"
        ).run()
        with ServeClient(*server.address) as client:
            record = client.submit(model)
            assert record["event"] == "model"
            assert record["cached"] is False
            assert client.submit(model)["cached"] is True
            records = client.simulate(
                record["digest"], register_values={"R1": 9, "R2": 4}, id="q"
            )
        result = records[-1]
        assert result["event"] == "result"
        assert result["id"] == "q"
        assert decode_registers(result["registers"]) == expected.registers
        assert result["clean"] == expected.clean
        assert result["batch"] >= 1

    def test_simulate_with_inline_document(self, server):
        model = tiny_model()
        expected = model.elaborate(backend="compiled").run()
        with ServeClient(*server.address) as client:
            result = client.simulate(model)[-1]
        assert decode_registers(result["registers"]) == expected.registers

    def test_verify_reports_conflicts(self, server):
        model = conflict_model()
        with ServeClient(*server.address) as client:
            records = client.verify(model)
        result = records[-1]
        assert result["event"] == "result"
        assert result["clean"] is False
        assert result["ok"] is False
        events = {r["event"] for r in records}
        assert "conflict" in events

    def test_models_listing(self, server):
        with ServeClient(*server.address) as client:
            assert client.models() == []
            digest = client.submit(fig1_model())["digest"]
            rows = client.models()
        assert [row["digest"] for row in rows] == [digest]

    def test_metrics_exposition(self, server):
        with ServeClient(*server.address) as client:
            client.submit(fig1_model())
            text = client.metrics()
        assert "repro_serve_requests_total" in text
        assert "repro_serve_models_total" in text

    def test_unknown_digest_is_404(self, server):
        with ServeClient(*server.address) as client:
            with pytest.raises(ServeClientError) as exc:
                client.simulate("0" * 16)
        assert exc.value.code == "not_found"
        assert exc.value.status == 404

    def test_unknown_register_is_400(self, server):
        with ServeClient(*server.address) as client:
            digest = client.submit(tiny_model())["digest"]
            with pytest.raises(ServeClientError) as exc:
                client.simulate(digest, register_values={"NOPE": 1})
        assert exc.value.code == "bad_request"

    def test_unknown_route_and_method(self, server):
        with ServeClient(*server.address) as client:
            status, _ = client._request("GET", "/v1/bogus")
            assert status == 404
            status, _ = client._request("DELETE", "/v1/models")
            assert status == 405

    def test_pipelined_requests_share_a_connection(self, server):
        model = tiny_model()
        with ServeClient(*server.address) as client:
            digest = client.submit(model)["digest"]
        sock = raw_socket(*server.address)
        try:
            # Two requests in one write: both must be answered in order.
            sock.sendall(
                http_request("/v1/simulate", {"model": digest, "id": 1})
                + http_request("/v1/simulate", {"model": digest, "id": 2})
            )
            ids = []
            for _ in range(2):
                status, records = read_http_response(sock)
                assert status == 200
                ids.append(records[-1]["id"])
        finally:
            sock.close()
        assert ids == [1, 2]


# ----------------------------------------------------------------------
# scheduler failure modes (the ISSUE's named scenarios)
# ----------------------------------------------------------------------
class TestDeadlines:
    def test_deadline_expires_in_queue(self):
        # A 300ms gathering window guarantees a 20ms deadline dies
        # while queued; the error is the wire-stable 504 record.
        with serve_in_thread(batch_window_ms=300.0) as handle:
            with ServeClient(*handle.address) as client:
                digest = client.submit(tiny_model())["digest"]
                with pytest.raises(ServeClientError) as exc:
                    client.simulate(digest, deadline_ms=20)
            assert exc.value.code == "deadline"
            assert exc.value.status == 504
            stats = handle.server.engine.stats()
        assert stats["expired"] >= 1

    def test_generous_deadline_succeeds(self, server):
        with ServeClient(*server.address) as client:
            digest = client.submit(tiny_model())["digest"]
            result = client.simulate(digest, deadline_ms=30_000)[-1]
        assert result["event"] == "result"


class TestAdmission:
    def test_queue_full_rejects_with_503(self):
        # One admission slot and a long window: concurrent requests
        # beyond the slot are rejected immediately, not queued.
        with serve_in_thread(max_pending=1, batch_window_ms=400.0) as handle:
            with ServeClient(*handle.address) as client:
                digest = client.submit(tiny_model())["digest"]

            def one(i):
                with ServeClient(*handle.address) as c:
                    try:
                        c.simulate(digest, id=i)
                        return "ok"
                    except ServeClientError as exc:
                        return exc.code

            with ThreadPoolExecutor(max_workers=4) as pool:
                outcomes = list(pool.map(one, range(4)))
            stats = handle.server.engine.stats()
        assert "queue_full" in outcomes
        assert "ok" in outcomes
        assert set(outcomes) <= {"ok", "queue_full"}
        assert stats["rejected"] >= 1

    def test_rejection_does_not_poison_the_lane(self):
        with serve_in_thread(max_pending=1, batch_window_ms=100.0) as handle:
            with ServeClient(*handle.address) as client:
                digest = client.submit(tiny_model())["digest"]
                client.simulate(digest)
                # After the burst settles, the lane still serves.
                result = client.simulate(digest)[-1]
            assert result["event"] == "result"


def _wait_for(condition, timeout=10.0):
    """Poll ``condition`` until it holds or ``timeout`` seconds pass."""
    deadline = time.monotonic() + timeout
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.001)


class TestDisconnect:
    def test_mid_sweep_disconnect_discards_the_lane(self):
        with serve_in_thread(batch_window_ms=300.0) as handle:
            with ServeClient(*handle.address) as client:
                digest = client.submit(tiny_model())["digest"]
            engine = handle.server.engine
            sock = raw_socket(*handle.address)
            sock.sendall(http_request("/v1/simulate", {"model": digest}))
            _wait_for(lambda: engine.queue_depth >= 1)  # request queued
            sock.close()      # client gone while the window gathers
            _wait_for(lambda: engine.stats()["discarded"] >= 1)
            stats = engine.stats()
            # The server survives and still answers.
            with ServeClient(*handle.address) as client:
                assert client.health()["status"] == "ok"
        assert stats["discarded"] >= 1


class TestGracefulShutdown:
    def test_close_drains_in_flight_requests(self):
        handle = serve_in_thread(batch_window_ms=200.0)
        with ServeClient(*handle.address) as client:
            digest = client.submit(tiny_model())["digest"]
        outcome = {}

        def request():
            with ServeClient(*handle.address) as c:
                try:
                    outcome["result"] = c.simulate(digest)[-1]
                except ServeClientError as exc:
                    outcome["error"] = exc.code

        thread = threading.Thread(target=request)
        thread.start()
        # Close once the request is queued inside the window (or done).
        _wait_for(
            lambda: handle.server.engine.queue_depth >= 1 or bool(outcome)
        )
        drained = handle.close()
        thread.join(timeout=30.0)
        assert drained is True
        assert outcome.get("result", {}).get("event") == "result"

    def test_draining_server_rejects_new_requests(self):
        with serve_in_thread() as handle:
            with ServeClient(*handle.address) as client:
                digest = client.submit(tiny_model())["digest"]
                handle.run(handle.server.engine.drain(timeout=1.0))
                with pytest.raises(ServeClientError) as exc:
                    client.simulate(digest)
            assert exc.value.code == "closing"
            assert exc.value.status == 503


# ----------------------------------------------------------------------
# WebSocket transport
# ----------------------------------------------------------------------
class TestWebSocket:
    def test_ops_roundtrip(self, server):
        model = fig1_model()
        expected = model.elaborate(
            register_values={"R1": 5, "R2": 6}, backend="compiled"
        ).run()
        ws = WsClient(*server.address)
        try:
            assert ws.call({"op": "ping", "id": 1})[-1]["event"] == "pong"
            record = ws.call(
                {"op": "submit", "model": model_to_dict(model), "id": 2}
            )[-1]
            assert record["event"] == "model"
            result = ws.call({
                "op": "simulate", "model": record["digest"],
                "register_values": {"R1": 5, "R2": 6}, "id": 3,
            })[-1]
            assert result["id"] == 3
            assert decode_registers(result["registers"]) == expected.registers
            bad = ws.call({"op": "teleport", "id": 4})[-1]
            assert bad["event"] == "error"
            assert bad["code"] == "bad_request"
        finally:
            ws.close()

    def test_verify_and_watch_fanout(self, server):
        clash = conflict_model()
        watcher = WsClient(*server.address)
        actor = WsClient(*server.address)
        try:
            assert watcher.call({"op": "watch"})[-1]["event"] == "watching"
            records = actor.call(
                {"op": "verify", "model": model_to_dict(clash), "id": "v"}
            )
            result = records[-1]
            assert result["ok"] is False
            assert any(r["event"] == "conflict" for r in records)
            # The watcher sees the sweep's conflict records fan out.
            seen = watcher.recv(timeout=30.0)
            assert seen["event"] in ("conflict", "violation")
            stats = watcher.call({"op": "stats", "id": "s"})
            watch = None
            for record in stats:
                watch = record.get("watch") or watch
            assert watch is not None and watch["sent"] >= 1
        finally:
            actor.close()
            watcher.close()

    def test_bad_frame_is_an_error_record(self, server):
        ws = WsClient(*server.address)
        try:
            from repro.serve.wsproto import encode_frame, OP_TEXT
            ws.writer.write(encode_frame(b"{broken", OP_TEXT, mask=True))
            ws._loop.run_until_complete(ws.writer.drain())
            record = ws.recv()
            assert record["event"] == "error"
            assert record["code"] == "bad_request"
        finally:
            ws.close()


# ----------------------------------------------------------------------
# a zero-size model cache retains nothing
# ----------------------------------------------------------------------
class TestStatelessCache:
    def test_max_models_zero_retains_nothing(self):
        model = tiny_model()
        expected = model.elaborate(backend="compiled").run()
        with serve_in_thread(max_models=0, max_batch=1) as handle:
            with ServeClient(*handle.address) as client:
                record = client.submit(model)
                assert record["cached"] is False
                # Nothing was retained: the digest is unknown...
                with pytest.raises(ServeClientError) as exc:
                    client.simulate(record["digest"])
                assert exc.value.code == "not_found"
                # ...but inline documents still simulate correctly.
                result = client.simulate(model)[-1]
                assert (
                    decode_registers(result["registers"])
                    == expected.registers
                )
                assert client.models() == []


class TestPlanCacheRoot:
    def test_second_server_loads_the_generated_kernel_from_disk(
        self, tmp_path, monkeypatch
    ):
        from repro.engine import codegen

        model = fig1_model()
        vector = {"R1": 9, "R2": 4}
        with serve_in_thread(plan_cache=str(tmp_path)) as handle:
            with ServeClient(*handle.address) as client:
                first = client.simulate(model, register_values=vector)[-1]
        assert list((tmp_path / "codegen").rglob("*.py"))
        # A fresh process would start with an empty memo; generating
        # again (or falling back to the interpreter) means the
        # codegen tier was not read.
        monkeypatch.setattr(codegen, "_MEMO", {})
        generated = []

        def refuse(plan, op_arities):
            generated.append(plan.digest)
            raise AssertionError("generated again despite a warm root")

        monkeypatch.setattr(codegen, "generate_source", refuse)
        with serve_in_thread(plan_cache=str(tmp_path)) as handle:
            with ServeClient(*handle.address) as client:
                second = client.simulate(model, register_values=vector)[-1]
        assert generated == []
        assert second["registers"] == first["registers"]
        assert decode_registers(second["registers"]) == model.elaborate(
            register_values=vector, backend="compiled"
        ).run().registers


def test_serve_backend_validation():
    # Every sweep is a re-armed compiled-py loop; "auto" is the only
    # name, so every engine backend and every unknown name is refused.
    for backend in (
        "compiled", "compiled-py", "compiled-batched",
        "compiled-py-batched", "event", "quantum",
    ):
        with pytest.raises(ValueError):
            serve_in_thread(backend=backend)


def test_json_errors_over_http(server):
    sock = raw_socket(*server.address)
    try:
        body = b"this is not json"
        sock.sendall((
            "POST /v1/simulate HTTP/1.1\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode() + body)
        status, records = read_http_response(sock)
    finally:
        sock.close()
    assert status == 400
    assert records[0]["code"] == "bad_request"
    assert json.dumps(records[0])  # wire-serializable
