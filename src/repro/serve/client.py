"""Clients for the simulation service.

:class:`ServeClient` is the synchronous HTTP client (stdlib
``http.client``, keep-alive): submit a model once, then issue
simulate/verify calls against its digest.  :class:`WsClient` is the
synchronous WebSocket client of ``/v1/ws``; ``repro watch`` tails the
``watch`` fan-out with it.  :func:`run_load` is the asyncio load
driver behind ``tools/serve_load_smoke.py`` -- N concurrent clients,
each with its own persistent connection, hammering one design and
collecting per-request latencies.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import socket
import time
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from ..core.model import RTModel
from ..core.serialize import model_to_dict
from ..observe.trace import new_trace_id
from . import wsproto
from .protocol import (
    ERROR_STATUS,
    ServeError,
    decode_ndjson,
    decode_registers,
    dump_record,
)

ModelArg = Union[str, Mapping[str, Any], RTModel]


def _model_field(model: ModelArg) -> Union[str, dict]:
    if isinstance(model, RTModel):
        return model_to_dict(model)
    if isinstance(model, str):
        return model
    return dict(model)


class ServeClientError(Exception):
    """An error record returned by the service."""

    def __init__(self, record: Mapping[str, Any], status: int = 0) -> None:
        self.code = record.get("code", "internal")
        self.message = record.get("message", "")
        self.record = dict(record)
        self.status = status or ERROR_STATUS.get(self.code, (0, ""))[0]
        super().__init__(f"[{self.code}] {self.message}")


def _check(records: List[dict], status: int = 200) -> List[dict]:
    for record in records:
        if record.get("event") == "error":
            raise ServeClientError(record, status)
    if status >= 400:
        raise ServeClientError(
            {"code": "internal", "message": f"HTTP {status}"}, status
        )
    return records


def result_of(records: List[dict]) -> dict:
    """The terminal result record of one response, registers decoded."""
    for record in records:
        if record.get("event") == "result":
            out = dict(record)
            out["registers"] = decode_registers(record["registers"])
            return out
    raise ServeClientError(
        {"code": "internal", "message": "response carries no result record"}
    )


class ServeClient:
    """Synchronous keep-alive HTTP client for one service endpoint."""

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self._conn = http.client.HTTPConnection(host, port, timeout=timeout)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- plumbing ---------------------------------------------------------
    def _request(
        self, method: str, path: str, payload: Optional[Mapping[str, Any]] = None
    ) -> Tuple[int, bytes]:
        body = (
            json.dumps(payload, separators=(",", ":")).encode("utf-8")
            if payload is not None
            else None
        )
        try:
            self._conn.request(
                method, path, body=body,
                headers={"Content-Type": "application/json"} if body else {},
            )
            response = self._conn.getresponse()
            data = response.read()
        except (ConnectionError, http.client.HTTPException):
            # One reconnect: the server may have closed an idle
            # keep-alive connection under us.
            self._conn.close()
            self._conn.request(
                method, path, body=body,
                headers={"Content-Type": "application/json"} if body else {},
            )
            response = self._conn.getresponse()
            data = response.read()
        return response.status, data

    def _ndjson(
        self, method: str, path: str, payload: Optional[Mapping[str, Any]] = None
    ) -> List[dict]:
        status, data = self._request(method, path, payload)
        return _check(decode_ndjson(data), status)

    # -- API ----------------------------------------------------------------
    def submit(self, model: ModelArg) -> dict:
        """Submit a model document; returns its cache record (digest)."""
        field = _model_field(model)
        if isinstance(field, str):
            raise ServeError("bad_request", "submit needs a model document")
        return self._ndjson("POST", "/v1/models", field)[0]

    def simulate(
        self,
        model: ModelArg,
        register_values: Optional[Mapping[str, Any]] = None,
        deadline_ms: Optional[float] = None,
        id: Any = None,
        trace: Optional[str] = None,
        retries: int = 0,
        retry_backoff: float = 0.05,
    ) -> List[dict]:
        """One simulate request; returns the full NDJSON record list.

        ``retries > 0`` re-issues the request after a 503 (admission
        rejection / draining replica), backing off ``retry_backoff``
        seconds (doubled per attempt).  Retried attempts share one
        trace id -- ``trace`` when given, else one minted here -- so
        the server's spans and access log show a single request
        identity across attempts."""
        return self._sim_ndjson("/v1/simulate", self._sim_payload(
            model, register_values, deadline_ms, id, trace
        ), retries, retry_backoff)

    def verify(
        self,
        model: ModelArg,
        properties: Optional[Any] = None,
        register_values: Optional[Mapping[str, Any]] = None,
        deadline_ms: Optional[float] = None,
        id: Any = None,
        trace: Optional[str] = None,
        retries: int = 0,
        retry_backoff: float = 0.05,
    ) -> List[dict]:
        """One verify request (``properties=None`` = the default set)."""
        payload = self._sim_payload(model, register_values, deadline_ms, id, trace)
        if properties is not None:
            payload["properties"] = properties
        return self._sim_ndjson("/v1/verify", payload, retries, retry_backoff)

    def _sim_ndjson(
        self, path: str, payload: Dict[str, Any],
        retries: int, retry_backoff: float,
    ) -> List[dict]:
        if retries > 0 and "trace" not in payload:
            payload["trace"] = new_trace_id()
        backoff = retry_backoff
        for attempt in range(retries + 1):
            try:
                return self._ndjson("POST", path, payload)
            except ServeClientError as exc:
                if exc.status != 503 or attempt == retries:
                    raise
            time.sleep(backoff)
            backoff *= 2
        raise AssertionError("unreachable")  # pragma: no cover

    @staticmethod
    def _sim_payload(
        model, register_values, deadline_ms, id, trace=None
    ) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"model": _model_field(model)}
        if register_values:
            payload["register_values"] = dict(register_values)
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        if id is not None:
            payload["id"] = id
        if trace is not None:
            payload["trace"] = trace
        return payload

    def models(self) -> List[dict]:
        return self._ndjson("GET", "/v1/models")

    def health(self) -> dict:
        return self._ndjson("GET", "/v1/healthz")[0]

    def metrics(self) -> str:
        status, data = self._request("GET", "/v1/metrics")
        if status != 200:
            raise ServeClientError(
                {"code": "internal", "message": f"HTTP {status}"}, status
            )
        return data.decode("utf-8")


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


#: The record kinds that end one op's reply on the WebSocket.
_TERMINAL_EVENTS = frozenset(
    ("result", "error", "model", "pong", "health", "watching")
)


class WsClient:
    """Synchronous client of the ``/v1/ws`` WebSocket (own event loop).

    :meth:`send` writes one op frame, :meth:`recv` reads one record and
    :meth:`call` does both up to the op's terminal record.  A refused,
    timed-out or non-WebSocket connection raises :class:`OSError`."""

    def __init__(self, host: str, port: int, timeout: Optional[float] = 30.0) -> None:
        self._loop = asyncio.new_event_loop()
        try:
            self.reader, self.writer = self._loop.run_until_complete(
                asyncio.wait_for(self._connect(host, port), timeout)
            )
        except asyncio.TimeoutError:
            self._loop.close()
            raise TimeoutError(f"no WebSocket upgrade from {host}:{port}") from None
        except BaseException:
            self._loop.close()
            raise

    @staticmethod
    async def _connect(host: str, port: int):
        reader, writer = await asyncio.open_connection(host, port)
        sock = writer.get_extra_info("socket")
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        writer.write((
            "GET /v1/ws HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\n"
            "Upgrade: websocket\r\n"
            "Connection: Upgrade\r\n"
            "Sec-WebSocket-Key: dGhlIHNhbXBsZSBub25jZQ==\r\n"
            "Sec-WebSocket-Version: 13\r\n"
            "\r\n"
        ).encode("latin-1"))
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        status = head.split(b"\r\n", 1)[0]
        if status.split(b" ")[1:2] != [b"101"]:
            writer.close()
            raise ConnectionError(
                f"WebSocket upgrade refused: {status.decode('latin-1')}"
            )
        return reader, writer

    def send(self, payload: Mapping[str, Any]) -> None:
        self.writer.write(wsproto.encode_text(dump_record(payload), mask=True))
        self._loop.run_until_complete(self.writer.drain())

    def recv(self, timeout: Optional[float] = 30.0) -> Optional[dict]:
        """The next record, decoded; None once the server has closed.

        Raises :class:`asyncio.TimeoutError` after ``timeout`` seconds
        without a frame."""
        try:
            opcode, data = self._loop.run_until_complete(
                asyncio.wait_for(wsproto.read_frame(self.reader), timeout)
            )
        except (asyncio.IncompleteReadError, ConnectionError):
            return None
        if opcode == wsproto.OP_CLOSE:
            return None
        return json.loads(data)

    def call(self, payload: Mapping[str, Any]) -> List[dict]:
        """Send one op and collect records up to its terminal one."""
        self.send(payload)
        records = []
        while True:
            record = self.recv()
            if record is None:
                raise ConnectionError("server closed the WebSocket")
            records.append(record)
            if record.get("event") in _TERMINAL_EVENTS:
                return records

    def close(self) -> None:
        """Send a close frame (best effort) and release the socket."""
        try:
            self.writer.write(wsproto.encode_close(mask=True))
            self._loop.run_until_complete(self.writer.drain())
        except OSError:  # the server may have hung up first
            pass
        self.writer.close()
        try:
            self._loop.run_until_complete(self.writer.wait_closed())
        except OSError:
            pass
        self._loop.close()

    def __enter__(self) -> "WsClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# the asyncio load driver (bench + CI smoke)
# ----------------------------------------------------------------------
async def _client_worker(
    host: str,
    port: int,
    payloads: List[dict],
    latencies: List[float],
    errors: List[str],
    results: Optional[Dict[Any, dict]] = None,
) -> None:
    """One persistent connection issuing its payloads back to back."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        for payload in payloads:
            body = dump_record(payload).encode("utf-8")
            head = (
                "POST /v1/simulate HTTP/1.1\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                "\r\n"
            ).encode("latin-1")
            t0 = time.perf_counter()
            writer.write(head + body)
            await writer.drain()
            # Read the response head, then exactly Content-Length bytes.
            raw = await reader.readuntil(b"\r\n\r\n")
            length = 0
            for line in raw.decode("latin-1").split("\r\n")[1:]:
                name, _, value = line.partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value)
            data = await reader.readexactly(length)
            latencies.append((time.perf_counter() - t0) * 1000.0)
            for record in decode_ndjson(data):
                if record.get("event") == "error":
                    errors.append(record.get("code", "internal"))
                elif record.get("event") == "result" and results is not None:
                    results[record.get("id")] = record
    finally:
        writer.close()


async def run_load(
    host: str,
    port: int,
    model: Union[str, Mapping[str, Any]],
    vectors: List[Dict[str, int]],
    clients: int = 8,
    deadline_ms: Optional[float] = None,
    results: Optional[Dict[Any, dict]] = None,
    id_prefix: str = "",
) -> Dict[str, Any]:
    """Drive ``len(vectors)`` simulate requests over ``clients``
    concurrent persistent connections; returns latency/throughput
    aggregates (``rps``, ``p50_ms``, ``p99_ms``, ``errors``).
    ``model`` is a submitted design's digest, or an inline model
    document to ship with *every* request.  Pass a ``results`` dict to
    collect each request's terminal result record keyed by its id (=
    the vector index, or ``f"{id_prefix}{i}"`` when a prefix makes ids
    globally unique across several runs against one server -- the
    smoke harness's exactly-once access-log check)."""
    field = model if isinstance(model, str) else dict(model)
    payloads: List[List[dict]] = [[] for _ in range(clients)]
    for i, vector in enumerate(vectors):
        payload: Dict[str, Any] = {
            "model": field, "id": f"{id_prefix}{i}" if id_prefix else i,
        }
        if vector:
            payload["register_values"] = vector
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        payloads[i % clients].append(payload)
    latencies: List[float] = []
    errors: List[str] = []
    t0 = time.perf_counter()
    await asyncio.gather(*(
        _client_worker(host, port, chunk, latencies, errors, results)
        for chunk in payloads if chunk
    ))
    wall_s = time.perf_counter() - t0
    ok = len(latencies) - len(errors)
    ordered = sorted(latencies)

    def pct(q: float) -> float:
        if not ordered:
            return 0.0
        return ordered[min(len(ordered) - 1, int(q * len(ordered)))]

    return {
        "clients": clients,
        "requests": len(vectors),
        "ok": ok,
        "errors": len(errors),
        "error_codes": sorted(set(errors)),
        "wall_s": round(wall_s, 6),
        "rps": round(len(latencies) / wall_s, 3) if wall_s > 0 else 0.0,
        "p50_ms": round(pct(0.50), 3),
        "p99_ms": round(pct(0.99), 3),
        "mean_ms": round(sum(ordered) / len(ordered), 3) if ordered else 0.0,
    }


def drive_load(
    host: str,
    port: int,
    model: Union[str, Mapping[str, Any]],
    vectors: List[Dict[str, int]],
    clients: int = 8,
    deadline_ms: Optional[float] = None,
    results: Optional[Dict[Any, dict]] = None,
    id_prefix: str = "",
) -> Dict[str, Any]:
    """Synchronous wrapper around :func:`run_load` (own event loop)."""
    return asyncio.run(run_load(
        host, port, model, vectors,
        clients=clients, deadline_ms=deadline_ms, results=results,
        id_prefix=id_prefix,
    ))
