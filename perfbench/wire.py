"""The load generator's own HTTP/1.1 and WebSocket client framing.

This module is the benchmark's instrument, so it imports nothing from
``repro``: a change to the service's client or framing code cannot
change how requests are sent or how their latency is read.  Latency is
taken from just before a request's bytes are written to just after the
last byte of its terminal record is read.

Both drivers are closed loops: a connection sends its next request only
when an earlier one has completed, so a slower server receives less
load.  Responses are kept as raw bytes and checked after the timed
window, never inside it.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import json
import os
import struct
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

_WS_GUID = b"258EAFA5-E914-47DA-95CA-C5AB0DC85B11"
OP_TEXT = 0x1
OP_CLOSE = 0x8


class WireError(RuntimeError):
    """The server broke the protocol (bad status line, bad handshake)."""


@dataclass
class Samples:
    """Per-request observations of one timed window, in order of
    completion.  ``index`` names the input vector a request carried."""

    index: List[int] = field(default_factory=list)
    sent: List[float] = field(default_factory=list)
    done: List[float] = field(default_factory=list)
    status: List[int] = field(default_factory=list)
    body: List[bytes] = field(default_factory=list)
    started: float = 0.0

    def add(self, index: int, sent: float, done: float, status: int,
            body: bytes) -> None:
        self.index.append(index)
        self.sent.append(sent)
        self.done.append(done)
        self.status.append(status)
        self.body.append(body)

    def __len__(self) -> int:
        return len(self.index)

    def latencies_ms(self) -> List[float]:
        return [(d - s) * 1000.0 for s, d in zip(self.sent, self.done)]


# ----------------------------------------------------------------------
# HTTP/1.1
# ----------------------------------------------------------------------
class HttpConn:
    """One keep-alive HTTP/1.1 connection, one request in flight."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, host: str) -> None:
        self.reader = reader
        self.writer = writer
        self.host = host

    @classmethod
    async def open(cls, host: str, port: int) -> "HttpConn":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer, f"{host}:{port}")

    def head(self, method: str, path: str, length: int) -> bytes:
        return (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {length}\r\n\r\n"
        ).encode("latin-1")

    async def read_response(self) -> Tuple[int, bytes]:
        head = await self.reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ", 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
            raise WireError(f"bad status line {lines[0]!r}")
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        body = await self.reader.readexactly(length) if length else b""
        return int(parts[1]), body

    async def request(self, method: str, path: str,
                      body: bytes = b"") -> Tuple[int, bytes]:
        self.writer.write(self.head(method, path, len(body)) + body)
        return await self.read_response()

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def http_closed_loop(
    host: str,
    port: int,
    bodies: Sequence[bytes],
    connections: int,
    seconds: float,
    limit: Optional[int] = None,
    path: str = "/v1/simulate",
) -> Samples:
    """``connections`` keep-alive connections, one request in flight on
    each, cycling through ``bodies`` until ``seconds`` have passed or
    ``limit`` requests have been sent."""
    conns = [await HttpConn.open(host, port) for _ in range(connections)]
    heads = [conns[0].head("POST", path, len(b)) + b for b in bodies]
    samples = Samples()
    counter = [0]
    clock = time.perf_counter

    async def worker(conn: HttpConn, deadline: float) -> None:
        write = conn.writer.write
        read = conn.read_response
        while clock() < deadline and (limit is None or counter[0] < limit):
            k = counter[0] % len(heads)
            counter[0] += 1
            t0 = clock()
            write(heads[k])
            status, body = await read()
            samples.add(k, t0, clock(), status, body)

    samples.started = clock()
    deadline = samples.started + seconds
    try:
        await asyncio.gather(*(worker(c, deadline) for c in conns))
    finally:
        for conn in conns:
            await conn.close()
    return samples


# ----------------------------------------------------------------------
# WebSocket (RFC 6455, client side: masked, unfragmented)
# ----------------------------------------------------------------------
def mask_frame(payload: bytes, opcode: int = OP_TEXT) -> bytes:
    """One masked client frame with a random key."""
    n = len(payload)
    if n < 126:
        header = struct.pack("!BB", 0x80 | opcode, 0x80 | n)
    elif n < 1 << 16:
        header = struct.pack("!BBH", 0x80 | opcode, 0x80 | 126, n)
    else:
        header = struct.pack("!BBQ", 0x80 | opcode, 0x80 | 127, n)
    key = os.urandom(4)
    stream = (key * (n // 4 + 1))[:n]
    masked = (
        int.from_bytes(payload, "big") ^ int.from_bytes(stream, "big")
    ).to_bytes(n, "big")
    return header + key + masked


class WsConn:
    """One client WebSocket connection."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, host: str, port: int,
                   path: str = "/v1/ws") -> "WsConn":
        reader, writer = await asyncio.open_connection(host, port)
        key = base64.b64encode(os.urandom(16))
        writer.write(
            f"GET {path} HTTP/1.1\r\nHost: {host}:{port}\r\n"
            "Upgrade: websocket\r\nConnection: Upgrade\r\n"
            f"Sec-WebSocket-Key: {key.decode('ascii')}\r\n"
            "Sec-WebSocket-Version: 13\r\n\r\n".encode("latin-1")
        )
        head = (await reader.readuntil(b"\r\n\r\n")).decode("latin-1")
        expected = base64.b64encode(
            hashlib.sha1(key + _WS_GUID).digest()
        ).decode("ascii")
        if " 101 " not in head.split("\r\n", 1)[0] or expected not in head:
            raise WireError(f"WebSocket handshake refused: {head!r}")
        return cls(reader, writer)

    def send(self, text: bytes) -> None:
        self.writer.write(mask_frame(text))

    async def recv(self) -> Tuple[int, bytes]:
        """One server frame (servers never mask)."""
        head = await self.reader.readexactly(2)
        length = head[1] & 0x7F
        if length == 126:
            (length,) = struct.unpack("!H", await self.reader.readexactly(2))
        elif length == 127:
            (length,) = struct.unpack("!Q", await self.reader.readexactly(8))
        payload = await self.reader.readexactly(length) if length else b""
        return head[0] & 0x0F, payload

    async def call(self, message: dict) -> dict:
        """Send one op and return its terminal record: the first model
        or result record echoing its id, or any error record."""
        self.send(json.dumps(message).encode("utf-8"))
        while True:
            opcode, payload = await self.recv()
            if opcode == OP_CLOSE:
                raise WireError("server closed the WebSocket")
            record = json.loads(payload)
            event = record.get("event")
            if event == "error" or (
                event in ("model", "result")
                and record.get("id") == message.get("id")
            ):
                return record

    async def close(self) -> None:
        try:
            self.writer.write(mask_frame(struct.pack("!H", 1000), OP_CLOSE))
            await self.writer.drain()
        except (ConnectionError, OSError):
            pass
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def terminal_id(payload: bytes) -> Optional[int]:
    """The request id of a terminal (result or error) record, else None."""
    record = json.loads(payload)
    if record.get("event") in ("result", "error"):
        return record.get("id")
    return None


async def ws_closed_loop(
    host: str,
    port: int,
    ops: Sequence[Callable[[int], bytes]],
    connections: int,
    depth: int,
    seconds: float,
    limit: Optional[int] = None,
) -> Samples:
    """``connections`` WebSocket connections, each keeping ``depth``
    ops in flight until ``seconds`` have passed or ``limit`` ops have
    been sent, then draining.

    ``ops[k](request_id)`` renders the JSON text of an op carrying
    input vector ``k``; the request id matches results to sends."""
    conns = [await WsConn.open(host, port) for _ in range(connections)]
    samples = Samples()
    state = {"next_id": 0, "k": 0}
    clock = time.perf_counter

    def send_one(conn: WsConn, inflight: dict) -> None:
        if limit is not None and state["next_id"] >= limit:
            return
        rid = state["next_id"]
        state["next_id"] = rid + 1
        k = state["k"] % len(ops)
        state["k"] += 1
        inflight[rid] = (k, clock())
        conn.send(ops[k](rid))

    async def worker(conn: WsConn, deadline: float) -> None:
        inflight: dict = {}
        for _ in range(depth):
            send_one(conn, inflight)
        while inflight:
            opcode, payload = await conn.recv()
            if opcode == OP_CLOSE:
                raise WireError("server closed the WebSocket mid-run")
            rid = terminal_id(payload)
            if rid is None:
                continue
            now = clock()
            k, t0 = inflight.pop(rid)
            samples.add(k, t0, now, 200, payload)
            if now < deadline:
                send_one(conn, inflight)

    samples.started = clock()
    deadline = samples.started + seconds
    try:
        await asyncio.gather(*(worker(c, deadline) for c in conns))
    finally:
        for conn in conns:
            await conn.close()
    return samples
