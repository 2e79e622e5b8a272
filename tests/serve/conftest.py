"""Shared fixtures for the simulation-service tests."""

import json
import socket

import pytest

from repro.core import ModuleSpec, RTModel
from repro.serve import serve_in_thread


def fig1_model(cs_max=7, r1=2, r2=3):
    """The paper's Fig.-1 example (R1 <- R1 + R2)."""
    model = RTModel("example", cs_max=cs_max)
    model.register("R1", init=r1)
    model.register("R2", init=r2)
    model.bus("B1")
    model.bus("B2")
    model.module(ModuleSpec("ADD", latency=1))
    model.add_transfer("(R1,B1,R2,B2,5,ADD,6,B1,R1)")
    return model


def tiny_model(cs_max=2):
    """Minimal model whose schedule fits in two control steps."""
    model = RTModel("tiny", cs_max=cs_max)
    model.register("R1", init=2)
    model.register("R2", init=3)
    model.bus("B1")
    model.bus("B2")
    model.module(ModuleSpec("ADD", latency=1))
    model.add_transfer("(R1,B1,R2,B2,1,ADD,2,B1,R1)")
    return model


def conflict_model():
    """Two sources on B1 in step 2: a deliberate bus conflict."""
    model = RTModel("clash", cs_max=4)
    model.register("R1", init=1)
    model.register("R2", init=2)
    model.register("R3")
    model.bus("B1")
    model.bus("B2")
    model.module(ModuleSpec("ADD", latency=1))
    model.add_transfer("(R1,B1,R2,B2,2,ADD,3,B1,R3)")
    model.add_transfer("(R2,B1,R1,B2,2,ADD,3,B2,R3)")
    return model


@pytest.fixture
def server():
    """A default-configuration server on its own loop thread."""
    with serve_in_thread() as handle:
        yield handle


# ----------------------------------------------------------------------
# raw-socket helpers (pipelining, disconnect and error-path tests)
# ----------------------------------------------------------------------
def raw_socket(host, port):
    """A connected TCP socket with Nagle off (so tiny test requests
    are not batched by the kernel into misleading arrival patterns)."""
    sock = socket.create_connection((host, port), timeout=30.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def http_request(path, payload, method="POST"):
    """One raw HTTP/1.1 request as bytes."""
    body = json.dumps(payload).encode() if payload is not None else b""
    return (
        f"{method} {path} HTTP/1.1\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "\r\n"
    ).encode() + body


def read_http_response(sock):
    """Read one response off a raw socket; returns (status, records).

    Reads exactly the response's bytes, so a pipelined response that
    arrived right behind it stays in the socket for the next call."""
    head = b""
    while not head.endswith(b"\r\n\r\n"):
        byte = sock.recv(1)
        if not byte:
            raise ConnectionError("server closed the connection")
        head += byte
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ")[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    body = b""
    while len(body) < length:
        chunk = sock.recv(length - len(body))
        if not chunk:
            raise ConnectionError("server closed mid-body")
        body += chunk
    records = [
        json.loads(line)
        for line in body.split(b"\n")
        if line.strip()
    ]
    return status, records
