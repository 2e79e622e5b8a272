"""The two service workloads: one in-process server, the benchmark's
own client over loopback.

* ``serve-fig1-http`` -- 2 keep-alive HTTP/1.1 connections, one
  ``simulate`` in flight on each, against the paper's Fig. 1 model.
* ``serve-fir16-ws`` -- 2 WebSocket connections with 64 ``simulate``
  ops in flight on each, against a 16-tap FIR from ``repro.hls``.

The server is booted with its shipped defaults (``backend="auto"``,
``max_batch=64``, ``max_pending=256``) and without a plan cache, so
the in-process codegen memo starts empty and nothing is read from disk.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Dict, List, Optional, Tuple

from repro.core.serialize import model_to_dict
from repro.observe.recorder import encode_value
from repro.serve import serve_in_thread

from . import designs, wire
from .results import Outcome

HTTP_CONNECTIONS = 2
WS_CONNECTIONS = 2
WS_DEPTH = 64
#: Requests sent before timing starts, so the lane, its armed
#: elaboration and the generated modules exist, and on FIR-16 both
#: sweep realizations have run.
WARMUP_REQUESTS = 512
#: New designs submitted after the timed window for the cold design
#: metric (a FIR-16 cold design compiles a ~0.5 s module), and how many
#: times each is submitted again for the warm one.
DESIGN_VARIANTS = {"serve-fig1-http": 40, "serve-fir16-ws": 10}
WARM_ROUNDS = 5


def corrupt_record(payload: bytes) -> bytes:
    """Add one to every register of the terminal record: the
    self-test's deliberately wrong result."""
    lines = payload.decode("utf-8").rstrip("\n").split("\n")
    record = json.loads(lines[-1])
    registers = record.get("registers") or {}
    for name, value in registers.items():
        if isinstance(value, int):
            registers[name] = value + 1
    lines[-1] = json.dumps(record)
    return "\n".join(lines).encode("utf-8")


def encoded(registers: Dict[str, int]) -> Dict[str, object]:
    return {name: encode_value(value) for name, value in registers.items()}


class ServeWorkload:
    """``serve-fig1-http``; :class:`WsWorkload` overrides the transport."""

    name = "serve-fig1-http"
    http = True

    def __init__(self, seed: int, corrupt: bool = False) -> None:
        self.seed = seed
        self.corrupt = corrupt
        self.loop = asyncio.new_event_loop()
        self.handle = None
        self.digest = ""
        self._refs: Dict[int, object] = {}

    # -- design, references and wire format (Fig. 1 over HTTP) ----------
    def build(self) -> None:
        self.model = designs.fig1_model()
        self.pool = designs.fig1_vectors(self.seed)

    def reference(self, k: int):
        if k not in self._refs:
            registers, clean = designs.fig1_reference(self.model, self.pool[k])
            self._refs[k] = (encoded(registers), clean)
        return self._refs[k]

    @staticmethod
    def matches(record: dict, expected) -> bool:
        registers, clean = expected
        return record.get("registers") == registers and record.get(
            "clean"
        ) is clean

    @staticmethod
    def terminal(payload: bytes) -> dict:
        """The last NDJSON record of a response body."""
        return json.loads(payload.rstrip(b"\n").rsplit(b"\n", 1)[-1])

    async def submit(self) -> str:
        conn = await wire.HttpConn.open(*self.address)
        try:
            status, body = await conn.request(
                "POST", "/v1/models",
                json.dumps(model_to_dict(self.model)).encode(),
            )
        finally:
            await conn.close()
        if status != 200:
            raise wire.WireError(f"submit failed with HTTP {status}: {body!r}")
        return json.loads(body)["digest"]

    def prepare(self) -> None:
        self.bodies = [
            json.dumps({"model": self.digest, "register_values": v}).encode()
            for v in self.pool
        ]

    async def drive(self, seconds: float, limit: Optional[int] = None):
        return await wire.http_closed_loop(
            *self.address, self.bodies, HTTP_CONNECTIONS, seconds, limit=limit
        )

    def variants(self) -> List[tuple]:
        """(document, request fields, expected) per new design: Fig. 1
        with other R2 presets baked in, simulated on its presets."""
        out = []
        for k in range(1, DESIGN_VARIANTS[self.name] + 1):
            model = designs.fig1_model(r2_init=3 + k)
            registers, clean = designs.fig1_reference(model, {})
            out.append((
                json.dumps(model_to_dict(model)).encode(),
                {},
                (encoded(registers), clean),
            ))
        return out

    async def open_design_conn(self):
        return await wire.HttpConn.open(*self.address)

    async def design_once(self, conn, document, fields: dict):
        status, body = await conn.request("POST", "/v1/models", document)
        if status != 200:
            return None
        digest = json.loads(body)["digest"]
        status, body = await conn.request(
            "POST", "/v1/simulate",
            json.dumps({"model": digest, **fields}).encode(),
        )
        return self.terminal(body) if status == 200 else None

    # -- lifecycle -------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        return self.handle.address

    def run(self, coro):
        return self.loop.run_until_complete(coro)

    def setup(self) -> wire.Samples:
        """Build the design, boot the server, submit, warm up; returns
        the warm-up responses (they are checked like any other)."""
        self.build()
        self.handle = serve_in_thread(
            backend="auto", max_batch=64, max_pending=256
        )
        self.digest = self.run(self.submit())
        self.prepare()
        return self.run(self.drive(float("inf"), limit=WARMUP_REQUESTS))

    def window(self, seconds: float) -> wire.Samples:
        return self.run(self.drive(seconds))

    def close(self) -> None:
        if self.handle is not None:
            self.handle.close()
            self.handle = None
        self.loop.close()

    # -- checks ----------------------------------------------------------
    def check(self, samples: wire.Samples, outcome: Outcome) -> List[dict]:
        """Check every response against its vector's reference; returns
        the terminal records in sample order."""
        if self.corrupt and len(samples):
            samples.body[0] = corrupt_record(samples.body[0])
        records: List[dict] = []
        failed = 0
        for k, status, body in zip(samples.index, samples.status, samples.body):
            try:
                record = self.terminal(body)
            except ValueError:
                record = {"event": "error", "code": "unparseable"}
            records.append(record)
            if (
                status != 200
                or record.get("event") != "result"
                or not self.matches(record, self.reference(k))
            ):
                failed += 1
        outcome.count(len(samples), failed)
        return records

    def check_deltas(self, outcome: Outcome) -> int:
        """The served engine's delta-cycle count on this design equals
        the ``event`` kernel's; returns the reference count."""
        expected = designs.reference_deltas(self.model, self.pool[0])
        sim = self.model.elaborate(
            register_values=self.pool[0], backend="compiled-py"
        ).run()
        if sim.stats.delta_cycles != expected:
            outcome.delta_errors.append(
                f"compiled-py ran {sim.stats.delta_cycles} delta cycles, "
                f"the event kernel {expected}"
            )
        return expected

    # -- cold and warm designs through the service -----------------------
    def design_pass(
        self, variants: List[tuple], outcome: Outcome
    ) -> Tuple[List[float], List[float]]:
        """Submit each new design of :meth:`variants` and simulate it
        once (cold), then submit and simulate the same designs again,
        ``WARM_ROUNDS`` times (warm).  Times run from the submit
        request to the simulate result."""
        async def go():
            conn = await self.open_design_conn()
            cold: List[float] = []
            warm: List[float] = []
            try:
                for times in [cold] + [warm] * WARM_ROUNDS:
                    for document, fields, expected in variants:
                        t0 = time.perf_counter()
                        record = await self.design_once(conn, document, fields)
                        times.append((time.perf_counter() - t0) * 1000.0)
                        ok = (
                            record is not None
                            and record.get("event") == "result"
                            and self.matches(record, expected)
                        )
                        outcome.count(1, 0 if ok else 1)
            finally:
                await conn.close()
            return cold, warm

        return self.run(go())

    # -- the program's own clocks ----------------------------------------
    def scrape(self) -> Dict[str, float]:
        """``GET /v1/metrics`` as {series with labels: value}."""
        async def go():
            conn = await wire.HttpConn.open(*self.address)
            try:
                return await conn.request("GET", "/v1/metrics")
            finally:
                await conn.close()

        _status, body = self.run(go())
        series: Dict[str, float] = {}
        for line in body.decode("utf-8").splitlines():
            if not line or line.startswith("#"):
                continue
            key, _, value = line.rpartition(" ")
            try:
                series[key] = float(value)
            except ValueError:
                continue
        return series


class WsWorkload(ServeWorkload):
    """``serve-fir16-ws``: FIR-16 over WebSocket, 64 ops in flight per
    connection."""

    name = "serve-fir16-ws"
    http = False

    def build(self) -> None:
        self.synth = designs.fir16()
        self.model = self.synth.model
        self.pool = designs.fir_vectors(self.synth, self.seed)

    def reference(self, k: int):
        if k not in self._refs:
            self._refs[k] = (self.synth, self.synth.reference(self.pool[k]))
        return self._refs[k]

    @staticmethod
    def matches(record: dict, expected) -> bool:
        synth, outputs = expected
        registers = record.get("registers") or {}
        return record.get("clean") is True and all(
            registers.get(reg) == outputs[var]
            for var, reg in synth.output_regs.items()
        )

    @staticmethod
    def terminal(payload: bytes) -> dict:
        return json.loads(payload)

    async def submit(self) -> str:
        conn = await wire.WsConn.open(*self.address)
        try:
            record = await conn.call({
                "op": "submit", "model": model_to_dict(self.model), "id": "s",
            })
        finally:
            await conn.close()
        if record.get("event") != "model":
            raise wire.WireError(f"submit failed: {record}")
        return record["digest"]

    def prepare(self) -> None:
        def op(vector):
            head = (
                '{"op":"simulate","model":"%s","register_values":%s,"id":'
                % (self.digest, json.dumps(vector))
            ).encode()
            return lambda rid: head + str(rid).encode() + b"}"

        self.ops = [op(v) for v in self.pool]

    async def drive(self, seconds: float, limit: Optional[int] = None):
        return await wire.ws_closed_loop(
            *self.address, self.ops, WS_CONNECTIONS, WS_DEPTH, seconds,
            limit=limit,
        )

    def variants(self) -> List[tuple]:
        """FIR-16 with another output offset, on a pool vector."""
        out = []
        for k in range(1, DESIGN_VARIANTS[self.name] + 1):
            synth = designs.fir16(offset=k)
            vector = self.pool[k]
            out.append((
                model_to_dict(synth.model),
                {"register_values": vector},
                (synth, synth.reference(vector)),
            ))
        return out

    async def open_design_conn(self):
        return await wire.WsConn.open(*self.address)

    async def design_once(self, conn, document, fields: dict):
        record = await conn.call({"op": "submit", "model": document, "id": "d"})
        if record.get("event") != "model":
            return None
        return await conn.call({
            "op": "simulate", "model": record["digest"], "id": "r", **fields,
        })


def serve_workload(name: str, seed: int, corrupt: bool = False) -> ServeWorkload:
    cls = WsWorkload if name == WsWorkload.name else ServeWorkload
    return cls(seed, corrupt)
