#!/usr/bin/env python3
"""CI synthetic load against the simulation service.

Boots a :class:`repro.serve.ServeServer` on an ephemeral port, then
drives the scenario the CI ``serve`` job gates on:

* **two designs** (the paper's Fig. 1 example and a deliberate
  bus-conflict model) submitted once and hammered concurrently, so
  batches of both lanes interleave on the event loop;
* **concurrent clients** (default 8) per design, coalescing into
  multi-lane sweeps -- the run fails if no sweep ever batched more
  than one lane;
* **one deadline-expired request**: a 1ms budget against a design
  whose lane is pinned behind a gathering window must come back as the
  wire-stable ``deadline`` error, not a success or a hang;
* **batched-vs-sequential identity**: every served register file and
  clean flag is compared against an in-process sequential ``compiled``
  run of the same vector.

With ``--access-log`` / ``--trace-out`` the run also validates the
observability plane end to end:

* every access-log line parses as a wide event, every load request's
  id appears **exactly once**, and no line carries an unexplained 5xx
  (the deliberate deadline 504 happens on the second, slow server);
* the Chrome trace export contains at least one coalesced sweep span
  whose ``traces`` list joins >1 request, and each of those requests
  has ``accept`` and ``queue`` spans under the same trace id, the
  queue span tagged with the sweep's batch number.

Exit codes: 0 pass, 1 any assertion failed.  Needs only the repo
(``PYTHONPATH=src``); no third-party packages.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

sys.path.insert(0, "src")

from repro.core import ModuleSpec, RTModel  # noqa: E402
from repro.observe.log import parse_access_log  # noqa: E402
from repro.serve import (  # noqa: E402
    ServeClient,
    ServeClientError,
    drive_load,
    serve_in_thread,
)
from repro.serve.protocol import decode_registers  # noqa: E402

CLIENTS = 8
VECTORS = 120


def fig1_model() -> RTModel:
    model = RTModel("example", cs_max=7)
    model.register("R1", init=2)
    model.register("R2", init=3)
    model.bus("B1")
    model.bus("B2")
    model.module(ModuleSpec("ADD", latency=1))
    model.add_transfer("(R1,B1,R2,B2,5,ADD,6,B1,R1)")
    return model


def conflict_model() -> RTModel:
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


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def check_access_log(path: str, expected_ids: set) -> None:
    """Parse the wide-event log; ids exactly once, no unexplained 5xx."""
    events = parse_access_log(path)  # raises on any malformed line
    seen: dict = {}
    for event in events:
        if event.get("op") == "simulate" and "id" in event:
            seen[event["id"]] = seen.get(event["id"], 0) + 1
        check(
            event.get("status", 0) < 500,
            f"unexplained 5xx in access log: {event}",
        )
    missing = expected_ids - set(seen)
    check(not missing, f"{len(missing)} request id(s) never logged: "
          f"{sorted(missing)[:5]}...")
    dupes = {k: n for k, n in seen.items() if k in expected_ids and n != 1}
    check(not dupes, f"request id(s) logged more than once: {dupes}")
    print(
        f"access log: {len(events)} wide events, "
        f"{len(expected_ids)} load ids exactly once, no unexplained 5xx"
    )


def check_trace(path: str) -> None:
    """One coalesced sweep must join >1 trace id, and each joined
    request must have accept + queue spans under that id, the queue
    span pointing at the sweep's batch."""
    with open(path, "r", encoding="utf-8") as handle:
        trace = json.load(handle)
    spans = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
    by_name: dict = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
    coalesced = [
        s for s in by_name.get("sweep", ())
        if len(s.get("args", {}).get("traces", ())) > 1
    ]
    check(bool(coalesced), "no sweep span coalesced more than one trace")
    sweep = coalesced[0]
    batch = sweep["args"]["batch"]
    for trace_id in sweep["args"]["traces"]:
        accepts = [
            s for s in by_name.get("accept", ())
            if s["args"].get("trace") == trace_id
        ]
        queues = [
            s for s in by_name.get("queue", ())
            if s["args"].get("trace") == trace_id
            and s["args"].get("batch") == batch
        ]
        check(bool(accepts), f"trace {trace_id}: no accept span")
        check(
            bool(queues),
            f"trace {trace_id}: no queue span joining batch {batch}",
        )
    print(
        f"trace export: {len(spans)} spans, sweep batch {batch} "
        f"coalesced {len(sweep['args']['traces'])} traced requests "
        "(accept -> queue -> sweep share trace ids)"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--access-log", default=None, metavar="PATH",
        help="run the server with a wide-event access log and validate "
        "it after the load (parses, ids exactly once, no 5xx)",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="run the server with request tracing and validate the "
        "Chrome trace export (coalesced sweep joins >1 trace id)",
    )
    args = parser.parse_args(argv)

    rng = random.Random(2026)
    designs = {"fig1": fig1_model(), "clash": conflict_model()}
    expected_ids: set = set()
    with serve_in_thread(
        access_log=args.access_log, trace_out=args.trace_out
    ) as handle:
        host, port = handle.address
        digests = {}
        with ServeClient(host, port) as client:
            for name, model in designs.items():
                digests[name] = client.submit(model)["digest"]

            # -- one deadline-expired request -------------------------
            # Pin a third design's lane behind a long window on a second
            # server so the deadline reliably expires in the queue.
            with serve_in_thread(batch_window_ms=300.0) as slow:
                with ServeClient(*slow.address) as sc:
                    slow_digest = sc.submit(fig1_model())["digest"]
                    try:
                        sc.simulate(slow_digest, deadline_ms=1.0)
                        check(False, "1ms deadline unexpectedly met")
                    except ServeClientError as exc:
                        check(
                            exc.code == "deadline",
                            f"expected 'deadline', got {exc.code!r}",
                        )
            print("deadline expiry: ok (wire-stable 504 'deadline' record)")

        # -- concurrent load on both designs -------------------------
        for name, model in designs.items():
            vectors = [
                {
                    reg: rng.randrange(0, 1 << model.width)
                    for reg in model.registers
                }
                for _ in range(VECTORS)
            ]
            results: dict = {}
            load = drive_load(
                host, port, digests[name], vectors,
                clients=CLIENTS, results=results, id_prefix=f"{name}-",
            )
            expected_ids.update(f"{name}-{i}" for i in range(len(vectors)))
            check(
                load["errors"] == 0,
                f"{name}: {load['errors']} request(s) failed "
                f"({load['error_codes']})",
            )
            # batched-vs-sequential identity, every vector
            mismatched = 0
            for i, vector in enumerate(vectors):
                sim = model.elaborate(
                    register_values=vector, backend="compiled"
                ).run()
                got = results.get(f"{name}-{i}")
                if (
                    got is None
                    or decode_registers(got["registers"]) != sim.registers
                    or got["clean"] != sim.clean
                ):
                    mismatched += 1
            check(mismatched == 0, f"{name}: {mismatched} lane(s) differ")
            print(
                f"{name}: {VECTORS} requests x {CLIENTS} clients, "
                f"{load['rps']:,.0f} req/s, p99 {load['p99_ms']}ms, "
                "identity ok"
            )

        stats = handle.server.engine.stats()
    check(
        stats["batch_mean"] > 1.0,
        f"no coalescing happened (batch_mean={stats['batch_mean']})",
    )
    print(
        f"scheduler: {stats['sweeps']} sweeps, "
        f"{stats['lanes_swept']} lanes, mean batch {stats['batch_mean']}"
    )
    # -- observability validation (after close(): log flushed, trace
    # written) -----------------------------------------------------------
    if args.access_log:
        check_access_log(args.access_log, expected_ids)
    if args.trace_out:
        check_trace(args.trace_out)
    print("serve load smoke: PASS")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as exc:
        print(f"serve load smoke: FAIL -- {exc}", file=sys.stderr)
        sys.exit(1)
