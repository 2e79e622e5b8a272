"""Per-layer timing for traced runs.

Each layer is timed around its public call, patched where the caller
binds the name (``repro.serve.server.parse_sim_request``, not
``repro.serve.protocol.parse_sim_request``), so the program itself is
unchanged and the patches come off with :meth:`Layers.restore`.  Calls
made inside one ``run_sweep`` are attributed to that sweep through a
thread-local, which is how lane-result building is isolated as
``run_sweep - elaborate - rearm - run``.
"""

from __future__ import annotations

import functools
import statistics
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List

import repro.core.model as core_model
import repro.engine.codegen as codegen
import repro.engine.plan as plan
import repro.iks.flow as iks_flow
import repro.serve.batcher as batcher
import repro.serve.cache as serve_cache
import repro.serve.server as server
import repro.serve.wsproto as wsproto

from .results import median

clock = time.perf_counter


class Layers:
    """Patches the layer entry points and collects their timings."""

    def __init__(self) -> None:
        #: layer key -> call durations in seconds
        self.calls: Dict[str, List[float]] = defaultdict(list)
        #: one record per run_sweep call
        self.sweeps: List[dict] = []
        #: (seconds, delta cycles, lanes) per engine run
        self.runs: List[tuple] = []
        #: one record per resolve_codegen call
        self.resolves: List[dict] = []
        #: (backend, seconds, generated code) per elaboration
        self.elaborations: List[tuple] = []
        #: (seconds, lane dict) per BatchingEngine.submit that returned
        self.submits: List[tuple] = []
        self.plan_gets: List[bool] = []
        self._tls = threading.local()
        self._undo: List[tuple] = []

    # -- patching ------------------------------------------------------
    def _patch(self, owner: Any, name: str,
               make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, name)
        self._undo.append((owner, name, original))
        setattr(owner, name, functools.wraps(original)(make(original)))

    def _timed(self, owner: Any, name: str, key: str) -> None:
        calls = self.calls[key]

        def make(fn):
            def timed(*args, **kwargs):
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    calls.append(clock() - t0)
            return timed

        self._patch(owner, name, make)

    def _timed_async(self, owner: Any, name: str, key: str) -> None:
        calls = self.calls[key]

        def make(fn):
            async def timed(*args, **kwargs):
                t0 = clock()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    calls.append(clock() - t0)
            return timed

        self._patch(owner, name, make)

    def install(self) -> "Layers":
        tls = self._tls
        tls.sweep = tls.elab = tls.resolve = None

        # serve: protocol, cache, WebSocket framing
        self._timed(server, "parse_sim_request", "parse")
        self._timed(server, "result_record", "result_record")
        self._timed(server, "encode_ndjson", "encode_ndjson")
        self._timed(server, "dump_record", "dump_record")
        self._timed(serve_cache.ModelCache, "resolve", "cache.resolve")
        self._timed(serve_cache.ModelCache, "submit", "cache.submit")
        self._timed_async(wsproto, "read_frame", "read_frame")
        self._timed(wsproto, "encode_text", "encode_text")
        # plan and codegen tiers, the IKS model builder
        self._timed(plan, "model_digest", "plan.digest")
        self._timed(plan, "lower", "plan.lower")
        self._timed(plan.PlanCache, "put", "plan.put")
        self._timed(iks_flow, "build_ik_model", "iks.build")

        def make_submit(fn):
            async def submit(engine, entry, request, ctx=None):
                t0 = clock()
                lane = await fn(engine, entry, request, ctx=ctx)
                self.submits.append((clock() - t0, lane))
                return lane
            return submit

        def make_run_sweep(fn):
            def run_sweep(entry, vectors, properties, backend, state=None):
                rec = {"lanes": len(vectors), "elab": 0.0, "rearm": 0.0,
                       "run": 0.0, "plane": False}
                tls.sweep = rec
                t0 = clock()
                try:
                    lanes = fn(entry, vectors, properties, backend, state)
                finally:
                    rec["wall"] = clock() - t0
                    tls.sweep = None
                # The batcher stamps sweep_ms/queue_ms onto these same
                # lane dicts after the sweep returns.
                rec["lane"] = lanes[0] if lanes else None
                self.sweeps.append(rec)
                return lanes
            return run_sweep

        def make_elaborate(fn):
            def elaborate(model, *args, **kwargs):
                rec = {"generated": False}
                tls.elab = rec
                t0 = clock()
                try:
                    sim = fn(model, *args, **kwargs)
                finally:
                    dt = clock() - t0
                    tls.elab = None
                backend = kwargs.get("backend", "event")
                self.elaborations.append((backend, dt, rec["generated"]))
                sweep = tls.sweep
                if sweep is not None:
                    sweep["elab"] += dt
                    sweep["plane"] = sweep["plane"] or backend.endswith(
                        "-batched"
                    )
                return sim
            return elaborate

        def make_rearm(fn):
            calls = self.calls["rearm"]

            def rearm(sim, *args, **kwargs):
                t0 = clock()
                result = fn(sim, *args, **kwargs)
                dt = clock() - t0
                calls.append(dt)
                if tls.sweep is not None:
                    tls.sweep["rearm"] += dt
                return result
            return rearm

        def make_run(fn, key, batched):
            calls = self.calls[key]

            def run(sim):
                t0 = clock()
                result = fn(sim)
                dt = clock() - t0
                calls.append(dt)
                lanes = sim.batch_size if batched else 1
                self.runs.append((dt, sim.stats.delta_cycles, lanes))
                if tls.sweep is not None:
                    tls.sweep["run"] += dt
                return result
            return run

        def make_resolve(fn):
            def resolve_codegen(plan_, op_arities, plan_cache=None):
                rec = {"generate": 0.0, "put": 0.0, "generated": False,
                       "kb": 0.0}
                tls.resolve = rec
                t0 = clock()
                try:
                    handle = fn(plan_, op_arities, plan_cache)
                finally:
                    rec["total"] = clock() - t0
                    tls.resolve = None
                self.resolves.append(rec)
                if tls.elab is not None and rec["generated"]:
                    tls.elab["generated"] = True
                return handle
            return resolve_codegen

        def make_generate(fn):
            def generate_source(plan_, op_arities):
                t0 = clock()
                text = fn(plan_, op_arities)
                rec = tls.resolve
                if rec is not None:
                    rec["generate"] += clock() - t0
                    rec["generated"] = True
                    rec["kb"] = len(text) / 1024.0
                return text
            return generate_source

        def make_codegen_put(fn):
            calls = self.calls["codegen.put"]

            def put(cache, digest, text, code=None):
                t0 = clock()
                result = fn(cache, digest, text, code)
                dt = clock() - t0
                calls.append(dt)
                if tls.resolve is not None:
                    tls.resolve["put"] += dt
                return result
            return put

        def make_plan_get(fn):
            calls = self.calls["plan.get"]

            def get(cache, digest):
                t0 = clock()
                found = fn(cache, digest)
                calls.append(clock() - t0)
                self.plan_gets.append(found is not None)
                return found
            return get

        self._patch(batcher.BatchingEngine, "submit", make_submit)
        self._patch(batcher, "run_sweep", make_run_sweep)
        self._patch(core_model.RTModel, "elaborate", make_elaborate)
        self._patch(codegen.CodegenRTSimulation, "rearm", make_rearm)
        self._patch(codegen.CodegenRTSimulation, "run",
                    lambda fn: make_run(fn, "run", False))
        self._patch(codegen.CodegenBatchedRTSimulation, "run",
                    lambda fn: make_run(fn, "batched.run", True))
        self._patch(codegen, "resolve_codegen", make_resolve)
        self._patch(codegen, "generate_source", make_generate)
        self._patch(codegen.CodegenCache, "put", make_codegen_put)
        self._patch(plan.PlanCache, "get", make_plan_get)
        return self

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- derived figures -------------------------------------------------
    def median(self, key: str, scale: float = 1.0) -> float:
        """Median duration of one layer's calls, times ``scale``."""
        return median(self.calls.get(key, [])) * scale

    @staticmethod
    def sweep_costs(sweeps: List[dict]) -> Dict[str, Any]:
        """Per-sweep medians over ``sweeps``: lane cost per
        realization, lane-result building, and the executor handoff
        (wire ``sweep_ms`` minus the wrapped ``run_sweep``)."""
        scalar = [s["wall"] / s["lanes"] for s in sweeps
                  if not s["plane"] and s["lanes"]]
        plane = [s["wall"] / s["lanes"] for s in sweeps
                 if s["plane"] and s["lanes"]]
        build = [
            (s["wall"] - s["elab"] - s["rearm"] - s["run"]) / s["lanes"]
            for s in sweeps if s["lanes"]
        ]
        handoff = [
            s["lane"]["sweep_ms"] / 1000.0 - s["wall"]
            for s in sweeps
            if s["lane"] is not None and "sweep_ms" in s["lane"]
        ]
        lanes = [s["lanes"] for s in sweeps]
        return {
            "scalar_lane": median(scalar),
            "plane_lane": median(plane),
            "build_lane": median(build),
            "handoff": median(handoff),
            "run_sweep": median([s["wall"] for s in sweeps]),
            "lanes_per_sweep": statistics.fmean(lanes) if lanes else 0.0,
            "plane_share": (
                sum(1 for s in sweeps if s["plane"]) / len(sweeps)
                if sweeps else 0.0
            ),
            "sweeps": len(sweeps),
        }

    def codegen_costs(self) -> Dict[str, float]:
        """Generate, compile (a generating resolve minus generate and
        cache writes) and load (a resolve that generated nothing)."""
        made = [r for r in self.resolves if r["generated"]]
        loaded = [r for r in self.resolves if not r["generated"]]
        return {
            "generate": median([r["generate"] for r in made]),
            "compile": median(
                [r["total"] - r["generate"] - r["put"] for r in made]
            ),
            "load": median([r["total"] for r in loaded]),
            "source_kb": median([r["kb"] for r in made]),
            "hit_ratio": (
                len(loaded) / len(self.resolves) if self.resolves else 0.0
            ),
        }

    def warm_elaborate(self) -> float:
        """Median elaboration that generated no code."""
        return median([dt for _b, dt, made in self.elaborations if not made])

    def batched_elaborate(self) -> float:
        return median([dt for backend, dt, _m in self.elaborations
                        if backend.endswith("-batched")])

    def deltas(self) -> List[int]:
        return sorted({d for _dt, d, _lanes in self.runs})

    def ns_per_delta(self) -> float:
        """Run time per simulated delta cycle per lane."""
        work = sum(d * lanes for _dt, d, lanes in self.runs)
        spent = sum(dt for dt, _d, _lanes in self.runs)
        return spent / work * 1e9 if work else 0.0

