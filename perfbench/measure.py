"""One workload run: set-up, timed windows, checks, metrics.

An untraced run (``trace=False``) measures the end-to-end metrics over
``SEGMENTS`` load segments, each followed by a design pass.  A traced
run measures an untraced window first (for the tracing overhead and
the untraced tail), then installs :class:`~perfbench.layers.Layers`
for a second window and one design pass, and reports the per-layer
metrics, the median-request budget and the reconciliation against the
server's own clocks.  Checks run after the windows, with the patches
removed.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List

from .host import Usage, peak_rss_mb
from .results import Outcome, median, quantile


#: An untraced run alternates this many load segments with design
#: passes, so both are sampled across the whole run rather than at one
#: moment of the host's speed.
SEGMENTS = 5
#: Throughput and latency percentiles are medians over this many equal
#: sub-windows of the load, which damps host slowdowns lasting seconds.
SUBWINDOWS = 10


def steady(segments, seconds_each: float) -> Dict[str, float]:
    """req/s, latency p50 and p90 as medians over the sub-windows of
    the load segments, each request counted where it completed."""
    per_segment = max(1, SUBWINDOWS // len(segments))
    width = seconds_each / per_segment
    parts: List[List[float]] = []
    for samples in segments:
        cut: List[List[float]] = [[] for _ in range(per_segment)]
        for sent, done in zip(samples.sent, samples.done):
            i = int((done - samples.started) / width)
            if i < per_segment:
                cut[i].append((done - sent) * 1000.0)
        parts += cut
    filled = [part for part in parts if part]
    return {
        "req_per_s": median([len(part) / width for part in parts]),
        "latency_p50_ms": median([quantile(p, 50) for p in filled]),
        "latency_p90_ms": median([quantile(p, 90) for p in filled]),
    }


def serve_setup(name: str, seed: int, corrupt: bool = False):
    from .serve_load import serve_workload

    workload = serve_workload(name, seed, corrupt)
    warmup = workload.setup()
    return workload, warmup


def serve_run(name: str, seed: int, seconds: float, trace: bool,
              corrupt: bool, t_start: float) -> Outcome:
    out = Outcome()
    workload, warmup = serve_setup(name, seed, corrupt)
    # A traced run splits its time between the untraced and the traced
    # window, so it takes as long as an untraced one.
    window_s = seconds / 2 if trace else seconds
    try:
        setup_s = time.perf_counter() - t_start
        # Built (with their references) before any patch goes in.
        variants = workload.variants()
        usage = Usage()
        if trace:
            from .layers import Layers

            base = [workload.window(window_s)]
            usage.stop()
            before = workload.scrape()
            layers = Layers().install()
            try:
                traced = workload.window(window_s)
                window_sweeps = list(layers.sweeps)
                window_submits = list(layers.submits)
                after = workload.scrape()
                workload.design_pass(variants, out)
            finally:
                layers.restore()
        else:
            base, cold_ms, warm_ms = [], [], []
            for part in range(SEGMENTS):
                base.append(workload.window(window_s / SEGMENTS))
                cold, warm = workload.design_pass(
                    variants[part::SEGMENTS], out
                )
                cold_ms += cold
                warm_ms += warm
            usage.stop()
            peak_mb = peak_rss_mb()
    finally:
        workload.close()

    workload.check(warmup, out)
    for samples in base:
        workload.check(samples, out)
    expected = workload.check_deltas(out)
    out.lines.append(f"steal share during the run: {usage.steal_share:.4f}")
    requests = sum(len(samples) for samples in base)
    if not trace:
        out.metrics.update(steady(base, window_s / SEGMENTS))
        out.metrics.update({
            "setup_s": setup_s,
            "cold_design_ms": median(cold_ms),
            "warm_design_ms": median(warm_ms),
            "peak_rss_mb": peak_mb,
        })
        latencies = [ms for samples in base for ms in samples.latencies_ms()]
        out.lines.append(
            f"{requests} requests in {SEGMENTS} segments of "
            f"{window_s / SEGMENTS:g} s; p99 {quantile(latencies, 99):.3f} ms; "
            f"{len(cold_ms)} cold and {len(warm_ms)} warm designs"
        )
        return out

    records = workload.check(traced, out)
    check_observed_deltas(layers, expected, out)
    m = out.metrics
    engine_metrics(layers, window_sweeps, m)
    process_metrics(usage, requests, m)
    base_steady = steady(base, window_s)
    traced_steady = steady([traced], window_s)
    m["bench.trace_overhead"] = (
        1.0 - traced_steady["req_per_s"] / base_steady["req_per_s"]
    )
    m["bench.latency_p99_ms"] = quantile(base[0].latencies_ms(), 99)
    budget = serve_budget(workload.http, layers, window_sweeps, traced, records)
    m.update(budget["metrics"])
    out.lines.extend(budget["lines"])
    out.lines.append(
        f"untraced window: {requests} requests, "
        f"{base_steady['req_per_s']:.1f} req/s, p50 "
        f"{base_steady['latency_p50_ms']:.4f} ms; traced window: "
        f"{len(traced)} requests, {traced_steady['req_per_s']:.1f} req/s "
        f"(tracing overhead {m['bench.trace_overhead']:+.3f})"
    )
    out.lines.extend(reconcile(window_sweeps, window_submits, records,
                               before, after))
    return out


def iks_setup(seed: int, cache_root: str, corrupt: bool = False):
    from .iks_load import IksWorkload

    return IksWorkload(seed, cache_root, corrupt)


def iks_run(seed: int, seconds: float, trace: bool, corrupt: bool,
            t_start: float, cache_root: str) -> Outcome:
    out = Outcome()
    workload = iks_setup(seed, cache_root, corrupt)
    setup_s = time.perf_counter() - t_start
    window_s = seconds / 2 if trace else seconds
    usage = Usage()
    base = workload.window(window_s, 1 if trace else SEGMENTS)
    usage.stop()
    peak_mb = peak_rss_mb()
    if trace:
        from .layers import Layers

        layers = Layers().install()
        try:
            traced = workload.window(window_s)
        finally:
            layers.restore()
    expected = workload.check(base, out)
    out.lines.append(f"steal share during the run: {usage.steal_share:.4f}")
    # Designs run back to back on one thread, so throughput is the
    # inverse of the design time; the median keeps one slow design
    # from moving it.
    cold_rate = 1000.0 / median(base["cold_ms"])
    if not trace:
        out.metrics.update({
            "setup_s": setup_s,
            "req_per_s": cold_rate,
            "latency_p50_ms": quantile(base["cold_ms"], 50),
            "latency_p90_ms": quantile(base["cold_ms"], 90),
            "cold_design_ms": median(base["cold_ms"]),
            "warm_design_ms": median(base["warm_ms"]),
            "peak_rss_mb": peak_mb,
        })
        out.lines.append(
            f"{len(base['cold'])} cold and {len(base['warm'])} warm designs "
            f"in {SEGMENTS} segments; delta cycles per run {expected}"
        )
        return out

    workload.check(traced, out)
    check_observed_deltas(layers, expected, out)
    m = out.metrics
    engine_metrics(layers, layers.sweeps, m)
    process_metrics(usage, len(base["cold"]), m)
    m["bench.trace_overhead"] = 1.0 - median(base["cold_ms"]) / median(
        traced["cold_ms"])
    m["bench.latency_p99_ms"] = quantile(base["cold_ms"], 99)
    m.update({name: 0.0 for name in SERVE_LAYERS})
    out.lines.extend(design_budget(layers, traced))
    return out


#: Serve-only layers; they do not run on the IKS workload.
SERVE_LAYERS = (
    "serve.protocol.parse_us", "serve.protocol.encode_us",
    "serve.cache.resolve_us", "serve.cache.submit_ms",
    "serve.batcher.queue_p50_ms", "serve.batcher.queue_p90_ms",
    "serve.batcher.handoff_us", "serve.batcher.lanes_per_sweep",
    "serve.batcher.plane_share", "serve.wsproto.read_frame_us",
    "serve.wsproto.write_frame_us", "serve.transport.remainder_us",
)


def check_observed_deltas(layers, expected: int, out: Outcome) -> None:
    """Every traced engine run must take exactly the reference kernel's
    delta cycles."""
    for count in layers.deltas():
        if count != expected:
            out.delta_errors.append(
                f"a traced run took {count} delta cycles, the event "
                f"kernel {expected}"
            )


def engine_metrics(layers, sweeps: List[dict], m: Dict[str, float]) -> None:
    sweep = layers.sweep_costs(sweeps)
    code = layers.codegen_costs()
    deltas = layers.deltas()
    plan_gets = layers.plan_gets
    m.update({
        "engine.sweep.scalar_lane_us": sweep["scalar_lane"] * 1e6,
        "engine.sweep.plane_lane_us": sweep["plane_lane"] * 1e6,
        "engine.sweep.build_lane_us": sweep["build_lane"] * 1e6,
        "engine.codegen.rearm_us": layers.median("rearm", 1e6),
        "engine.codegen.run_us": layers.median("run", 1e6),
        "engine.batched.elaborate_ms": layers.batched_elaborate() * 1e3,
        "engine.batched.run_ms": layers.median("batched.run", 1e3),
        "engine.run.ns_per_delta": layers.ns_per_delta(),
        "engine.run.deltas": float(max(deltas, default=0)),
        "engine.plan.digest_ms": layers.median("plan.digest", 1e3),
        "engine.plan.lower_ms": layers.median("plan.lower", 1e3),
        "engine.plan.get_ms": layers.median("plan.get", 1e3),
        "engine.plan.put_ms": layers.median("plan.put", 1e3),
        "engine.plan.hit_ratio": (
            sum(plan_gets) / len(plan_gets) if plan_gets else 0.0
        ),
        "engine.codegen.generate_ms": code["generate"] * 1e3,
        "engine.codegen.compile_ms": code["compile"] * 1e3,
        "engine.codegen.load_ms": code["load"] * 1e3,
        "engine.codegen.source_kb": code["source_kb"],
        "engine.codegen.put_ms": layers.median("codegen.put", 1e3),
        "engine.codegen.hit_ratio": code["hit_ratio"],
        "engine.elaborate_ms": layers.warm_elaborate() * 1e3,
        "iks.build_ms": layers.median("iks.build", 1e3),
    })


def process_metrics(usage: Usage, requests: int, m: Dict[str, float]) -> None:
    """Counters of the untraced window, per request."""
    n = max(requests, 1)
    m["process.cpu_us_per_req"] = usage.cpu_s / n * 1e6
    m["process.ctx_switches_per_req"] = usage.voluntary_switches / n
    m["host.steal_share"] = usage.steal_share


def serve_budget(http: bool, layers, sweeps, traced, records) -> dict:
    """The median request of the traced window, layer by layer.

    Each row is the median of its own layer's samples; the transport
    remainder is what the rows leave of the traced latency p50, so the
    rows and the remainder sum to it exactly."""
    sweep = layers.sweep_costs(sweeps)
    queue = [r["queue_ms"] for r in records if r.get("event") == "result"]
    p50_us = quantile(traced.latencies_ms(), 50) * 1000.0
    encode_key = "encode_ndjson" if http else "dump_record"
    encode = layers.median("result_record", 1e6) + layers.median(encode_key, 1e6)
    read = 0.0 if http else layers.median("read_frame", 1e6)
    write = 0.0 if http else layers.median("encode_text", 1e6)
    rows = []
    if not http:
        rows.append(("serve.wsproto.read_frame", read,
                     "server-side wsproto.read_frame"))
    rows += [
        ("serve.protocol.parse", layers.median("parse", 1e6),
         "parse_sim_request"),
        ("serve.cache.resolve", layers.median("cache.resolve", 1e6),
         "ModelCache.resolve"),
        ("serve.batcher.queue", quantile(queue, 50) * 1000.0,
         "wire queue_ms p50"),
        ("serve.batcher.handoff", sweep["handoff"] * 1e6,
         "wire sweep_ms - run_sweep, per sweep"),
        ("engine.sweep.run_sweep", sweep["run_sweep"] * 1e6,
         "run_sweep, per sweep"),
        ("serve.protocol.encode", encode, f"result_record + {encode_key}"),
    ]
    if not http:
        rows.append(("serve.wsproto.write_frame", write,
                     "wsproto.encode_text"))
    remainder = p50_us - sum(value for _name, value, _how in rows)
    lines = [f"median-request budget, traced window (latency p50 "
             f"{p50_us:.1f} us):"]
    for name, value, how in rows:
        lines.append(f"  {name:<28} {value:>10.1f} us   {how}")
    unattributed = (
        "sockets, HTTP head and JSON body decode, loop wakeups, client"
        if http else "sockets, JSON decode, loop wakeups, client"
    )
    lines.append(f"  {'serve.transport.remainder':<28} {remainder:>10.1f} us   "
                 f"unattributed: {unattributed}")
    lines.append(f"  {'= latency_p50':<28} {p50_us:>10.1f} us")
    lines.append(
        f"  run_sweep per sweep: {sweep['sweeps']} sweeps, "
        f"{sweep['lanes_per_sweep']:.1f} lanes on average, "
        f"{sweep['plane_share']:.2f} on the numpy plane; per lane "
        f"scalar {sweep['scalar_lane'] * 1e6:.1f} us, plane "
        f"{sweep['plane_lane'] * 1e6:.1f} us, result building "
        f"{sweep['build_lane'] * 1e6:.1f} us"
    )
    return {
        "lines": lines,
        "metrics": {
            "serve.protocol.parse_us": layers.median("parse", 1e6),
            "serve.protocol.encode_us": encode,
            "serve.cache.resolve_us": layers.median("cache.resolve", 1e6),
            "serve.cache.submit_ms": layers.median("cache.submit", 1e3),
            "serve.batcher.queue_p50_ms": quantile(queue, 50),
            "serve.batcher.queue_p90_ms": quantile(queue, 90),
            "serve.batcher.handoff_us": sweep["handoff"] * 1e6,
            "serve.batcher.lanes_per_sweep": sweep["lanes_per_sweep"],
            "serve.batcher.plane_share": sweep["plane_share"],
            "serve.wsproto.read_frame_us": read,
            "serve.wsproto.write_frame_us": write,
            "serve.transport.remainder_us": remainder,
        },
    }


def reconcile(sweeps, submits, records, before, after) -> List[str]:
    """Queue, sweep and batch as measured from outside (the wrapped
    calls), by the wire fields, and by the ``/v1/metrics`` histograms,
    all as means over the traced window."""
    def hist(name: str, labels: str = "") -> tuple:
        total = after.get(f"{name}_sum{labels}", 0.0) - before.get(
            f"{name}_sum{labels}", 0.0)
        count = after.get(f"{name}_count{labels}", 0.0) - before.get(
            f"{name}_count{labels}", 0.0)
        return (total / count if count else 0.0), int(count)

    def stage(name: str) -> tuple:
        return hist("repro_serve_stage_ms", '{stage="%s"}' % name)

    results = [r for r in records if r.get("event") == "result"]
    if not results or not sweeps:
        return ["reconcile: no results in the traced window"]
    # Weighting each request by 1/batch turns per-request wire fields
    # into per-sweep means.
    weight = sum(1.0 / r["batch"] for r in results)
    wire_sweep = sum(r["sweep_ms"] / r["batch"] for r in results) / weight
    wire_batch = len(results) / weight
    wire_queue = statistics.fmean(r["queue_ms"] for r in results)
    out_sweep = statistics.fmean(s["wall"] for s in sweeps) * 1e3
    out_batch = statistics.fmean(s["lanes"] for s in sweeps)
    out_queue = statistics.fmean(
        dt * 1e3 - lane["sweep_ms"] for dt, lane in submits
    ) if submits else 0.0
    h_sweep, n_sweep = stage("sweep")
    h_queue, n_queue = stage("queue")
    h_batch, _ = hist("repro_serve_batch_lanes")
    h_coalesce, _ = stage("coalesce")
    h_serialize, _ = stage("serialize")
    return [
        "reconcile, traced-window means (outside | wire fields | /v1/metrics):",
        f"  sweep ms   {out_sweep:8.4f} | {wire_sweep:8.4f} | {h_sweep:8.4f}"
        f"   wire - outside {wire_sweep - out_sweep:+.4f} (handoff), "
        f"metrics - wire {h_sweep - wire_sweep:+.4f}; "
        f"{len(sweeps)} vs {n_sweep} sweeps",
        f"  queue ms   {out_queue:8.4f} | {wire_queue:8.4f} | {h_queue:8.4f}"
        f"   wire - outside {wire_queue - out_queue:+.4f}, "
        f"metrics - wire {h_queue - wire_queue:+.4f}; "
        f"{len(results)} vs {n_queue} requests",
        f"  batch      {out_batch:8.2f} | {wire_batch:8.2f} | {h_batch:8.2f}"
        "   lanes per sweep",
        f"  coalesce {h_coalesce:.4f} ms, serialize {h_serialize:.4f} ms "
        "(metrics only)",
    ]


def design_budget(layers, traced: dict) -> List[str]:
    """Where a cold and a warm IKS design spend their time."""
    code = layers.codegen_costs()
    return [
        f"cold design p50 {median(traced['cold_ms']):.1f} ms: generate "
        f"{code['generate'] * 1e3:.1f} ms, compile {code['compile'] * 1e3:.1f} ms "
        f"({code['source_kb']:.0f} kB source), lower "
        f"{layers.median('plan.lower', 1e3):.2f} ms, digest "
        f"{layers.median('plan.digest', 1e3):.2f} ms",
        f"warm design p50 {median(traced['warm_ms']):.2f} ms: load "
        f"{code['load'] * 1e3:.2f} ms, plan get "
        f"{layers.median('plan.get', 1e3):.2f} ms, build_ik_model "
        f"{layers.median('iks.build', 1e3):.2f} ms, elaborate "
        f"{layers.warm_elaborate() * 1e3:.2f} ms, run "
        f"{layers.median('run', 1e3):.3f} ms",
    ]
