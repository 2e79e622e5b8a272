"""Command-line interface.

Subcommands::

    repro check    file.vhd            subset-conformance check
    repro run      file.vhd --top E    elaborate + simulate VHDL
    repro analyze  model.json          static schedule analysis
    repro simulate model.json          simulate an RT model file
    repro emit     model.json          emit subset VHDL for a model
    repro clocked  model.json          translate to clocked RTL (VHDL)
    repro synth    program.alg         HLS: algorithmic source -> model
    repro iks      --target 2.5,1.0    run the IKS case study
    repro plan     model.json          lower a model, inspect its Plan IR
    repro report   run.jsonl           render a recorded run report
    repro watch    HOST:PORT           tail a repro serve's live conflicts
    repro bench    [--model m.json]    batched-vs-sequential sweep benchmark

The simulating subcommands (``run``, ``simulate``, ``iks``) share the
observability flags of :mod:`repro.observe`: ``--observe out.jsonl``
records the structured event stream, ``--vcd out.vcd`` writes a
GTKWave-ready waveform, ``--profile`` / ``--profile-out`` print or
save the per-phase wall-clock profile (``--profile-sample N`` samples
every N-th control step), and ``--monitor`` / ``--assert-file``
evaluate temporal assertions online (``--assert-out`` saves the
AssertionReport).  ``repro watch HOST:PORT`` follows the conflicts and
violations a running ``repro serve`` finds, live.

Model files use the JSON format of :mod:`repro.core.serialize`;
algorithmic sources use the straight-line language of
:mod:`repro.hls.expr`.

Run ``python -m repro <subcommand> --help`` for per-command options.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .core import analyze, format_value
from .core.serialize import dump as save_model
from .core.serialize import load as load_model


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_help()
        return 2
    try:
        return args.handler(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Clock-free register-transfer models "
            "(reproduction of Mutz, DATE 1998)"
        ),
    )
    sub = parser.add_subparsers(title="subcommands")

    p = sub.add_parser("check", help="subset-conformance check a VHDL file")
    p.add_argument("file", help="VHDL source file")
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("run", help="elaborate and simulate a VHDL design")
    p.add_argument("file", help="VHDL source file")
    p.add_argument("--top", required=True, help="top entity name")
    p.add_argument(
        "--signals", default="", help="comma-separated signals to print "
        "(default: all top-level)",
    )
    p.add_argument("--vcd", help="write a VCD waveform to this path")
    _add_backend_args(p)
    _add_observe_args(p)
    p.set_defaults(handler=cmd_run)

    p = sub.add_parser("analyze", help="static schedule analysis of a model")
    p.add_argument("file", help="model JSON file")
    p.add_argument(
        "--occupancy", action="store_true",
        help="also print the resource-occupancy chart",
    )
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("simulate", help="simulate an RT model file")
    p.add_argument("file", help="model JSON file")
    p.add_argument(
        "--set", action="append", default=[], metavar="REG=VALUE",
        help="override a register preset (repeatable)",
    )
    p.add_argument("--vcd", help="write a VCD waveform to this path")
    p.add_argument(
        "--trace", action="store_true", help="print the full phase trace"
    )
    p.add_argument(
        "--batch", type=int, default=None, metavar="N",
        help="compiled-batched: sweep N input vectors in one run "
        "(replicas of --set, or random per register with --seed)",
    )
    p.add_argument(
        "--vectors-from", metavar="JSONL",
        help="compiled-batched: read input vectors from a JSONL file "
        "(one {register: value} object per line)",
    )
    p.add_argument(
        "--seed", type=int, default=None, metavar="S",
        help="with --batch: draw N random register-value vectors",
    )
    _add_backend_args(p)
    _add_observe_args(p)
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser(
        "reschedule", help="compact a model's transfer schedule"
    )
    p.add_argument("file", help="model JSON file")
    p.add_argument("-o", "--output", help="write the compacted model here")
    p.set_defaults(handler=cmd_reschedule)

    p = sub.add_parser("emit", help="emit subset VHDL for a model")
    p.add_argument("file", help="model JSON file")
    p.add_argument("-o", "--output", help="output file (default: stdout)")
    p.set_defaults(handler=cmd_emit)

    p = sub.add_parser(
        "clocked", help="translate a model to clocked RTL and emit VHDL"
    )
    p.add_argument("file", help="model JSON file")
    p.add_argument("-o", "--output", help="output file (default: stdout)")
    p.add_argument(
        "--verify", action="store_true",
        help="also check per-step equivalence against the clock-free model",
    )
    p.set_defaults(handler=cmd_clocked)

    p = sub.add_parser("synth", help="synthesize an algorithmic program")
    p.add_argument("file", help="algorithmic source file")
    p.add_argument(
        "--resources", default="", metavar="CLASS=N,...",
        help="unit instances per class, e.g. ALU=2,MUL=1",
    )
    p.add_argument("-o", "--output", help="write the RT model JSON here")
    p.add_argument(
        "--verify", action="store_true",
        help="formally verify the model against the source program",
    )
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("iks", help="run the IKS chip case study")
    p.add_argument(
        "--target", default="2.5,1.0", metavar="PX,PY",
        help="target coordinates (default 2.5,1.0)",
    )
    p.add_argument(
        "--phi", type=float, default=None, metavar="RAD",
        help="tool orientation: run the three-DOF solution",
    )
    p.add_argument("--vcd", help="write a VCD waveform to this path")
    _add_backend_args(p)
    _add_observe_args(p)
    p.set_defaults(handler=cmd_iks)

    p = sub.add_parser(
        "plan",
        help="lower a model through the shared pipeline and inspect "
        "the resulting Plan IR",
    )
    p.add_argument("file", nargs="?", default=None, help="model JSON file")
    p.add_argument(
        "--digest", action="store_true",
        help="print only the plan's content digest",
    )
    p.add_argument(
        "--json", action="store_true",
        help="emit the plan summary as JSON instead of text",
    )
    p.add_argument(
        "--emit-code", action="store_true",
        help="print the specialized Python source the compiled-py "
        "backend generates from this plan (see repro.engine.codegen)",
    )
    p.add_argument(
        "--gc", action="store_true",
        help="prune stale/foreign entries from the on-disk plan and "
        "codegen caches, and their superseded versions (no model file "
        "needed)",
    )
    p.add_argument(
        "--plan-cache", nargs="?", const=True, default=None, metavar="DIR",
        help="consult (and fill) the on-disk plan cache; default root is "
        "$REPRO_PLAN_CACHE or ~/.cache/repro, pass DIR to override",
    )
    p.set_defaults(handler=cmd_plan)

    p = sub.add_parser(
        "cover",
        help="run a model and measure its structural coverage "
        "(identical on every backend)",
    )
    p.add_argument("file", help="model JSON file")
    p.add_argument(
        "--set", action="append", default=[], metavar="REG=VALUE",
        help="override a register's initial value (repeatable)",
    )
    p.add_argument(
        "--batch", type=int, default=None, metavar="N",
        help="with --backend compiled-batched: sweep N vectors in one "
        "run and merge the per-lane reports",
    )
    p.add_argument(
        "--seed", type=int, default=None,
        help="with --batch: fill the batch with random register vectors",
    )
    p.add_argument(
        "--per-lane", action="store_true",
        help="with --batch: print each lane's report before the merge",
    )
    p.add_argument(
        "--json", action="store_true",
        help="emit the CoverageReport as JSON instead of text",
    )
    p.add_argument(
        "--cover-out", metavar="PATH",
        help="write the CoverageReport as JSON",
    )
    p.add_argument(
        "--cover-min", type=float, default=None, metavar="PCT",
        help="exit non-zero when overall coverage is below PCT percent "
        "(checked against the cumulative report when --cover-db is "
        "given)",
    )
    p.add_argument(
        "--cover-db", nargs="?", const=True, default=None, metavar="DIR",
        help="merge the run into the cumulative on-disk coverage DB "
        "(default root: $REPRO_PLAN_CACHE or ~/.cache/repro)",
    )
    _add_backend_args(p)
    p.set_defaults(handler=cmd_cover)

    p = sub.add_parser(
        "metrics",
        help="export the process metrics registry (Prometheus text)",
    )
    p.add_argument(
        "file", nargs="?", default=None,
        help="model JSON file to run first, so the registry holds that "
        "run's samples (a bare `repro metrics` exports an empty "
        "registry: metrics live per process)",
    )
    p.add_argument(
        "--json", action="store_true",
        help="emit the registry as JSON instead of Prometheus text",
    )
    p.add_argument(
        "--out", metavar="PATH",
        help="write the exposition here instead of stdout",
    )
    _add_backend_args(p)
    p.set_defaults(handler=cmd_metrics)

    p = sub.add_parser(
        "report", help="render a recorded JSONL event log as a run report"
    )
    p.add_argument("file", help="JSONL event log (from --observe)")
    p.add_argument(
        "--json", action="store_true",
        help="emit the aggregated report as JSON instead of text",
    )
    p.set_defaults(handler=cmd_report)

    p = sub.add_parser(
        "watch",
        help="subscribe to a repro serve endpoint and tail its live "
        "conflict and violation records",
    )
    p.add_argument(
        "endpoint", metavar="HOST:PORT",
        help="the repro serve endpoint (a bare PORT means 127.0.0.1)",
    )
    p.add_argument(
        "--raw", action="store_true",
        help="print the JSON records verbatim instead of rendering them",
    )
    p.add_argument(
        "--max-events", type=int, default=None, metavar="N",
        help="disconnect after N events",
    )
    p.add_argument(
        "--timeout", type=float, default=None, metavar="SECS",
        help="stop after SECS without a record",
    )
    p.set_defaults(handler=cmd_watch)

    p = sub.add_parser(
        "serve",
        help="run the batching simulation service (HTTP + WebSocket)",
    )
    p.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    p.add_argument(
        "--port", type=int, default=8349,
        help="bind port; 0 picks a free one (default 8349)",
    )
    p.add_argument(
        "--max-batch", type=int, default=64, metavar="N",
        help="most lanes coalesced into one sweep (default 64)",
    )
    p.add_argument(
        "--max-pending", type=int, default=256, metavar="N",
        help="admission bound: queued requests beyond this are "
        "rejected with 503 (default 256)",
    )
    p.add_argument(
        "--batch-window-ms", type=float, default=0.0, metavar="MS",
        help="gather window before each sweep (default 0: natural "
        "batching only)",
    )
    p.add_argument(
        "--max-models", type=int, default=64, metavar="N",
        help="resident compiled-model cache size (default 64)",
    )
    p.add_argument(
        "--plan-cache", nargs="?", const=True, default=None, metavar="DIR",
        help="warm-start submitted models from the on-disk plan cache "
        "(default root: $REPRO_PLAN_CACHE or ~/.cache/repro; pass DIR "
        "to override)",
    )
    p.add_argument(
        "--drain-timeout", type=float, default=10.0, metavar="S",
        help="graceful-shutdown budget for in-flight sweeps (default 10)",
    )
    p.add_argument(
        "--access-log", default=None, metavar="PATH",
        help="wide-event JSON access log: one line per request with "
        "trace id, op, digest, queue/sweep ms, batch, status ('-' = "
        "stdout; bounded async writer, drops are counted in /v1/healthz)",
    )
    p.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="enable request-scoped span tracing and write the Chrome "
        "trace (accept/parse/queue/coalesce/sweep/serialize spans per "
        "request) here on shutdown",
    )
    p.add_argument(
        "--flight-dir", default=".", metavar="DIR",
        help="directory for flight-recorder dumps (default: cwd); the "
        "ring of recent requests is dumped on any 5xx and on SIGUSR1",
    )
    p.add_argument(
        "--flight-size", type=int, default=256, metavar="N",
        help="flight-recorder ring capacity (default 256)",
    )
    p.set_defaults(handler=cmd_serve)

    p = sub.add_parser(
        "top",
        help="live service dashboard: poll /v1/metrics and render "
        "rps, latency quantiles, cache hits, queue depth",
    )
    p.add_argument(
        "--host", default="127.0.0.1",
        help="service address (default 127.0.0.1)",
    )
    p.add_argument(
        "--port", type=int, default=8349,
        help="service port (default 8349)",
    )
    p.add_argument(
        "--interval", type=float, default=1.0, metavar="S",
        help="poll interval (default 1.0)",
    )
    p.add_argument(
        "--iterations", type=int, default=0, metavar="N",
        help="stop after N polls (default 0 = until interrupted)",
    )
    p.add_argument(
        "--no-clear", action="store_true",
        help="append each refresh instead of clearing the screen "
        "(scripts, CI logs)",
    )
    p.set_defaults(handler=cmd_top)

    p = sub.add_parser(
        "bench",
        help="benchmark the batched backend against sequential compiled runs",
    )
    p.add_argument(
        "--model", help="model JSON file (default: the built-in Fig. 1 "
        "example)",
    )
    p.add_argument(
        "--vectors", type=int, default=1000, metavar="N",
        help="sweep size (default 1000)",
    )
    p.add_argument(
        "--seed", type=int, default=12345,
        help="rng seed for the input vectors (default 12345)",
    )
    p.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the benchmark record here (default "
        "BENCH_batched.json, or BENCH_codegen.json with --codegen); "
        "parent directories are created",
    )
    p.add_argument(
        "--repeat", type=int, default=3, metavar="N",
        help="with --codegen: timed runs, best-of (default 3)",
    )
    p.add_argument(
        "--codegen", action="store_true",
        help="benchmark the generated compiled-py executor against the "
        "compiled interpreter on Fig. 1 and the E6 IKS chip",
    )
    p.set_defaults(handler=cmd_bench)
    return parser


def _add_backend_args(p: argparse.ArgumentParser) -> None:
    from .engine import backend_names

    p.add_argument(
        "--backend", choices=backend_names(), default="event",
        help="simulation backend (default: event)",
    )
    p.add_argument(
        "--no-transfer-engine", action="store_true",
        help="event backend: one kernel process per TRANS instance "
        "instead of the fused transfer engine",
    )
    p.add_argument(
        "--plan-cache", nargs="?", const=True, default=None, metavar="DIR",
        help="compiled backends: reuse lowered plans from the on-disk "
        "content-addressed cache (default root: $REPRO_PLAN_CACHE or "
        "~/.cache/repro; pass DIR to override)",
    )
    p.add_argument(
        "--no-plan-cache", action="store_true",
        help="lower from scratch, ignoring any plan cache (the default)",
    )


def _add_observe_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--observe", metavar="PATH",
        help="record the run's event stream as JSONL (see `repro report`)",
    )
    p.add_argument(
        "--profile", action="store_true",
        help="print a per-phase wall-clock profile after the run",
    )
    p.add_argument(
        "--profile-out", metavar="PATH",
        help="write the per-phase profile summary as JSON",
    )
    p.add_argument(
        "--profile-sample", type=int, default=None, metavar="N",
        help="profile only every N-th control step (cheaper on long runs)",
    )
    p.add_argument(
        "--monitor", action="store_true",
        help="check the default assertions (no ILLEGAL values, no bus "
        "conflicts) online and print the assertion report",
    )
    p.add_argument(
        "--assert-file", metavar="PATH",
        help="check the temporal properties declared in this JSON file "
        "(see docs/observability.md for the format)",
    )
    p.add_argument(
        "--assert-out", metavar="PATH",
        help="write the AssertionReport as JSON",
    )
    p.add_argument(
        "--cover", action="store_true",
        help="measure structural coverage (transfers, (CS,PH) cells, "
        "port value classes, conflict pairs) and print the report",
    )
    p.add_argument(
        "--cover-out", metavar="PATH",
        help="write the CoverageReport as JSON (implies --cover)",
    )
    p.add_argument(
        "--cover-min", type=float, default=None, metavar="PCT",
        help="exit non-zero when overall coverage is below PCT percent "
        "(implies --cover; checked against the cumulative report when "
        "--cover-db is given)",
    )
    p.add_argument(
        "--cover-db", nargs="?", const=True, default=None, metavar="DIR",
        help="merge the run into the cumulative on-disk coverage DB, "
        "keyed by model digest (implies --cover; default root is "
        "$REPRO_PLAN_CACHE or ~/.cache/repro, pass DIR to override)",
    )
    p.add_argument(
        "--metrics-out", metavar="PATH",
        help="write the process metrics registry after the run "
        "(Prometheus text exposition, or JSON when PATH ends in .json)",
    )
    p.add_argument(
        "--trace-out", metavar="PATH",
        help="write the run as hierarchical wall-clock spans in Chrome "
        "trace-event JSON (load in Perfetto or chrome://tracing)",
    )


def _validate_backend_flags(args, allow_batched: bool = False) -> None:
    """Reject flag combinations that would silently do nothing.

    Every simulating command calls this before it picks a path, so the
    observe-flag checks hold on each path (the VHDL interpreter and the
    batched sweep included)."""
    if getattr(args, "profile_sample", None) is not None and not (
        getattr(args, "profile", False) or getattr(args, "profile_out", None)
    ):
        raise ValueError("--profile-sample needs --profile or --profile-out")
    if getattr(args, "assert_out", None) and not (
        getattr(args, "monitor", False) or getattr(args, "assert_file", None)
    ):
        raise ValueError("--assert-out needs --monitor or --assert-file")
    if args.no_transfer_engine and args.backend != "event":
        raise ValueError(
            "--no-transfer-engine only applies to the event backend "
            f"(got --backend {args.backend})"
        )
    if args.backend.endswith("-batched") and not allow_batched:
        raise ValueError(
            f"the {args.backend} backend produces batch-shaped results; "
            "use `repro simulate` (with --batch/--vectors-from) or "
            "`repro bench`"
        )
    if getattr(args, "plan_cache", None) is not None:
        if getattr(args, "no_plan_cache", False):
            raise ValueError("--plan-cache and --no-plan-cache are exclusive")
        if args.backend == "event":
            raise ValueError(
                "--plan-cache applies to the compiled backends only "
                "(got --backend event)"
            )


def _plan_cache_arg(args):
    """The ``plan_cache=`` value the backend flags asked for."""
    if getattr(args, "no_plan_cache", False):
        return False
    return getattr(args, "plan_cache", None)


def _print_plan_line(sim) -> None:
    """One-line plan-cache verdict for runs through the lowering
    pipeline (CI greps for ``plan_cache: hit``)."""
    state = getattr(sim, "plan_cache_state", None)
    if state is None or state == "off":
        return
    digest = sim.model_plan.digest
    print(
        f"-- plan_cache: {state} digest={digest[:16]} "
        f"build_ms={sim.plan_build_ms:.2f}"
    )


def _print_codegen_line(sim) -> None:
    """One-line codegen verdict for the compiled-py backend (CI greps
    for ``codegen: hit`` and ``mode=exec``)."""
    state = getattr(sim, "codegen_cache_state", None)
    if state is None:
        return
    print(
        f"-- codegen: {state} mode={sim.codegen_mode} "
        f"build_ms={sim.codegen_build_ms:.2f}"
    )


class _ObserveSession:
    """Everything the observability flags attached to one run.

    ``probe`` goes to ``observe=`` (None when no flag asked for one --
    the zero-cost path); the rest is kept for post-run reporting.
    """

    def __init__(self, probe, profiler, monitor, coverage=None, tracer=None):
        self.probe = probe
        self.profiler = profiler
        self.monitor = monitor
        self.coverage = coverage
        self.tracer = tracer


def _build_probe(args) -> _ObserveSession:
    """Construct the probes requested by the observability flags."""
    from .observe import (
        AssertionMonitor,
        JsonlRecorder,
        Profiler,
        combine_probes,
        default_properties,
        load_properties,
    )

    probes = []
    profiler = monitor = coverage = tracer = None
    profiling = getattr(args, "profile", False) or getattr(
        args, "profile_out", None
    )
    sample = getattr(args, "profile_sample", None)
    if getattr(args, "monitor", False) or getattr(args, "assert_file", None):
        properties = []
        if args.monitor:
            properties.extend(default_properties())
        if getattr(args, "assert_file", None):
            properties.extend(load_properties(args.assert_file))
        monitor = AssertionMonitor(properties)
        probes.append(monitor)
    if getattr(args, "observe", None):
        probes.append(JsonlRecorder(args.observe))
    if _covering(args):
        from .observe import CoverageProbe

        coverage = CoverageProbe()
        probes.append(coverage)
    if profiling:
        profiler = Profiler(sample_every=sample if sample is not None else 1)
        probes.append(profiler)
    if getattr(args, "trace_out", None):
        from .observe import SpanTracer

        tracer = SpanTracer()
        probes.append(tracer)
    return _ObserveSession(
        combine_probes(probes), profiler, monitor,
        coverage=coverage, tracer=tracer,
    )


def _covering(args) -> bool:
    """True when any coverage flag asked for a report."""
    return bool(
        getattr(args, "cover", False)
        or getattr(args, "cover_out", None)
        or getattr(args, "cover_min", None) is not None
        or getattr(args, "cover_db", None) is not None
    )


def _elaborate_span(obs: _ObserveSession):
    """Bracket elaboration as a span when a tracer is attached."""
    import contextlib

    if obs.tracer is None:
        return contextlib.nullcontext()
    return obs.tracer.span("elaborate")


def _emit_observe_outputs(args, obs: _ObserveSession, sim=None) -> bool:
    """Post-run reporting for the observability flags.

    Returns False when the assertion monitor found violations or the
    coverage floor (--cover-min) was missed (the handlers fold this
    into their exit status).  ``sim`` lets the span tracer synthesize
    the backend-side plan-resolution span."""
    ok = True
    if getattr(args, "observe", None):
        print(f"-- wrote {args.observe}")
    if obs.monitor is not None and obs.monitor.report is not None:
        report = obs.monitor.report
        print(report.render())
        if getattr(args, "assert_out", None):
            with open(args.assert_out, "w", encoding="utf-8") as handle:
                handle.write(report.to_json(indent=2))
                handle.write("\n")
            print(f"-- wrote {args.assert_out}")
        ok = report.ok
    if obs.profiler is not None:
        if args.profile:
            print(obs.profiler.report())
        if args.profile_out:
            with open(args.profile_out, "w", encoding="utf-8") as handle:
                handle.write(obs.profiler.to_json(indent=2))
                handle.write("\n")
            print(f"-- wrote {args.profile_out}")
    if obs.coverage is not None and obs.coverage.report is not None:
        ok = _emit_coverage_report(args, obs.coverage.report) and ok
    if obs.tracer is not None and getattr(args, "trace_out", None):
        if sim is not None:
            obs.tracer.annotate_backend(sim)
        obs.tracer.write(args.trace_out)
        print(f"-- wrote {args.trace_out}")
    _emit_metrics_out(args)
    return ok


def _emit_coverage_report(args, report) -> bool:
    """Print/write/accumulate one CoverageReport; False on a missed
    ``--cover-min`` floor (checked against the cumulative report when
    ``--cover-db`` accumulates, else against this run's)."""
    from .observe import as_coverage_db

    if getattr(args, "json", False):
        print(report.to_json(indent=2))
    else:
        print(report.render())
    if getattr(args, "cover_out", None):
        with open(args.cover_out, "w", encoding="utf-8") as handle:
            handle.write(report.to_json(indent=2))
            handle.write("\n")
        print(f"-- wrote {args.cover_out}")
    gated = report
    db = as_coverage_db(getattr(args, "cover_db", None))
    if db is not None:
        gated = db.update(report)
        print(
            f"-- coverage db: {gated.hit_count}/{gated.point_count} "
            f"cumulative ({100.0 * gated.coverage:.1f}%) at "
            f"{db.path_for(report.digest)}"
        )
    floor = getattr(args, "cover_min", None)
    if floor is not None and 100.0 * gated.coverage < floor:
        print(
            f"-- coverage {100.0 * gated.coverage:.1f}% below "
            f"--cover-min {floor:g}%"
        )
        return False
    return True


def _emit_metrics_out(args) -> None:
    """Write the process metrics registry when --metrics-out asked."""
    path = getattr(args, "metrics_out", None)
    if not path:
        return
    from .observe import REGISTRY

    text = (
        REGISTRY.to_json(indent=2) if path.endswith(".json")
        else REGISTRY.to_prometheus()
    )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
        if not text.endswith("\n"):
            handle.write("\n")
    print(f"-- wrote {path}")


# ----------------------------------------------------------------------
# handlers
# ----------------------------------------------------------------------
def cmd_check(args) -> int:
    from .vhdl import check_subset

    with open(args.file, encoding="utf-8") as handle:
        report = check_subset(handle.read())
    print(report)
    return 0 if report.conformant else 1


def cmd_run(args) -> int:
    from .vhdl import Elaborator

    _validate_backend_flags(args)
    with open(args.file, encoding="utf-8") as handle:
        text = handle.read()
    observed = bool(
        args.vcd or args.observe or args.profile or args.profile_out
        or args.monitor or args.assert_file
        or _covering(args) or args.metrics_out or args.trace_out
    )
    if args.backend != "event" or args.no_transfer_engine or observed:
        # The VHDL interpreter is event-only and untraced; the
        # observability flags go through the model path, where every
        # backend exposes the probe/trace seam.
        return _run_via_model(args, text)
    design = Elaborator(text).elaborate(args.top)
    design.run()
    wanted = [s.strip().lower() for s in args.signals.split(",") if s.strip()]
    names = wanted or sorted(design.signals)
    for name in names:
        signal = design.signal(name)
        print(f"{signal.name} = {signal.value}")
    stats = design.sim.stats
    print(
        f"-- {stats.delta_cycles} delta cycles, {stats.events} events, "
        f"physical time {design.sim.now.time} ns"
    )
    return 0


def _run_via_model(args, text: str) -> int:
    """Non-default backends interpret the design *structurally*: the
    §2.7 architecture is recovered into an RT model and handed to the
    selected engine backend (the VHDL interpreter is event-only)."""
    from .vhdl import recover_model

    model = recover_model(text, args.top)
    obs = _build_probe(args)
    with _elaborate_span(obs):
        sim = model.elaborate(
            backend=args.backend,
            transfer_engine=not args.no_transfer_engine,
            trace=bool(args.vcd),
            observe=obs.probe,
            plan_cache=_plan_cache_arg(args),
        )
    sim.run()
    _print_plan_line(sim)
    _print_codegen_line(sim)
    wanted = [s.strip().lower() for s in args.signals.split(",") if s.strip()]
    values = {
        f"{name}_out": value for name, value in sim.registers.items()
    }
    names = wanted or sorted(values)
    for name in names:
        if name not in values:
            raise ValueError(
                f"unknown signal {name!r} (the {args.backend!r} backend "
                f"exposes register outputs only)"
            )
        print(f"{name} = {values[name]}")
    if args.vcd:
        from .observe import export_vcd

        export_vcd(sim, args.vcd)
        print(f"-- wrote {args.vcd}")
    assertions_ok = _emit_observe_outputs(args, obs, sim)
    stats = sim.stats
    print(
        f"-- {stats.delta_cycles} delta cycles, {stats.events} events, "
        f"physical time 0 ns"
    )
    return 0 if (sim.clean and assertions_ok) else 1


def cmd_analyze(args) -> int:
    from .core.occupancy import occupancy

    model = load_model(args.file)
    report = analyze(model)
    print(model.describe())
    print()
    print(report)
    if args.occupancy:
        usage = occupancy(model)
        print()
        print(usage.describe())
        print()
        print(usage.chart())
    return 0 if report.clean else 1


def cmd_simulate(args) -> int:
    _validate_backend_flags(args, allow_batched=True)
    model = load_model(args.file)
    overrides = {}
    for item in args.set:
        name, eq, value = item.partition("=")
        if not eq:
            raise ValueError(f"--set expects REG=VALUE, got {item!r}")
        overrides[name] = int(value)
    if args.backend == "compiled-batched":
        return _simulate_batched(args, model, overrides)
    if args.batch is not None or args.vectors_from:
        raise ValueError(
            "--batch/--vectors-from require a batched backend "
            "(compiled-batched)"
        )
    obs = _build_probe(args)
    with _elaborate_span(obs):
        sim = model.elaborate(
            register_values=overrides or None,
            trace=bool(args.vcd or args.trace),
            backend=args.backend,
            transfer_engine=not args.no_transfer_engine,
            observe=obs.probe,
            plan_cache=_plan_cache_arg(args),
        )
    sim.run()
    _print_plan_line(sim)
    _print_codegen_line(sim)
    for name, value in sorted(sim.registers.items()):
        print(f"{name} = {format_value(value)}")
    if sim.conflicts:
        print()
        print(sim.monitor.report())
    if args.trace:
        print()
        print(sim.tracer.format_table())
    if args.vcd:
        with open(args.vcd, "w", encoding="utf-8") as handle:
            sim.tracer.write_vcd(handle, design_name=model.name)
        print(f"-- wrote {args.vcd}")
    assertions_ok = _emit_observe_outputs(args, obs, sim)
    stats = sim.stats
    print(f"-- {stats.delta_cycles} delta cycles (= CS_MAX*6 = {model.cs_max * 6})")
    return 0 if (sim.clean and assertions_ok) else 1


def _simulate_batched(args, model, overrides: dict) -> int:
    """`repro simulate --backend compiled-batched`: the sweep path.

    Vectors come from ``--vectors-from`` (JSONL, one register mapping
    per line), or ``--batch N`` (N replicas of the ``--set`` overrides,
    or N random vectors when ``--seed`` is given).  ``--monitor`` /
    ``--assert-file`` check every lane (per-lane trace replay,
    bit-identical verdicts to N scalar runs).  Exit status is 0 iff
    every vector's run stayed clean and no lane violated an assertion.
    """
    import json
    import random

    if args.vcd or args.trace or args.observe or args.profile \
            or args.profile_out or args.trace_out:
        raise ValueError(
            "--vcd/--trace/--observe/--profile/--trace-out "
            "produce single-run output; not supported with the "
            "compiled-batched backend"
        )
    monitoring = bool(args.monitor or args.assert_file)
    covering = _covering(args)
    if args.vectors_from:
        if args.batch is not None or args.seed is not None:
            raise ValueError(
                "--vectors-from is exclusive with --batch/--seed"
            )
        vectors = []
        with open(args.vectors_from, encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError(
                        f"{args.vectors_from}:{line_no}: expected a "
                        f"{{register: value}} object"
                    )
                vectors.append({**overrides, **{
                    str(k): int(v) for k, v in record.items()
                }})
        if not vectors:
            raise ValueError(f"{args.vectors_from} holds no vectors")
    else:
        count = args.batch if args.batch is not None else 1
        if count < 1:
            raise ValueError(f"--batch must be >= 1, got {count}")
        if args.seed is not None:
            rng = random.Random(args.seed)
            vectors = [
                {
                    name: rng.randrange(0, 1 << model.width)
                    for name in model.registers
                }
                for _ in range(count)
            ]
        else:
            vectors = [dict(overrides) for _ in range(count)]
    watch = None
    if monitoring or covering:
        from .observe import monitored_watch_list

        watch = monitored_watch_list(model)
    sim = model.elaborate(
        register_values=vectors, backend=args.backend, watch=watch,
        plan_cache=_plan_cache_arg(args),
    ).run()
    _print_plan_line(sim)
    # Each read of a batch view builds all N lanes: read each once.
    clean_mask = sim.clean_mask
    lane_conflicts = sim.conflicts
    lane_tracers = sim.tracers
    clean_count = int(clean_mask.sum())
    total = len(vectors)
    if total <= 8:
        for i in range(total):
            row = " ".join(
                f"{name}={format_value(value)}"
                for name, value in sorted(sim.vector_registers(i).items())
            )
            flag = "" if clean_mask[i] else "  [conflicts]"
            print(f"vector {i}: {row}{flag}")
    violation_total = 0
    if monitoring:
        from .observe import (
            default_properties, evaluate_trace, load_properties,
        )

        properties = []
        if args.monitor:
            properties.extend(default_properties(model))
        if args.assert_file:
            properties.extend(load_properties(args.assert_file))
        reports = [
            evaluate_trace(model, tracer, properties, conflicts)
            for tracer, conflicts in zip(lane_tracers, lane_conflicts)
        ]
        violation_total = sum(len(r.violations) for r in reports)
        failing = [i for i, r in enumerate(reports) if not r.ok]
        print(
            f"assertions: {len(properties)} properties, "
            f"{violation_total} violations over {total} lanes"
        )
        for i in failing[:8]:
            for line in reports[i].render().splitlines()[1:]:
                print(f"  lane {i}:{line}")
        if len(failing) > 8:
            print(f"  ... and {len(failing) - 8} more failing lanes")
        if args.assert_out:
            with open(args.assert_out, "w", encoding="utf-8") as handle:
                json.dump([r.to_dict() for r in reports], handle, indent=2)
                handle.write("\n")
            print(f"-- wrote {args.assert_out}")
    coverage_ok = True
    if covering:
        from .observe import CoverageModel, coverage_from_trace

        cov = CoverageModel.from_plan(sim.model_plan)
        merged = coverage_from_trace(cov, lane_tracers[0], lane_conflicts[0])
        for i in range(1, total):
            merged = merged.merge(
                coverage_from_trace(cov, lane_tracers[i], lane_conflicts[i])
            )
        coverage_ok = _emit_coverage_report(args, merged)
    _emit_metrics_out(args)
    conflict_total = sum(len(events) for events in lane_conflicts)
    print(
        f"-- {total} vectors, {clean_count} clean, "
        f"{conflict_total} conflict events, "
        f"{sim.stats.delta_cycles} delta cycles "
        f"(= CS_MAX*6 = {model.cs_max * 6})"
    )
    return 0 if (
        clean_count == total and violation_total == 0 and coverage_ok
    ) else 1


def cmd_reschedule(args) -> int:
    from .core.reschedule import reschedule

    model = load_model(args.file)
    result = reschedule(model)
    print(result.describe())
    # Safety: the compacted model must produce identical results.
    before = model.elaborate().run().registers
    after = result.model.elaborate().run().registers
    if before != after:
        print("error: rescheduling changed results; not writing output",
              file=sys.stderr)
        return 1
    print("-- verified: identical register results")
    if args.output:
        save_model(result.model, args.output)
        print(f"-- wrote {args.output}")
    return 0


def cmd_emit(args) -> int:
    from .vhdl import emit_model_vhdl

    text = emit_model_vhdl(load_model(args.file))
    _write_output(text, args.output)
    return 0


def cmd_clocked(args) -> int:
    from .clocked import check_equivalence, emit_clocked_vhdl, translate

    model = load_model(args.file)
    translation = translate(model)
    if args.verify:
        report = check_equivalence(model, translation=translation)
        print(f"-- {report}", file=sys.stderr)
        if not report.equivalent:
            return 1
    _write_output(emit_clocked_vhdl(translation), args.output)
    return 0


def cmd_synth(args) -> int:
    from .hls import synthesize
    from .verify import all_equivalent, check_program_vs_model

    with open(args.file, encoding="utf-8") as handle:
        source = handle.read()
    resources = {}
    for item in args.resources.split(","):
        if not item.strip():
            continue
        name, eq, count = item.partition("=")
        if not eq:
            raise ValueError(f"--resources expects CLASS=N, got {item!r}")
        resources[name.strip().upper()] = int(count)
    result = synthesize(source, resources=resources or None)
    print(
        f"{len(result.dfg.op_nodes)} operations scheduled in "
        f"{result.schedule.makespan} control steps; "
        f"{result.allocation.temp_count} temp registers, "
        f"{result.allocation.bus_count} buses"
    )
    if args.verify:
        outcomes = check_program_vs_model(
            result.program, result.model, result.output_regs
        )
        for outcome in outcomes:
            print(f"  {outcome}")
        if not all_equivalent(outcomes):
            return 1
    if args.output:
        save_model(result.model, args.output)
        print(f"-- wrote {args.output}")
    return 0


def cmd_iks(args) -> int:
    from .iks import crosscheck, forward_kinematics

    _validate_backend_flags(args)
    px_text, _, py_text = args.target.partition(",")
    px, py = float(px_text), float(py_text)
    backend = args.backend
    transfer_engine = not args.no_transfer_engine
    obs = _build_probe(args)
    if args.phi is not None:
        return _cmd_iks3(args, px, py, args.phi, obs)
    run, ref = crosscheck(
        px, py, backend=backend, transfer_engine=transfer_engine,
        trace=bool(args.vcd), observe=obs.probe,
        plan_cache=_plan_cache_arg(args),
    )
    _print_plan_line(run.simulation)
    _print_codegen_line(run.simulation)
    fx, fy = forward_kinematics(run.theta1_rad, run.theta2_rad)
    print(f"target      : ({px}, {py})")
    print(f"chip        : theta1={run.theta1_rad:.6f}  theta2={run.theta2_rad:.6f}")
    print(f"algorithmic : theta1={ref.theta1_rad:.6f}  theta2={ref.theta2_rad:.6f}")
    exact = (run.theta1, run.theta2) == (ref.theta1, ref.theta2)
    print(f"bit-exact   : {exact}")
    print(f"FK check    : ({fx:.5f}, {fy:.5f})")
    print(
        f"simulation  : {run.simulation.stats.delta_cycles} delta cycles, "
        f"{len(run.simulation.conflicts)} conflicts"
    )
    assertions_ok = _emit_iks_observe(args, run.simulation, obs)
    return 0 if (run.clean and exact and assertions_ok) else 1


def _emit_iks_observe(args, sim, obs: _ObserveSession) -> bool:
    if args.vcd:
        from .observe import export_vcd

        export_vcd(sim, args.vcd)
        print(f"-- wrote {args.vcd}")
    return _emit_observe_outputs(args, obs, sim)


def _cmd_iks3(args, px: float, py: float, phi: float, obs: _ObserveSession) -> int:
    from .iks import forward_kinematics3, run_ik3_chip, solve_ik3

    run = run_ik3_chip(
        px, py, phi,
        backend=args.backend,
        transfer_engine=not args.no_transfer_engine,
        trace=bool(args.vcd),
        observe=obs.probe,
        plan_cache=_plan_cache_arg(args),
    )
    _print_plan_line(run.simulation)
    _print_codegen_line(run.simulation)
    ref = solve_ik3(px, py, phi)
    fx, fy, fphi = forward_kinematics3(
        run.theta1_rad, run.theta2_rad, run.theta3_rad
    )
    print(f"target      : ({px}, {py}) @ phi={phi}")
    print(
        f"chip        : theta1={run.theta1_rad:.6f}  "
        f"theta2={run.theta2_rad:.6f}  theta3={run.theta3_rad:.6f}"
    )
    print(
        f"algorithmic : theta1={ref.theta1_rad:.6f}  "
        f"theta2={ref.theta2_rad:.6f}  theta3={ref.theta3_rad:.6f}"
    )
    exact = (run.theta1, run.theta2, run.theta3) == (
        ref.theta1, ref.theta2, ref.theta3,
    )
    print(f"bit-exact   : {exact}")
    print(f"FK check    : ({fx:.5f}, {fy:.5f}) @ {fphi:.5f}")
    print(
        f"simulation  : {run.simulation.stats.delta_cycles} delta cycles, "
        f"{len(run.simulation.conflicts)} conflicts"
    )
    assertions_ok = _emit_iks_observe(args, run.simulation, obs)
    return 0 if (run.clean and exact and assertions_ok) else 1


def cmd_plan(args) -> int:
    """`repro plan`: lower a model and print the Plan IR summary.

    The model goes through the exact pipeline every compiled backend
    elaborates with (:func:`repro.engine.plan.lower`), so the printed
    digest is the cache key a ``--plan-cache`` run would use.
    ``--emit-code`` prints the specialized executor source the
    ``compiled-py`` backend generates from the plan; ``--gc`` prunes
    stale/foreign cache entries instead of lowering anything.
    """
    from .engine.plan import resolve_plan

    if args.gc:
        if args.file is not None or args.digest or args.json \
                or args.emit_code:
            raise ValueError(
                "--gc takes no model file and no inspection flags"
            )
        return _plan_gc(args)
    if args.file is None:
        raise ValueError("a model JSON file is required (or use --gc)")
    model = load_model(args.file)
    handle = resolve_plan(model, plan_cache=args.plan_cache)
    plan = handle.plan
    if args.digest:
        print(plan.digest)
        return 0
    if args.emit_code:
        from .engine.codegen import generate_source, model_op_arities

        print(generate_source(plan, model_op_arities(model, plan)))
        return 0
    if args.json:
        import json

        print(json.dumps(plan.summary(), indent=2))
    else:
        print(plan.describe())
    if handle.source != "off":
        print(
            f"-- plan_cache: {handle.source} "
            f"build_ms={handle.build_ms:.2f}"
        )
    return 0


def _plan_gc(args) -> int:
    """`repro plan --gc`: prune the on-disk plan + codegen caches."""
    from .engine.codegen import gc_caches
    from .engine.plan import default_cache_root

    root = args.plan_cache if isinstance(args.plan_cache, str) \
        else default_cache_root()
    report = gc_caches(root)
    for kind in ("plans", "codegen"):
        stat = report[kind]
        print(
            f"{kind}: kept {stat['kept']}, removed {stat['removed']}"
        )
        for name in stat["removed_names"][:16]:
            print(f"  removed {name}")
        extra = len(stat["removed_names"]) - 16
        if extra > 0:
            print(f"  ... and {extra} more")
    return 0


def cmd_cover(args) -> int:
    """`repro cover`: measure a model's structural coverage.

    One run under the selected backend (or one batched sweep with
    ``--batch``), reported against the Plan-derived universe --
    transfers, (CS, PH) cells, port value classes and conflict pairs.
    The numbers are backend-identical, so the backend choice is purely
    about execution cost.  ``--cover-db`` accumulates runs across
    processes (content-addressed by model digest); ``--cover-min``
    turns the overall percentage into an exit-status gate for CI.
    """
    from .observe import measure_coverage

    _validate_backend_flags(args, allow_batched=True)
    model = load_model(args.file)
    overrides = {}
    for item in args.set:
        name, eq, value = item.partition("=")
        if not eq:
            raise ValueError(f"--set expects REG=VALUE, got {item!r}")
        overrides[name] = int(value)
    if args.backend != "compiled-batched":
        if args.batch is not None or args.seed is not None or args.per_lane:
            raise ValueError(
                "--batch/--seed/--per-lane require a batched backend "
                "(compiled-batched)"
            )
        report = measure_coverage(
            model,
            backend=args.backend,
            register_values=overrides or None,
            transfer_engine=not args.no_transfer_engine,
            plan_cache=_plan_cache_arg(args),
        )
    else:
        import random

        count = args.batch if args.batch is not None else 1
        if count < 1:
            raise ValueError(f"--batch must be >= 1, got {count}")
        if args.seed is not None:
            rng = random.Random(args.seed)
            vectors = [
                {
                    name: rng.randrange(0, 1 << model.width)
                    for name in model.registers
                }
                for _ in range(count)
            ]
        else:
            vectors = [dict(overrides) for _ in range(count)]
        reports = measure_coverage(
            model,
            backend=args.backend,
            register_values=vectors,
            per_lane=True,
            plan_cache=_plan_cache_arg(args),
        )
        if args.per_lane:
            for i, lane in enumerate(reports):
                print(
                    f"lane {i}: {lane.hit_count}/{lane.point_count} "
                    f"({100.0 * lane.coverage:.1f}%)"
                )
        report = reports[0]
        for lane in reports[1:]:
            report = report.merge(lane)
    return 0 if _emit_coverage_report(args, report) else 1


def cmd_metrics(args) -> int:
    """`repro metrics`: export the process metrics registry.

    Metrics live per process, so the optional model file runs first in
    *this* process and the exposition then carries that run's samples
    (plan-cache verdicts, per-backend run counters).  Long-lived
    embedders export :data:`repro.observe.REGISTRY` directly.
    """
    from .observe import REGISTRY

    if args.file is not None:
        _validate_backend_flags(args)
        model = load_model(args.file)
        sim = model.elaborate(
            backend=args.backend,
            transfer_engine=not args.no_transfer_engine,
            plan_cache=_plan_cache_arg(args),
        ).run()
        _print_plan_line(sim)
        _print_codegen_line(sim)
    text = (
        REGISTRY.to_json(indent=2) if args.json
        else REGISTRY.to_prometheus()
    )
    if not text.endswith("\n"):
        text += "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"-- wrote {args.out}")
    else:
        print(text, end="")
    return 0


def cmd_report(args) -> int:
    from .observe import RunReport

    report = RunReport.from_jsonl(args.file)
    if args.json:
        print(report.to_json(indent=2))
    else:
        print(report.render())
    return 0


def cmd_watch(args) -> int:
    """`repro watch`: tail the live records of a running `repro serve`.

    Subscribes to the service's WebSocket ``watch`` op and prints one
    line per conflict or violation record (the JSON record with
    ``--raw``) until ``--max-events``, ``--timeout`` seconds without a
    record, or the server closing."""
    import asyncio

    from .observe import format_event
    from .serve.client import WsClient, parse_endpoint
    from .serve.protocol import dump_record

    host, port = parse_endpoint(args.endpoint)
    if args.max_events is not None and args.max_events < 1:
        raise ValueError(f"--max-events must be >= 1, got {args.max_events}")
    count = 0
    with WsClient(host, port, timeout=args.timeout) as client:
        client.send({"op": "watch"})
        while args.max_events is None or count < args.max_events:
            try:
                record = client.recv(timeout=args.timeout)
            except asyncio.TimeoutError:
                break
            if record is None:
                break
            if record.get("event") == "watching":
                continue
            print(dump_record(record) if args.raw else format_event(record),
                  flush=True)
            count += 1
    print(f"-- watch closed after {count} events", file=sys.stderr)
    return 0


def cmd_serve(args) -> int:
    """`repro serve`: the batching simulation service, until Ctrl-C.

    Boots :class:`repro.serve.ServeServer` on its own event-loop
    thread and blocks; SIGINT *or* SIGTERM (what process managers
    send) triggers the graceful drain (in-flight sweeps finish inside
    ``--drain-timeout``, new requests are rejected with 503
    ``closing``).
    """
    import signal
    import threading

    from .serve import serve_in_thread

    handle = serve_in_thread(
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        max_pending=args.max_pending,
        batch_window_ms=args.batch_window_ms,
        plan_cache=args.plan_cache,
        max_models=args.max_models,
        drain_timeout=args.drain_timeout,
        access_log=args.access_log,
        trace_out=args.trace_out,
        flight_dir=args.flight_dir,
        flight_size=args.flight_size,
    )
    host, port = handle.address
    print(
        f"-- repro serve on http://{host}:{port} "
        f"(backend {handle.server.engine.backend}, "
        f"max_batch {args.max_batch}, max_pending {args.max_pending})",
        file=sys.stderr,
    )
    # Block until a shutdown signal.  SIGINT arrives as
    # KeyboardInterrupt; SIGTERM would otherwise take the default
    # handler and kill the process without draining, so route it to
    # the same path (main thread only — the server loop runs on its
    # own daemon thread).
    stop = threading.Event()
    previous = signal.signal(signal.SIGTERM, lambda signum, frame: stop.set())
    # SIGUSR1 dumps the flight recorder (recent requests + health
    # snapshot) without disturbing the server -- the operator's
    # "what just happened" button.
    previous_usr1 = None
    if hasattr(signal, "SIGUSR1"):
        def _dump(signum, frame):
            path = handle.server.dump_flight("sigusr1", force=True)
            print(f"-- flight recorder dumped to {path}", file=sys.stderr)

        previous_usr1 = signal.signal(signal.SIGUSR1, _dump)
    try:
        while not stop.wait(3600):
            pass
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        if previous_usr1 is not None:
            signal.signal(signal.SIGUSR1, previous_usr1)
    print("-- draining in-flight sweeps...", file=sys.stderr)
    drained = handle.close()
    print(
        f"-- shut down ({'drained' if drained else 'drain timed out'})",
        file=sys.stderr,
    )
    return 0


def _top_buckets(parsed: dict, family: str, **labels: str) -> dict:
    """Cumulative ``le`` buckets of one histogram label set."""
    buckets: dict = {}
    for sample in parsed.get(f"{family}_bucket", {}).get("samples", []):
        row = sample["labels"]
        if any(row.get(k) != v for k, v in labels.items()):
            continue
        buckets[float(row["le"])] = sample["value"]
    return buckets


def _top_counter(parsed: dict, family: str, **labels: str) -> float:
    total = 0.0
    for sample in parsed.get(family, {}).get("samples", []):
        row = sample["labels"]
        if any(row.get(k) != v for k, v in labels.items()):
            continue
        total += sample["value"]
    return total


def _top_render(parsed: dict, prev: dict, elapsed: float) -> str:
    """One dashboard frame from a parsed /v1/metrics scrape.

    ``prev`` maps op -> the previous scrape's request total, so rps is
    a true rate over the poll window, not a lifetime average."""
    from .observe.metrics import histogram_quantile

    ops = sorted({
        sample["labels"]["op"]
        for sample in parsed.get("repro_serve_requests_total", {}).get(
            "samples", []
        )
    })
    lines = [
        f"{'OP':<10} {'TOTAL':>8} {'RPS':>8} {'P50 MS':>9} "
        f"{'P99 MS':>9} {'ERRORS':>7}"
    ]
    for op in ops:
        total = _top_counter(parsed, "repro_serve_requests_total", op=op)
        ok = _top_counter(
            parsed, "repro_serve_requests_total", op=op, code="ok"
        )
        rps = max(0.0, total - prev.get(op, 0.0)) / elapsed if elapsed else 0.0
        prev[op] = total
        buckets = _top_buckets(parsed, "repro_serve_request_ms", op=op)
        p50 = histogram_quantile(buckets, 0.50) if buckets else 0.0
        p99 = histogram_quantile(buckets, 0.99) if buckets else 0.0
        lines.append(
            f"{op:<10} {int(total):>8} {rps:>8.1f} {p50:>9.3f} "
            f"{p99:>9.3f} {int(total - ok):>7}"
        )
    hits = _top_counter(parsed, "repro_serve_models_total", outcome="hit")
    submits = _top_counter(parsed, "repro_serve_models_total")
    depth = _top_counter(parsed, "repro_serve_queue_depth")
    rejected = _top_counter(parsed, "repro_serve_rejections_total")
    sweeps = _top_counter(parsed, "repro_serve_sweeps_total")
    hit_rate = f"{100.0 * hits / submits:.1f}%" if submits else "n/a"
    lines.append(
        f"cache hit {hit_rate} ({int(hits)}/{int(submits)})  "
        f"queue depth {int(depth)}  rejections {int(rejected)}  "
        f"sweeps {int(sweeps)}"
    )
    return "\n".join(lines)


def cmd_top(args) -> int:
    """`repro top`: a live table over the service's /v1/metrics.

    Polls every ``--interval`` seconds and renders per-op request
    totals, rps over the window, p50/p99 latency (upper-bound
    estimates from the histogram buckets), cache hit rate, queue depth
    and rejection counts.  ``--iterations N`` bounds the run (scripts,
    tests); the default polls until Ctrl-C.
    """
    import time

    from .observe.metrics import parse_prometheus
    from .serve.client import ServeClient, ServeClientError

    prev: dict = {}
    last_poll = None
    count = 0
    try:
        with ServeClient(args.host, args.port) as client:
            while True:
                try:
                    text = client.metrics()
                except (ServeClientError, ConnectionError, OSError) as exc:
                    print(
                        f"repro top: cannot scrape "
                        f"http://{args.host}:{args.port}/v1/metrics: {exc}",
                        file=sys.stderr,
                    )
                    return 1
                now = time.perf_counter()
                elapsed = (now - last_poll) if last_poll is not None else 0.0
                last_poll = now
                frame = _top_render(parse_prometheus(text), prev, elapsed)
                if not args.no_clear:
                    print("\x1b[2J\x1b[H", end="")
                print(f"repro top -- http://{args.host}:{args.port}")
                print(frame, flush=True)
                count += 1
                if args.iterations and count >= args.iterations:
                    return 0
                time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _bench_default_model():
    """The paper's Fig. 1 example (R1 + R2 -> R1 in steps 5/6)."""
    from .core import ModuleSpec, RTModel

    model = RTModel("example", cs_max=7)
    model.register("R1", init=2)
    model.register("R2", init=3)
    model.bus("B1")
    model.bus("B2")
    model.module(ModuleSpec("ADD", latency=1))
    model.add_transfer("(R1,B1,R2,B2,5,ADD,6,B1,R1)")
    return model


def _bench_write_record(record: dict, out: str) -> str:
    """Write a benchmark record, creating parent directories.

    Returns the resolved path actually written, so callers (and CI
    logs) always name the real location instead of a CWD-relative
    guess.
    """
    import json
    from pathlib import Path

    out_path = Path(out).resolve()
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    return str(out_path)


def cmd_bench(args) -> int:
    """Batched-vs-sequential sweep: the repo's recorded perf trajectory.

    Runs ``--vectors`` random register-value vectors through N
    sequential ``compiled`` elaborations and through one
    ``compiled-batched`` run, verifies the results are identical, and
    writes a JSON record (vectors/sec per backend, speedup, model
    size) -- the artifact CI uploads as ``BENCH_batched.json``.

    ``--codegen`` switches to the generated-executor benchmark: the
    ``compiled-py`` backend vs the ``compiled`` interpreter on Fig. 1
    and the E6 IKS chip, recorded as ``BENCH_codegen.json`` (see
    :func:`_bench_codegen`).

    The service and the plan and codegen cache tiers are measured end
    to end and layer by layer by ``perfbench/`` (see its README).
    """
    import random
    import time

    if args.codegen:
        return _bench_codegen(args)
    if args.vectors < 1:
        raise ValueError(f"--vectors must be >= 1, got {args.vectors}")
    if args.model:
        model = load_model(args.model)
        model_name = model.name
    else:
        model = _bench_default_model()
        model_name = "fig1 (built-in)"
    rng = random.Random(args.seed)
    vectors = [
        {
            name: rng.randrange(0, 1 << model.width)
            for name in model.registers
        }
        for _ in range(args.vectors)
    ]

    from .engine import run_metrics

    t0 = time.perf_counter()
    sequential = [
        model.elaborate(register_values=vec, backend="compiled").run()
        for vec in vectors
    ]
    seq_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    batched = model.elaborate(
        register_values=vectors, backend="compiled-batched"
    ).run()
    batch_wall = time.perf_counter() - t0

    # Each read of a batch view builds all N lanes: read each once.
    batched_registers = batched.registers
    batched_clean = batched.clean_mask
    mismatches = [
        i
        for i, sim in enumerate(sequential)
        if batched_registers[i] != sim.registers
        or bool(batched_clean[i]) != sim.clean
    ]
    if mismatches:
        print(
            f"error: batched results differ from sequential runs for "
            f"vectors {mismatches[:8]}",
            file=sys.stderr,
        )
        return 1

    seq_rate = args.vectors / seq_wall if seq_wall > 0 else float("inf")
    batch_rate = args.vectors / batch_wall if batch_wall > 0 else float("inf")
    speedup = seq_wall / batch_wall if batch_wall > 0 else float("inf")
    record = {
        "benchmark": "batched-vs-sequential",
        "model": _bench_model_record(model, model_name),
        "vectors": args.vectors,
        "seed": args.seed,
        "sequential": {
            "backend": "compiled",
            "wall": seq_wall,
            "vectors_per_sec": seq_rate,
        },
        "batched": {
            "backend": "compiled-batched",
            "wall": batch_wall,
            "vectors_per_sec": batch_rate,
            "metrics": run_metrics(batched, wall=batch_wall),
        },
        "speedup": speedup,
    }
    written = _bench_write_record(record, args.out or "BENCH_batched.json")
    print(
        f"{model_name}: {args.vectors} vectors -- sequential "
        f"{seq_rate:,.0f} vec/s, batched {batch_rate:,.0f} vec/s, "
        f"speedup {speedup:.1f}x"
    )
    print(f"-- wrote {written}")
    return 0


def _bench_model_record(model, model_name: str) -> dict:
    return {
        "name": model_name,
        "cs_max": model.cs_max,
        "width": model.width,
        "registers": len(model.registers),
        "buses": len(model.buses),
        "modules": len(model.modules),
        "transfers": len(model.trans_specs()),
    }


def _bench_codegen(args) -> int:
    """`repro bench --codegen`: generated executor vs the interpreter.

    Two cases -- the paper's Fig. 1 example and the E6 IKS chip --
    each run best-of ``--repeat`` on the ``compiled`` interpreter and
    on ``compiled-py`` (plain exec; elaboration and codegen resolution
    excluded from the timed interval, like every bench here), verified
    bit-identical (registers, conflicts, all stats counters) before the
    ratio is recorded.  A fresh temporary artifact cache measures the
    cold generate cost and the warm ``codegen_build_ms`` an on-disk
    codegen artifact hit replaces it with.  The record lands in
    ``BENCH_codegen.json`` -- the artifact CI gates with
    ``tools/check_bench_regression.py``; the top-level ``speedup`` is
    the weaker of the two cases.
    """
    import tempfile
    import time

    if args.repeat < 1:
        raise ValueError(f"--repeat must be >= 1, got {args.repeat}")
    if args.model:
        cases = [(load_model(args.model), args.model)]
    else:
        from .iks.flow import build_ik_model

        cases = [
            (_bench_default_model(), "fig1 (built-in)"),
            (build_ik_model(2.5, 1.0)[0], "iks E6 (built-in)"),
        ]

    from .engine import run_metrics

    def best_run(model, backend, **kwargs):
        # One untimed warmup: the first pass through freshly exec'd
        # code objects pays the interpreter's adaptive-specialization
        # cost, which a long-lived process amortizes away.
        model.elaborate(backend=backend, **kwargs).run()
        best_wall, best_sim = None, None
        for _ in range(args.repeat):
            sim = model.elaborate(backend=backend, **kwargs)
            t0 = time.perf_counter()
            sim.run()
            wall = time.perf_counter() - t0
            if best_wall is None or wall < best_wall:
                best_wall, best_sim = wall, sim
        return best_wall, best_sim

    case_records = []
    for model, model_name in cases:
        # Cold generate vs warm on-disk codegen artifact hit, against a
        # fresh cache -- measured first, before the timed runs fill the
        # in-process memo, so `cold` prices a real generate + compile
        # and `warm` an honest artifact load (the disk-first read
        # bypasses the memo either way).
        with tempfile.TemporaryDirectory() as tmp:
            cold_sim = model.elaborate(
                backend="compiled-py", plan_cache=tmp
            )
            warm_sim = model.elaborate(
                backend="compiled-py", plan_cache=tmp
            )
        if (cold_sim.codegen_cache_state, warm_sim.codegen_cache_state) \
                != ("miss", "hit"):
            print(
                f"error: expected miss-then-hit against a fresh cache "
                f"on {model_name}, got "
                f"{cold_sim.codegen_cache_state}/"
                f"{warm_sim.codegen_cache_state}",
                file=sys.stderr,
            )
            return 1
        base_wall, base_sim = best_run(model, "compiled")
        gen_wall, gen_sim = best_run(model, "compiled-py")
        if gen_sim.codegen_mode == "interpreter":
            print(
                f"error: compiled-py fell back to the interpreter on "
                f"{model_name}",
                file=sys.stderr,
            )
            return 1
        same = (
            gen_sim.registers == base_sim.registers
            and gen_sim.clean == base_sim.clean
            and vars(gen_sim.stats) == vars(base_sim.stats)
            and [(e.signal, e.at) for e in gen_sim.conflicts]
            == [(e.signal, e.at) for e in base_sim.conflicts]
        )
        if not same:
            print(
                f"error: compiled-py results differ from compiled on "
                f"{model_name}",
                file=sys.stderr,
            )
            return 1
        speedup = base_wall / gen_wall if gen_wall > 0 else float("inf")
        case_records.append({
            "model": _bench_model_record(model, model_name),
            "compiled": {
                "backend": "compiled",
                "wall": base_wall,
                "metrics": run_metrics(base_sim, wall=base_wall),
            },
            "codegen": {
                "backend": "compiled-py",
                "wall": gen_wall,
                "mode": gen_sim.codegen_mode,
                "cold_build_ms": cold_sim.codegen_build_ms,
                "warm_build_ms": warm_sim.codegen_build_ms,
                "metrics": run_metrics(gen_sim, wall=gen_wall),
            },
            "speedup": speedup,
        })
        print(
            f"{model_name}: compiled {base_wall * 1e6:.1f} us, "
            f"compiled-py {gen_wall * 1e6:.1f} us "
            f"({gen_sim.codegen_mode}), speedup {speedup:.2f}x "
            f"(cold build {cold_sim.codegen_build_ms:.1f} ms, warm "
            f"{warm_sim.codegen_build_ms:.2f} ms)"
        )
    record = {
        "benchmark": "codegen-vs-compiled",
        "repeat": args.repeat,
        "cases": case_records,
        "speedup": min(c["speedup"] for c in case_records),
    }
    written = _bench_write_record(record, args.out or "BENCH_codegen.json")
    print(f"-- wrote {written}")
    return 0


def _write_output(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"-- wrote {output}", file=sys.stderr)
    else:
        print(text)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
