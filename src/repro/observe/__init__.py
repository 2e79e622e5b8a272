"""`repro.observe` -- one observability surface over every backend.

The paper's localizability claim (§2.7) makes the *observation stream*
of a run -- which (control step, phase) executed, what moved over
which bus, what latched, where ILLEGAL materialized -- the primary
debugging artifact.  This package turns that stream into a uniform,
machine-readable seam across all four execution styles (event kernel,
compiled executor, clocked translation, handshake network):

* :class:`Probe` / :class:`ProbeSet` -- the callback protocol backends
  drive via the ``observe=`` elaboration hook (zero cost when absent);
* :func:`emit_canonical_cycle` -- the canonical per-cycle emission
  order, shared by every backend's probe plumbing;
* :class:`JsonlRecorder` / :class:`RunReport` -- structured JSONL event
  logs with a stable schema, aggregated into conflict timelines,
  per-resource occupancy and per-phase wall time (``repro report``);
  :func:`format_event` renders one record of that schema as a line
  (``repro watch`` over the live feed of ``repro serve``);
* :class:`AssertionMonitor` + the property catalogue (:func:`never`,
  :func:`always_at`, :func:`implies_within`, :func:`stable_between`,
  ...) -- temporal assertions evaluated online over the stream, with
  per-lane verdicts on the batched backend (``--monitor`` /
  ``--assert-file``);
* :func:`export_vcd` / :func:`parse_vcd` -- waveforms for GTKWave, with
  DISC as ``z`` and ILLEGAL as ``x``;
* :class:`Profiler` -- per-phase wall-clock profiling with a
  ``sample_every=N`` sampling mode for chip-scale sweeps, surfaced
  through ``run_metrics(backend, profile=...)`` and ``--profile``;
* :class:`CoverageModel` / :class:`CoverageProbe` /
  :class:`CoverageReport` / :class:`CoverageDB` -- structural coverage
  over the Plan IR (transfers, (CS, PH) cells, port value classes,
  conflict pairs), backend-identical and cumulative on disk
  (``repro cover`` / ``--cover``);
* :data:`~repro.observe.metrics.REGISTRY` -- the process-wide typed
  metrics registry (counters/gauges/histograms) fed by the plan cache,
  every backend and the simulation service, exported as Prometheus
  text or JSON (``repro metrics`` / ``--metrics-out``);
* :class:`SpanTracer` -- hierarchical wall-clock spans (elaborate,
  plan, run, per-step, per-phase) on the Profiler's clock, exported
  as Chrome trace-event JSON (``--trace-out``).
"""

from .attach import KernelProbeAdapter
from .log import AccessLogWriter, parse_access_log, wide_event
from .coverage import (
    CoverageDB,
    CoverageError,
    CoverageModel,
    CoverageProbe,
    CoverageReport,
    as_coverage_db,
    coverage_from_trace,
    coverage_model_for,
    measure_coverage,
)
from .emit import emit_canonical_cycle
from .metrics import (
    REGISTRY,
    MetricsError,
    MetricsRegistry,
    histogram_quantile,
    parse_prometheus,
)
from .monitor import (
    AssertionMonitor,
    AssertionReport,
    MonitorError,
    Property,
    Violation,
    always_at,
    check_model,
    default_properties,
    evaluate_trace,
    implies_within,
    load_properties,
    monitored_watch_list,
    never,
    never_illegal,
    no_conflicts,
    parse_properties,
    stable_between,
    when,
)
from .probe import Probe, ProbeSet, combine_probes
from .profiler import Profiler
from .recorder import (
    SCHEMA_VERSION,
    JsonlRecorder,
    RunReport,
    decode_value,
    encode_value,
    format_event,
    read_events,
)
from .trace import RequestContext, SpanTracer, new_trace_id
from .vcd import VCDError, VCDWave, export_vcd, parse_vcd, step_phase_tick

__all__ = [
    "KernelProbeAdapter",
    "CoverageDB",
    "CoverageError",
    "CoverageModel",
    "CoverageProbe",
    "CoverageReport",
    "as_coverage_db",
    "coverage_from_trace",
    "coverage_model_for",
    "measure_coverage",
    "REGISTRY",
    "MetricsError",
    "MetricsRegistry",
    "histogram_quantile",
    "parse_prometheus",
    "AccessLogWriter",
    "parse_access_log",
    "wide_event",
    "RequestContext",
    "SpanTracer",
    "new_trace_id",
    "Probe",
    "ProbeSet",
    "combine_probes",
    "emit_canonical_cycle",
    "Profiler",
    "JsonlRecorder",
    "RunReport",
    "SCHEMA_VERSION",
    "decode_value",
    "encode_value",
    "format_event",
    "read_events",
    "AssertionMonitor",
    "AssertionReport",
    "MonitorError",
    "Property",
    "Violation",
    "always_at",
    "check_model",
    "default_properties",
    "evaluate_trace",
    "implies_within",
    "load_properties",
    "monitored_watch_list",
    "never",
    "never_illegal",
    "no_conflicts",
    "parse_properties",
    "stable_between",
    "when",
    "VCDError",
    "VCDWave",
    "export_vcd",
    "parse_vcd",
    "step_phase_tick",
]
