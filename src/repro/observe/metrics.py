"""Process-wide typed metrics registry (counters, gauges, histograms).

One :class:`MetricsRegistry` instance -- the module-level
:data:`REGISTRY` -- collects operational counters from every layer
that wants to report them: the plan cache (hits, misses, build
milliseconds), the simulation backends (runs, control steps,
dispatches, batch lanes) and the simulation service
(:mod:`repro.serve`: requests, sweeps, rejections, per-stage
latencies).  The registry is the machine-facing twin of
:func:`repro.engine.run_metrics`: ``run_metrics`` renders *one run* as
a human-readable row, the registry accumulates *the process* so a
campaign sweeping hundreds of runs has one scrape surface.

Exposition formats:

* :meth:`MetricsRegistry.to_prometheus` -- the Prometheus text
  exposition format (``# HELP`` / ``# TYPE`` + samples; histograms
  expand to ``_bucket{le=...}`` / ``_sum`` / ``_count`` series);
* :meth:`MetricsRegistry.to_dict` -- the same content as JSON-ready
  dictionaries;
* :func:`parse_prometheus` -- a small parser for the text format, so
  dumps round-trip in tests and ``repro metrics FILE`` can re-render a
  scrape.

Instrumentation discipline: every hook in the engine fires **once per
run** (or once per cache resolution, served request or sweep), never
inside the per-cycle loop -- the disabled-observer hot path stays
structurally free (checked by the E6 overhead benchmark) and the
enabled cost is one dictionary update per run.

All mutation is guarded by one registry lock; the service's event-loop
thread, the main thread and library callers' threads may report
concurrently.
"""

from __future__ import annotations

import json
import re
import threading
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = [
    "REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsError",
    "histogram_quantile",
    "parse_prometheus",
    "record_backend_run",
    "record_codegen_request",
    "record_plan_resolution",
    "record_serve_batch",
    "record_serve_deadline_budget",
    "record_serve_model",
    "record_serve_rejection",
    "record_serve_request",
    "record_serve_stage",
    "serve_models",
    "serve_queue_depth",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets, tuned for millisecond timings (the plan
#: cache reports build_ms; sub-ms lowering and multi-second cold E6
#: lowering both land inside the range).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0,
    50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0,
)


class MetricsError(ValueError):
    """Raised for invalid metric names, labels or kind mismatches."""


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')
    )


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _label_suffix(labelnames: Tuple[str, ...], values: Tuple[str, ...],
                  extra: Optional[Tuple[Tuple[str, str], ...]] = None) -> str:
    pairs = list(zip(labelnames, values))
    if extra:
        pairs.extend(extra)
    if not pairs:
        return ""
    body = ",".join(
        f'{name}="{_escape_label(value)}"' for name, value in pairs
    )
    return "{" + body + "}"


class _Child:
    """One labelled series of a metric family."""

    __slots__ = ("_lock",)

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock


class Counter(_Child):
    """A monotonically increasing count."""

    __slots__ = ("_value",)

    kind = "counter"

    def __init__(self, lock: threading.Lock) -> None:
        super().__init__(lock)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricsError("counters can only increase")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge(_Child):
    """A value that can go up and down."""

    __slots__ = ("_value",)

    kind = "gauge"

    def __init__(self, lock: threading.Lock) -> None:
        super().__init__(lock)
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram(_Child):
    """Cumulative-bucket histogram of observed values."""

    __slots__ = ("buckets", "_counts", "_sum", "_count")

    kind = "histogram"

    def __init__(
        self, lock: threading.Lock, buckets: Tuple[float, ...]
    ) -> None:
        super().__init__(lock)
        self.buckets = buckets
        self._counts = [0] * len(buckets)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        with self._lock:
            self._sum += value
            self._count += 1
            # Per-bucket counts; the exposition renders the cumulative
            # `le` series Prometheus expects.
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    self._counts[i] += 1
                    break

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def snapshot(self) -> Tuple[List[int], float, int]:
        with self._lock:
            return list(self._counts), self._sum, self._count


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class _Family:
    """A named metric plus all of its labelled children."""

    def __init__(
        self,
        name: str,
        help_text: str,
        kind: str,
        labelnames: Tuple[str, ...],
        lock: threading.Lock,
        buckets: Tuple[float, ...],
    ) -> None:
        self.name = name
        self.help = help_text
        self.kind = kind
        self.labelnames = labelnames
        self.buckets = buckets
        self._lock = lock
        self._children: Dict[Tuple[str, ...], _Child] = {}
        if not labelnames:
            self._default = self._make_child()
            self._children[()] = self._default
        else:
            self._default = None

    def _make_child(self) -> _Child:
        if self.kind == "histogram":
            return Histogram(self._lock, self.buckets)
        return _KINDS[self.kind](self._lock)

    def labels(self, **labelvalues: str) -> Any:
        if set(labelvalues) != set(self.labelnames):
            raise MetricsError(
                f"metric {self.name!r} takes labels "
                f"{list(self.labelnames)}, got {sorted(labelvalues)}"
            )
        key = tuple(str(labelvalues[name]) for name in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._make_child()
                self._children[key] = child
        return child

    # Unlabelled convenience: family acts as its only child.
    def _only(self) -> _Child:
        if self._default is None:
            raise MetricsError(
                f"metric {self.name!r} is labelled "
                f"({list(self.labelnames)}); call .labels(...) first"
            )
        return self._default

    def inc(self, amount: float = 1.0) -> None:
        self._only().inc(amount)  # type: ignore[attr-defined]

    def dec(self, amount: float = 1.0) -> None:
        self._only().dec(amount)  # type: ignore[attr-defined]

    def set(self, value: float) -> None:
        self._only().set(value)  # type: ignore[attr-defined]

    def observe(self, value: float) -> None:
        self._only().observe(value)  # type: ignore[attr-defined]

    @property
    def value(self) -> float:
        return self._only().value  # type: ignore[attr-defined]

    def children(self) -> List[Tuple[Tuple[str, ...], _Child]]:
        with self._lock:
            return sorted(self._children.items())


class MetricsRegistry:
    """A named collection of typed metric families."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}
        #: Bumped by reset(); lets hot callers memoize labelled children
        #: safely (a stale memo entry would resurrect dropped families).
        self.generation = 0

    # ------------------------------------------------------------------
    # declaration
    # ------------------------------------------------------------------
    def _declare(
        self,
        name: str,
        help_text: str,
        kind: str,
        labelnames: Iterable[str],
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> _Family:
        if not _NAME_RE.match(name):
            raise MetricsError(f"invalid metric name {name!r}")
        names = tuple(labelnames)
        for label in names:
            if not _LABEL_RE.match(label):
                raise MetricsError(f"invalid label name {label!r}")
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind or family.labelnames != names:
                    raise MetricsError(
                        f"metric {name!r} already declared as "
                        f"{family.kind} with labels "
                        f"{list(family.labelnames)}"
                    )
                return family
            family = _Family(
                name, help_text, kind, names, threading.Lock(), buckets
            )
            self._families[name] = family
            return family

    def counter(
        self, name: str, help_text: str = "",
        labelnames: Iterable[str] = (),
    ) -> _Family:
        """Declare (or fetch) a counter family."""
        return self._declare(name, help_text, "counter", labelnames)

    def gauge(
        self, name: str, help_text: str = "",
        labelnames: Iterable[str] = (),
    ) -> _Family:
        """Declare (or fetch) a gauge family."""
        return self._declare(name, help_text, "gauge", labelnames)

    def histogram(
        self, name: str, help_text: str = "",
        labelnames: Iterable[str] = (),
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> _Family:
        """Declare (or fetch) a histogram family."""
        return self._declare(
            name, help_text, "histogram", labelnames, buckets
        )

    def reset(self) -> None:
        """Drop every family (tests; a fresh process-equivalent state)."""
        with self._lock:
            self._families.clear()
            self.generation += 1

    def families(self) -> List[_Family]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    # ------------------------------------------------------------------
    # exposition
    # ------------------------------------------------------------------
    def to_prometheus(self) -> str:
        """Render as the Prometheus text exposition format."""
        lines: List[str] = []
        for family in self.families():
            lines.append(
                f"# HELP {family.name} {_escape_help(family.help)}"
            )
            lines.append(f"# TYPE {family.name} {family.kind}")
            for key, child in family.children():
                suffix = _label_suffix(family.labelnames, key)
                if isinstance(child, Histogram):
                    counts, total, count = child.snapshot()
                    running = 0
                    for bound, in_bucket in zip(child.buckets, counts):
                        running += in_bucket
                        le = _label_suffix(
                            family.labelnames, key,
                            extra=(("le", _format_value(bound)),),
                        )
                        lines.append(
                            f"{family.name}_bucket{le} {running}"
                        )
                    inf = _label_suffix(
                        family.labelnames, key, extra=(("le", "+Inf"),)
                    )
                    lines.append(f"{family.name}_bucket{inf} {count}")
                    lines.append(
                        f"{family.name}_sum{suffix} {_format_value(total)}"
                    )
                    lines.append(f"{family.name}_count{suffix} {count}")
                else:
                    lines.append(
                        f"{family.name}{suffix} "
                        f"{_format_value(child.value)}"  # type: ignore[attr-defined]
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def to_dict(self) -> Dict[str, Any]:
        """Render as JSON-ready dictionaries (one entry per family)."""
        out: Dict[str, Any] = {}
        for family in self.families():
            samples: List[Dict[str, Any]] = []
            for key, child in family.children():
                labels = dict(zip(family.labelnames, key))
                if isinstance(child, Histogram):
                    counts, total, count = child.snapshot()
                    samples.append({
                        "labels": labels,
                        "buckets": {
                            _format_value(bound): running
                            for bound, running in zip(
                                child.buckets,
                                _cumulative(counts),
                            )
                        },
                        "sum": total,
                        "count": count,
                    })
                else:
                    samples.append({
                        "labels": labels,
                        "value": child.value,  # type: ignore[attr-defined]
                    })
            out[family.name] = {
                "type": family.kind,
                "help": family.help,
                "samples": samples,
            }
        return out

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def _cumulative(counts: List[int]) -> List[int]:
    out: List[int] = []
    running = 0
    for c in counts:
        running += c
        out.append(running)
    return out


#: The process-wide registry every engine hook reports into.
REGISTRY = MetricsRegistry()


# ----------------------------------------------------------------------
# parsing (round-trips the text exposition format)
# ----------------------------------------------------------------------
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)\s*$"
)
_LABEL_PAIR_RE = re.compile(
    r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"'
)


def _unescape_label(value: str) -> str:
    return (
        value.replace('\\"', '"').replace("\\n", "\n").replace("\\\\", "\\")
    )


def _parse_number(text: str) -> float:
    if text == "+Inf":
        return float("inf")
    if text == "-Inf":
        return float("-inf")
    return float(text)


def parse_prometheus(text: str) -> Dict[str, Any]:
    """Parse Prometheus text exposition back into dictionaries.

    Returns ``{metric_name: {"type": kind_or_None, "help": str,
    "samples": [{"labels": {...}, "value": float}, ...]}}`` where
    histogram series appear under their expanded sample names
    (``*_bucket`` / ``*_sum`` / ``*_count``), exactly as exposed.
    Raises :class:`MetricsError` on malformed lines, so a test that
    parses :meth:`MetricsRegistry.to_prometheus` output validates the
    format end to end.
    """
    metrics: Dict[str, Any] = {}
    types: Dict[str, str] = {}
    helps: Dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            rest = line[len("# HELP "):]
            name, _, help_text = rest.partition(" ")
            if name in helps:
                # Exposition hygiene: HELP/TYPE belong to the family,
                # exactly once, no matter how many label sets it has.
                raise MetricsError(
                    f"line {line_no}: duplicate # HELP for {name!r}"
                )
            helps[name] = help_text
            continue
        if line.startswith("# TYPE "):
            rest = line[len("# TYPE "):]
            name, _, kind = rest.partition(" ")
            kind = kind.strip()
            if kind not in _KINDS:
                raise MetricsError(
                    f"line {line_no}: unknown metric type {kind!r}"
                )
            if name in types:
                raise MetricsError(
                    f"line {line_no}: duplicate # TYPE for {name!r}"
                )
            types[name] = kind
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            raise MetricsError(f"line {line_no}: malformed sample {raw!r}")
        name = match.group("name")
        labels: Dict[str, str] = {}
        label_body = match.group("labels")
        if label_body:
            consumed = 0
            for pair in _LABEL_PAIR_RE.finditer(label_body):
                labels[pair.group(1)] = _unescape_label(pair.group(2))
                consumed += 1
            if consumed == 0:
                raise MetricsError(
                    f"line {line_no}: malformed labels {label_body!r}"
                )
        try:
            value = _parse_number(match.group("value"))
        except ValueError:
            raise MetricsError(
                f"line {line_no}: malformed value "
                f"{match.group('value')!r}"
            ) from None
        entry = metrics.setdefault(
            name, {"type": None, "help": "", "samples": []}
        )
        entry["samples"].append({"labels": labels, "value": value})
    for name, entry in metrics.items():
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            trimmed = name[: -len(suffix)] if name.endswith(suffix) else None
            if trimmed and types.get(trimmed) == "histogram":
                base = trimmed
                break
        entry["type"] = types.get(name, types.get(base))
        entry["help"] = helps.get(name, helps.get(base, ""))
    return metrics


def histogram_quantile(
    buckets: Mapping[float, float], quantile: float
) -> float:
    """Upper-bound quantile estimate from cumulative ``le`` buckets.

    ``buckets`` maps bucket upper bounds (including ``inf`` for the
    ``+Inf`` series) to cumulative counts -- the shape a scraped
    ``*_bucket`` family parses into.  Returns the smallest bound whose
    cumulative count covers the quantile; a quantile landing in the
    ``+Inf`` bucket reports the largest finite bound (the estimate is
    then a floor, which is the honest direction for a tail latency).
    """
    if not 0.0 <= quantile <= 1.0:
        raise MetricsError(f"quantile must be in [0, 1], got {quantile}")
    items = sorted(buckets.items())
    if not items:
        return 0.0
    total = items[-1][1]
    if total <= 0:
        return 0.0
    target = quantile * total
    finite = [bound for bound, _ in items if bound != float("inf")]
    for bound, cumulative in items:
        if cumulative >= target:
            if bound == float("inf"):
                break
            return bound
    return finite[-1] if finite else float("inf")


# ----------------------------------------------------------------------
# engine hooks (each fires once per run / resolution / shutdown)
# ----------------------------------------------------------------------
def record_plan_resolution(source: str, build_ms: float) -> None:
    """Report one :func:`repro.engine.plan.resolve_plan` outcome."""
    REGISTRY.counter(
        "repro_plan_requests_total",
        "Plan resolutions by outcome (hit/miss/off/given).",
        ("source",),
    ).labels(source=source).inc()
    REGISTRY.histogram(
        "repro_plan_build_ms",
        "Wall milliseconds spent resolving a Plan (digest + lower or "
        "unpickle).",
    ).observe(build_ms)


def record_codegen_request(source: str, build_ms: float) -> None:
    """Report one :func:`repro.engine.codegen.resolve_codegen` outcome."""
    REGISTRY.counter(
        "repro_codegen_requests_total",
        "Codegen artifact resolutions by outcome (hit/miss/off).",
        ("source",),
    ).labels(source=source).inc()
    REGISTRY.histogram(
        "repro_codegen_build_ms",
        "Wall milliseconds spent resolving a generated executor "
        "(artifact load or generate + compile + exec).",
    ).observe(build_ms)


#: Per-backend memo of the three per-run labelled children, keyed by
#: backend name and guarded by the registry generation -- declaring a
#: family and resolving its labels costs regex validation and locking
#: that would otherwise dominate sub-100us simulation runs.
_RUN_SERIES: Dict[str, Tuple[int, Any, Any, Any]] = {}


def record_backend_run(backend: Any) -> None:
    """Report one completed backend run (called at the end of run())."""
    name = getattr(backend, "backend_name", type(backend).__name__)
    cached = _RUN_SERIES.get(name)
    if cached is None or cached[0] != REGISTRY.generation:
        runs = REGISTRY.counter(
            "repro_runs_total",
            "Completed simulation runs by backend.",
            ("backend",),
        ).labels(backend=name)
        steps_series = REGISTRY.counter(
            "repro_steps_total",
            "Control steps executed by backend.",
            ("backend",),
        ).labels(backend=name)
        dispatches = REGISTRY.counter(
            "repro_dispatches_total",
            "Process dispatches (kernel resumes / compiled cycle "
            "dispatches) by backend.",
            ("backend",),
        ).labels(backend=name)
        cached = (REGISTRY.generation, runs, steps_series, dispatches)
        _RUN_SERIES[name] = cached
    _gen, runs, steps_series, dispatches = cached
    runs.inc()
    model = getattr(backend, "model", None)
    steps = getattr(model, "cs_max", 0)
    if steps:
        steps_series.inc(steps)
    stats = getattr(backend, "stats", None)
    if stats is not None:
        dispatches.inc(stats.process_resumes)
    batch_size = getattr(backend, "batch_size", None)
    if batch_size is not None:
        REGISTRY.counter(
            "repro_lanes_total",
            "Input vectors swept by batched runs.",
        ).inc(batch_size)


# ----------------------------------------------------------------------
# serve hooks (the simulation service; see repro.serve)
# ----------------------------------------------------------------------
#: Batch-occupancy buckets: lanes coalesced per sweep.
_BATCH_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
)

#: Memo of labelled serve series, keyed like :data:`_RUN_SERIES` --
#: these hooks fire on every request of a server pushing thousands of
#: requests per second, so family declaration (regex + registry lock)
#: must not sit on the hot path.
_SERVE_SERIES: Dict[Tuple[str, ...], Tuple[int, Any]] = {}


def _serve_series(key: Tuple[str, ...], build) -> Any:
    cached = _SERVE_SERIES.get(key)
    if cached is None or cached[0] != REGISTRY.generation:
        cached = (REGISTRY.generation, build())
        _SERVE_SERIES[key] = cached
    return cached[1]


def record_serve_request(op: str, code: str, latency_ms: float) -> None:
    """Report one completed service request (op: simulate/verify/submit;
    code: ``ok`` or the :data:`repro.serve.protocol.ERROR_STATUS` key)."""
    _serve_series(("requests", op, code), lambda: REGISTRY.counter(
        "repro_serve_requests_total",
        "Service requests by operation and outcome code.",
        ("op", "code"),
    ).labels(op=op, code=code)).inc()
    _serve_series(("latency", op), lambda: REGISTRY.histogram(
        "repro_serve_request_ms",
        "End-to-end request latency (parse + queue + sweep + encode).",
        ("op",),
    ).labels(op=op)).observe(latency_ms)


def record_serve_batch(lanes: int, sweep_ms: float) -> None:
    """Report one coalesced sweep (lanes = batch occupancy)."""
    _serve_series(("sweeps",), lambda: REGISTRY.counter(
        "repro_serve_sweeps_total",
        "Coalesced sweeps executed by the batching scheduler.",
    )).inc()
    _serve_series(("lanes",), lambda: REGISTRY.histogram(
        "repro_serve_batch_lanes",
        "Lanes (concurrent requests) coalesced per sweep.",
        buckets=_BATCH_BUCKETS,
    )).observe(lanes)
    _serve_series(("sweep_ms",), lambda: REGISTRY.histogram(
        "repro_serve_sweep_ms",
        "Wall milliseconds per coalesced sweep, first rider to last.",
    )).observe(sweep_ms)


#: Deadline-budget buckets: the SLO-facing fraction of a request's own
#: ``deadline_ms`` consumed by the time it resolved (>1 = blown).
_BUDGET_BUCKETS: Tuple[float, ...] = (
    0.1, 0.25, 0.5, 0.75, 0.9, 1.0, 1.5, 2.0, 5.0,
)


def record_serve_stage(stage: str, ms: float) -> None:
    """Report one per-stage request latency (parse/queue/serialize --
    the sweep stage has its own ``repro_serve_sweep_ms`` family)."""
    _serve_series(("stage", stage), lambda: REGISTRY.histogram(
        "repro_serve_stage_ms",
        "Per-stage request latency: parse (decode + validate), queue "
        "(enqueue to sweep dispatch), serialize (encode + write).",
        ("stage",),
    ).labels(stage=stage)).observe(ms)


def record_serve_deadline_budget(fraction: float) -> None:
    """Report the deadline-budget fraction one request consumed."""
    _serve_series(("budget",), lambda: REGISTRY.histogram(
        "repro_serve_deadline_budget_consumed",
        "Fraction of a request's deadline_ms consumed when it "
        "resolved; above 1.0 the deadline was blown.",
        buckets=_BUDGET_BUCKETS,
    )).observe(fraction)


def record_serve_rejection(reason: str) -> None:
    """Report one rejected/expired request (queue_full/closing/deadline)."""
    _serve_series(("rejections", reason), lambda: REGISTRY.counter(
        "repro_serve_rejections_total",
        "Requests rejected by admission control or expired deadlines.",
        ("reason",),
    ).labels(reason=reason)).inc()


def record_serve_model(cached: bool) -> None:
    """Report one model submission (cached = digest already resident)."""
    outcome = "hit" if cached else "miss"
    _serve_series(("models", outcome), lambda: REGISTRY.counter(
        "repro_serve_models_total",
        "Model submissions by cache outcome.",
        ("outcome",),
    ).labels(outcome=outcome)).inc()


def serve_queue_depth() -> Any:
    """The admitted-but-unswept request gauge (set by the scheduler)."""
    return _serve_series(("queue_depth",), lambda: REGISTRY.gauge(
        "repro_serve_queue_depth",
        "Requests admitted and waiting for (or riding) a sweep.",
    ))


def serve_models() -> Any:
    """The resident compiled-model count gauge (set by the server)."""
    return _serve_series(("resident",), lambda: REGISTRY.gauge(
        "repro_serve_models",
        "Designs resident in the in-process compiled-model cache.",
    ))

