"""Structured event recording and run-report aggregation.

:class:`JsonlRecorder` is a :class:`~repro.observe.probe.Probe` that
serializes the observation stream as JSON Lines -- one self-describing
object per line, with a **stable schema** (version tag on the
``run_start`` line) so logs written today remain machine-readable:

================  ====================================================
``run_start``     ``schema``, ``model``, ``backend``, ``cs_max``
``step``          ``cs``
``phase``         ``cs``, ``ph`` (vhdl name), ``t`` (seconds since start)
``bus``           ``cs``, ``ph``, ``signal``, ``value``
``latch``         ``cs``, ``ph``, ``register``, ``value``
``conflict``      ``cs``, ``ph``, ``signal``, ``drivers`` ([owner, value])
``run_end``       ``wall``, ``clean``, ``stats``, ``registers``, plus
                  ``plan_cache`` / ``plan_build_ms`` for runs through
                  the shared lowering pipeline
================  ====================================================

Values use the subset's std-logic analogues: naturals stay integers,
DISC is the string ``"z"`` and ILLEGAL the string ``"x"`` -- the same
mapping the VCD export uses, so the two artifacts read consistently.

:class:`RunReport` aggregates such a stream (live from a recorder, or
re-read from a file) into the debugging summary the model-based
diagnosis literature asks for: counters, the conflict timeline grouped
by ``(CS, PH)``, per-resource occupancy, and wall time per phase.
"""

from __future__ import annotations

import json
import time
import warnings
from dataclasses import dataclass, field
from typing import IO, Any, Dict, Iterable, List, Optional, Union

from ..core.values import DISC, ILLEGAL
from .probe import Probe

#: Schema version stamped on every ``run_start`` line.
SCHEMA_VERSION = 1


def encode_value(value: int) -> Union[int, str]:
    """JSON encoding of a subset value (DISC -> "z", ILLEGAL -> "x")."""
    if value == DISC:
        return "z"
    if value == ILLEGAL:
        return "x"
    return value


def decode_value(value: Union[int, str]) -> int:
    """Inverse of :func:`encode_value`."""
    if value == "z":
        return DISC
    if value == "x":
        return ILLEGAL
    return int(value)


def _backend_kind(backend: Any) -> Optional[str]:
    return getattr(backend, "backend_name", None)


def _model_name(backend: Any) -> Optional[str]:
    model = getattr(backend, "model", None)
    return getattr(model, "name", None)


# ----------------------------------------------------------------------
# event-dict builders -- the one place the record schema is spelled out.
# JsonlRecorder writes these to files; `repro serve` sends its conflict
# records in the same schema to WebSocket watchers, and format_event
# renders them for `repro watch`.
# ----------------------------------------------------------------------
def run_start_event(backend: Any) -> dict:
    model = getattr(backend, "model", None)
    return {
        "event": "run_start",
        "schema": SCHEMA_VERSION,
        "model": _model_name(backend),
        "backend": _backend_kind(backend),
        "cs_max": getattr(model, "cs_max", None),
    }


def step_event(step: int) -> dict:
    return {"event": "step", "cs": step}


def phase_event(at: Any, t: Optional[float] = None) -> dict:
    return {
        "event": "phase",
        "cs": at.step,
        "ph": at.phase.vhdl_name,
        "t": t,
    }


def bus_event(at: Any, bus: str, value: int) -> dict:
    return {
        "event": "bus",
        "cs": at.step if at is not None else None,
        "ph": at.phase.vhdl_name if at is not None else None,
        "signal": bus,
        "value": encode_value(value),
    }


def latch_event(at: Any, register: str, value: int) -> dict:
    return {
        "event": "latch",
        "cs": at.step if at is not None else None,
        "ph": at.phase.vhdl_name if at is not None else None,
        "register": register,
        "value": encode_value(value),
    }


def conflict_event(event: Any) -> dict:
    at = event.at
    return {
        "event": "conflict",
        "cs": at.step if at is not None else None,
        "ph": at.phase.vhdl_name if at is not None else None,
        "signal": event.signal,
        "drivers": [[owner, encode_value(value)] for owner, value in event.sources],
    }


def run_end_event(backend: Any, wall: float) -> dict:
    stats = getattr(backend, "stats", None)
    record = {
        "event": "run_end",
        "wall": wall,
        "clean": bool(getattr(backend, "clean", True)),
        "stats": {
            "cycles": stats.cycles,
            "delta_cycles": stats.delta_cycles,
            "events": stats.events,
            "process_resumes": stats.process_resumes,
            "transactions": stats.transactions,
        }
        if stats is not None
        else {},
        "registers": {
            name: encode_value(value)
            for name, value in getattr(backend, "registers", {}).items()
        },
    }
    # Backends elaborated through the shared lowering pipeline carry
    # their plan-cache verdict; record it so `repro report` can render
    # it (additive -- readers of schema 1 logs ignore absent keys).
    plan_state = getattr(backend, "plan_cache_state", None)
    if plan_state is not None:
        record["plan_cache"] = plan_state
        record["plan_build_ms"] = getattr(backend, "plan_build_ms", 0.0)
    return record


def format_event(event: dict) -> str:
    """One human-readable line per live record (``repro watch``).

    The live feed carries conflicts and assertion violations; any other
    record prints as its kind followed by the compact JSON."""
    kind = event.get("event", "?")
    cs, ph = event.get("cs"), event.get("ph")
    where = f"cs{cs}.{ph}" if cs is not None and ph is not None else "--"
    if kind == "conflict":
        drivers = ", ".join(f"{o}={v}" for o, v in event.get("drivers", []))
        return f"CONFLICT   {where} {event.get('signal')} (drivers: {drivers})"
    if kind == "violation":
        return (
            f"VIOLATION  {where} [{event.get('property')}] "
            f"{event.get('signal') or ''} {event.get('message')}".rstrip()
        )
    return f"{kind}  {json.dumps(event, separators=(',', ':'))}"


class JsonlRecorder(Probe):
    """Record the probe stream as JSONL (and/or in memory).

    Parameters
    ----------
    out:
        A path or writable text file object.  None records in memory
        only (``self.events``).
    keep_events:
        Keep the event dicts in ``self.events`` as well as writing
        them.  Defaults to True when ``out`` is None, else False (a
        chip-scale sweep should not buffer its own log).
    """

    def __init__(
        self,
        out: Union[str, IO[str], None] = None,
        keep_events: Optional[bool] = None,
    ) -> None:
        self._handle: Optional[IO[str]] = None
        self._owns_handle = False
        if out is None:
            pass
        elif hasattr(out, "write"):
            self._handle = out  # type: ignore[assignment]
        else:
            self._handle = open(out, "w", encoding="utf-8")
            self._owns_handle = True
        self._keep = keep_events if keep_events is not None else out is None
        self.events: List[dict] = []
        self._t0: Optional[float] = None

    # ------------------------------------------------------------------
    def _emit(self, event: dict) -> None:
        if self._keep:
            self.events.append(event)
        if self._handle is not None:
            self._handle.write(json.dumps(event, separators=(",", ":")))
            self._handle.write("\n")

    def close(self) -> None:
        """Flush and close the output file (if this recorder opened it)."""
        if self._handle is not None:
            self._handle.flush()
            if self._owns_handle:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "JsonlRecorder":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Probe interface
    # ------------------------------------------------------------------
    def on_run_start(self, backend: Any) -> None:
        self._t0 = time.perf_counter()
        self._emit(run_start_event(backend))

    def on_step(self, step: int) -> None:
        self._emit(step_event(step))

    def on_phase(self, at) -> None:
        if self._t0 is None:
            self._t0 = time.perf_counter()
        self._emit(phase_event(at, time.perf_counter() - self._t0))

    def on_bus_drive(self, at, bus: str, value: int) -> None:
        self._emit(bus_event(at, bus, value))

    def on_register_latch(self, at, register: str, value: int) -> None:
        self._emit(latch_event(at, register, value))

    def on_conflict(self, event) -> None:
        self._emit(conflict_event(event))

    def on_run_end(self, backend: Any, wall: float) -> None:
        self._emit(run_end_event(backend, wall))
        self.close()


def read_events(path: Union[str, IO[str]], strict: bool = True) -> List[dict]:
    """Parse a JSONL event log back into event dicts.

    With ``strict=False`` a malformed *final* record -- the partial
    last line a killed run leaves behind -- is skipped with a warning
    instead of raising; malformed records anywhere else still raise
    (that is corruption, not truncation).  ``repro report`` and
    :meth:`RunReport.from_jsonl` use the lenient mode so a recording
    survives its producer's death.
    """
    if hasattr(path, "read"):
        lines = path.read().splitlines()  # type: ignore[union-attr]
    else:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    numbered = [
        (lineno, line.strip())
        for lineno, line in enumerate(lines, 1)
        if line.strip()
    ]
    last_lineno = numbered[-1][0] if numbered else None
    events = []
    for lineno, line in numbered:
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            if not strict and lineno == last_lineno:
                warnings.warn(
                    f"skipping truncated trailing record on line {lineno} "
                    f"({exc.msg})",
                    stacklevel=2,
                )
                continue
            raise ValueError(
                f"line {lineno}: not a JSON event record ({exc.msg})"
            ) from None
        if not isinstance(event, dict) or "event" not in event:
            if not strict and lineno == last_lineno:
                warnings.warn(
                    f"skipping malformed trailing record on line {lineno} "
                    "(missing 'event' field)",
                    stacklevel=2,
                )
                continue
            raise ValueError(f"line {lineno}: missing 'event' field")
        events.append(event)
    return events


@dataclass
class RunReport:
    """Aggregated view of one observed run.

    Built from a recorded event stream; serializes with
    :meth:`to_json` (stable keys) and renders with :meth:`render`
    (the human-readable form behind ``repro report``).
    """

    model: Optional[str] = None
    backend: Optional[str] = None
    cs_max: Optional[int] = None
    schema: int = SCHEMA_VERSION
    wall: Optional[float] = None
    clean: Optional[bool] = None
    #: plan-cache verdict ("hit"/"miss"/"given") and resolution wall
    #: milliseconds, for runs through the shared lowering pipeline.
    plan_cache: Optional[str] = None
    plan_build_ms: Optional[float] = None
    stats: Dict[str, int] = field(default_factory=dict)
    registers: Dict[str, Any] = field(default_factory=dict)
    #: events per record type ("phase", "bus", "latch", ...).
    counts: Dict[str, int] = field(default_factory=dict)
    #: conflict records in observation order.
    conflicts: List[dict] = field(default_factory=list)
    #: "cs<N>.<ph>" -> conflicting signal names, in timeline order.
    conflicts_by_location: Dict[str, List[str]] = field(default_factory=dict)
    #: bus -> number of observed effective-value changes (drives).
    bus_occupancy: Dict[str, int] = field(default_factory=dict)
    #: register -> number of observed latches.
    register_activity: Dict[str, int] = field(default_factory=dict)
    #: phase vhdl name -> accumulated wall seconds spent in its cycles.
    phase_wall: Dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_events(cls, events: Iterable[dict]) -> "RunReport":
        report = cls()
        last_phase: Optional[str] = None
        last_t: Optional[float] = None
        for event in events:
            kind = event.get("event", "?")
            report.counts[kind] = report.counts.get(kind, 0) + 1
            if kind == "run_start":
                report.model = event.get("model")
                report.backend = event.get("backend")
                report.cs_max = event.get("cs_max")
                report.schema = event.get("schema", SCHEMA_VERSION)
            elif kind == "phase":
                t = event.get("t")
                if t is not None and last_t is not None and last_phase:
                    report.phase_wall[last_phase] = (
                        report.phase_wall.get(last_phase, 0.0) + (t - last_t)
                    )
                last_phase, last_t = event.get("ph"), t
            elif kind == "bus":
                name = event.get("signal", "?")
                report.bus_occupancy[name] = (
                    report.bus_occupancy.get(name, 0) + 1
                )
            elif kind == "latch":
                name = event.get("register", "?")
                report.register_activity[name] = (
                    report.register_activity.get(name, 0) + 1
                )
            elif kind == "conflict":
                report.conflicts.append(event)
                where = f"cs{event.get('cs')}.{event.get('ph')}"
                report.conflicts_by_location.setdefault(where, []).append(
                    event.get("signal", "?")
                )
            elif kind == "run_end":
                report.wall = event.get("wall")
                report.clean = event.get("clean")
                report.plan_cache = event.get("plan_cache")
                report.plan_build_ms = event.get("plan_build_ms")
                report.stats = dict(event.get("stats", {}))
                report.registers = dict(event.get("registers", {}))
                if report.wall is not None and last_t is not None and last_phase:
                    report.phase_wall[last_phase] = (
                        report.phase_wall.get(last_phase, 0.0)
                        + max(report.wall - last_t, 0.0)
                    )
        return report

    @classmethod
    def from_jsonl(cls, path: Union[str, IO[str]], strict: bool = False) -> "RunReport":
        return cls.from_events(read_events(path, strict=strict))

    @classmethod
    def from_recorder(cls, recorder: JsonlRecorder) -> "RunReport":
        return cls.from_events(recorder.events)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "backend": self.backend,
            "cs_max": self.cs_max,
            "schema": self.schema,
            "wall": self.wall,
            "clean": self.clean,
            "plan_cache": self.plan_cache,
            "plan_build_ms": self.plan_build_ms,
            "stats": self.stats,
            "registers": self.registers,
            "counts": self.counts,
            "conflicts": self.conflicts,
            "conflicts_by_location": self.conflicts_by_location,
            "bus_occupancy": self.bus_occupancy,
            "register_activity": self.register_activity,
            "phase_wall": self.phase_wall,
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    def render(self) -> str:
        """Human-readable multi-section run report."""
        lines = []
        title = self.model or "run"
        backend = f" [{self.backend}]" if self.backend else ""
        lines.append(f"run report: {title}{backend}")
        if self.cs_max is not None:
            lines.append(f"  control steps : {self.cs_max}")
        if self.wall is not None:
            lines.append(f"  wall time     : {self.wall * 1e3:.2f} ms")
        if self.clean is not None:
            lines.append(f"  clean         : {self.clean}")
        if self.plan_cache is not None:
            build = (
                f" (build {self.plan_build_ms:.2f} ms)"
                if self.plan_build_ms is not None
                else ""
            )
            lines.append(f"  plan cache    : {self.plan_cache}{build}")
        if self.stats:
            stat_text = ", ".join(f"{k}={v}" for k, v in self.stats.items())
            lines.append(f"  stats         : {stat_text}")
        if self.counts:
            count_text = ", ".join(
                f"{k}={v}" for k, v in sorted(self.counts.items())
            )
            lines.append(f"  events        : {count_text}")
        if self.conflicts_by_location:
            lines.append(f"conflicts ({len(self.conflicts)}):")
            for where, signals in self.conflicts_by_location.items():
                lines.append(f"  {where}: {', '.join(signals)}")
        else:
            lines.append("conflicts: none observed")
        if self.phase_wall:
            total = sum(self.phase_wall.values()) or 1.0
            lines.append("wall time per phase:")
            for name, secs in self.phase_wall.items():
                lines.append(
                    f"  {name}: {secs * 1e3:8.3f} ms"
                    f"  ({100.0 * secs / total:5.1f}%)"
                )
        if self.bus_occupancy:
            lines.append("bus occupancy (effective-value changes):")
            for name, count in sorted(
                self.bus_occupancy.items(), key=lambda kv: (-kv[1], kv[0])
            ):
                lines.append(f"  {name}: {count}")
        if self.register_activity:
            lines.append("register latches:")
            for name, count in sorted(
                self.register_activity.items(), key=lambda kv: (-kv[1], kv[0])
            ):
                lines.append(f"  {name}: {count}")
        if self.registers:
            lines.append("final registers:")
            for name, value in sorted(self.registers.items()):
                lines.append(f"  {name} = {value}")
        return "\n".join(lines)
