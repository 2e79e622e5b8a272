"""Structural coverage over the Plan IR, identical on every backend.

The ROADMAP's campaign runner wants to sweep inputs "until structural
coverage saturates: transfers exercised, (CS, PH) cells hit, conflicts
provoked".  This module defines what those words mean -- on the one
lowered :class:`~repro.engine.plan.Plan` every backend executes -- and
measures them from the same canonical probe stream the assertion
monitor consumes, so the numbers are bit-identical whether a run went
through the event kernel, the compiled loop or a batched lane
(differential-tested in
``tests/observe/test_coverage_differential.py``).

The universe (:class:`CoverageModel`, derived from a Plan):

* **transfers** -- every TRANS spec row ``(step, phase, source,
  sink)``; one coverage point per row, indexed by the global driver
  order;
* **cells** -- every distinct ``(CS, PH)`` the schedule asserts in;
* **port value classes** -- for every *observable* port (buses and
  register outputs -- exactly the canonical stream's vocabulary):
  ``toggle`` (drove/latched a data value), ``disc`` (released back to
  DISC) and ``illegal`` (resolved to ILLEGAL);
* **conflict pairs** -- for every multi-driver sink, each unordered
  pair of its drivers in global driver order: the collisions the
  structure makes *possible*; a pair is covered when a run actually
  provokes it.

When a transfer is "exercised": its assert cell executed **and** the
transfer demonstrably moved data.  For a tracked source (a bus, or a
register's ``_out``) that means the source was not DISC at the assert
cycle (after that cycle's value changes landed -- exactly the value
the driver read).  An ``op:`` select is exercised by execution alone.
A transfer whose source is unobservable (a unit's ``_out`` port never
appears in the probe stream) is judged by its *sink* one cycle later,
when the drive lands -- a deliberate, documented over-approximation
when several drivers share that sink cell -- and a transfer with
neither side observable counts as exercised when its cycle executes.
Cells are covered derivatively: a cell is hit when any of its
transfers exercised.

Reports (:class:`CoverageReport`) are canonical -- sorted hit tuples,
stable dict/JSON forms -- and closed under :meth:`CoverageReport.merge`
(set union; associative, commutative, idempotent), which is what the
cumulative :class:`CoverageDB` does on disk: entries live at
``<root>/coverage/v1/<model_digest>.json`` (mirroring the PlanCache
layout under the same root), so repeated runs of the same model
accumulate one saturating report.

Entry points: :class:`CoverageProbe` (online, any scalar backend plus
batched N == 1), :func:`coverage_from_trace` (batched lane replay) and
:func:`measure_coverage` (the uniform front door, mirroring
:func:`repro.observe.monitor.check_model`).
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.phases import StepPhase
from ..core.values import DISC, ILLEGAL
from .monitor import _initial_state, monitored_watch_list
from .probe import Probe

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.diagnostics import ConflictEvent
    from ..core.model import RTModel
    from ..core.trace import TraceLog
    from ..engine.plan import Plan

__all__ = [
    "COVERAGE_VERSION",
    "CoverageDB",
    "CoverageError",
    "CoverageModel",
    "CoverageProbe",
    "CoverageReport",
    "as_coverage_db",
    "coverage_from_trace",
    "coverage_model_for",
    "measure_coverage",
]

COVERAGE_VERSION = 1

_DB_MAGIC = "repro-coverage"

#: Port value classes, in report order.
VALUE_CLASSES = ("toggle", "disc", "illegal")


class CoverageError(ValueError):
    """Raised for incompatible reports or malformed payloads."""


def _classify(value: int) -> str:
    if value == ILLEGAL:
        return "illegal"
    if value == DISC:
        return "disc"
    return "toggle"


# ----------------------------------------------------------------------
# the universe
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CoverageModel:
    """The coverage universe of one lowered model (see module doc)."""

    digest: str
    name: str
    cs_max: int
    #: TRANS spec rows, indexed by global driver order.
    transfers: Tuple[Tuple[int, int, str, str], ...]
    #: distinct (step, phase_int) assert cells, sorted.
    cells: Tuple[Tuple[int, int], ...]
    #: observable ports: buses then registers, declaration order.
    buses: Tuple[str, ...]
    registers: Tuple[str, ...]
    #: potential conflict pairs (owner names, global driver order).
    conflict_pairs: Tuple[Tuple[str, str], ...]
    #: per assert cell: (transfer index, tracked source name | None);
    #: None means exercised by execution alone.
    source_checks: Dict[Tuple[int, int], Tuple[Tuple[int, Optional[str]], ...]] = field(hash=False)
    #: per assert cell: (transfer index, tracked sink name) judged one
    #: cycle later, when the drive lands.
    sink_checks: Dict[Tuple[int, int], Tuple[Tuple[int, str], ...]] = field(hash=False)
    #: owner name -> global driver index (conflict canonicalization).
    owner_index: Dict[str, int] = field(hash=False)

    @classmethod
    def from_plan(cls, plan: "Plan") -> "CoverageModel":
        buses = tuple(plan.port_names[: plan.bus_count])
        bus_set = set(buses)
        registers = plan.register_names()
        register_set = set(registers)

        source_checks: Dict[
            Tuple[int, int], List[Tuple[int, Optional[str]]]
        ] = {}
        sink_checks: Dict[Tuple[int, int], List[Tuple[int, str]]] = {}
        for idx, (step, phase_int, source, sink) in enumerate(
            plan.spec_rows
        ):
            key = (step, phase_int)
            tracked: Optional[str] = None
            if source.startswith("op:"):
                tracked = None
            elif source in bus_set:
                tracked = source
            elif source.endswith("_out") and source[: -len("_out")] in register_set:
                tracked = source[: -len("_out")]
            else:
                # Unobservable source (a unit output): judge by the
                # sink when the drive lands, if the sink is observable.
                if sink in bus_set:
                    sink_checks.setdefault(key, []).append((idx, sink))
                else:
                    source_checks.setdefault(key, []).append((idx, None))
                continue
            source_checks.setdefault(key, []).append((idx, tracked))

        owner_index = {
            owner: idx for idx, owner in enumerate(plan.drv_owner)
        }
        pairs: List[Tuple[str, str]] = []
        seen_pairs = set()
        for sink in sorted(plan.sink_drivers):
            drivers = plan.sink_drivers[sink]
            for a in range(len(drivers)):
                for b in range(a + 1, len(drivers)):
                    one = plan.drv_owner[drivers[a]]
                    other = plan.drv_owner[drivers[b]]
                    if one == other:
                        # A TRANS never conflicts with itself: its own
                        # drivers assert at distinct cells.
                        continue
                    if owner_index[one] > owner_index[other]:
                        one, other = other, one
                    pair = (one, other)
                    if pair not in seen_pairs:
                        seen_pairs.add(pair)
                        pairs.append(pair)

        return cls(
            digest=plan.digest,
            name=plan.name,
            cs_max=plan.cs_max,
            transfers=tuple(plan.spec_rows),
            cells=tuple(sorted({
                (step, phase_int)
                for step, phase_int, _source, _sink in plan.spec_rows
            })),
            buses=buses,
            registers=registers,
            conflict_pairs=tuple(pairs),
            source_checks={
                key: tuple(rows) for key, rows in source_checks.items()
            },
            sink_checks={
                key: tuple(rows) for key, rows in sink_checks.items()
            },
            owner_index=owner_index,
        )

    @property
    def ports(self) -> Tuple[str, ...]:
        return self.buses + self.registers

    @property
    def pair_set(self) -> frozenset:
        return frozenset(self.conflict_pairs)

    def totals(self) -> Dict[str, int]:
        return {
            "transfers": len(self.transfers),
            "cells": len(self.cells),
            "port_classes": len(self.ports) * len(VALUE_CLASSES),
            "conflict_pairs": len(self.conflict_pairs),
        }

    def missed(self, report: "CoverageReport") -> Dict[str, list]:
        """What the report did *not* cover, by dimension (for text
        reports; identities, not counts)."""
        hit_t = set(report.transfers_hit)
        hit_c = set(report.cells_hit)
        hit_p = set(report.port_classes_hit)
        hit_x = set(report.conflict_pairs_hit)
        return {
            "transfers": [
                {"index": i, "row": list(self.transfers[i])}
                for i in range(len(self.transfers))
                if i not in hit_t
            ],
            "cells": [list(c) for c in self.cells if c not in hit_c],
            "port_classes": [
                [port, cls]
                for port in self.ports
                for cls in VALUE_CLASSES
                if (port, cls) not in hit_p
            ],
            "conflict_pairs": [
                list(p) for p in self.conflict_pairs if p not in hit_x
            ],
        }


def coverage_model_for(backend: Any) -> CoverageModel:
    """The coverage universe of an elaborated backend.

    Compiled-style backends carry their lowered Plan (``model_plan``);
    the event backend lowers on demand -- same pipeline, same digest,
    same universe.
    """
    plan = getattr(backend, "model_plan", None)
    if plan is None:
        from ..engine.plan import lower

        plan = lower(backend.model)
    return CoverageModel.from_plan(plan)


# ----------------------------------------------------------------------
# the report
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CoverageReport:
    """Canonical per-run (or merged) structural-coverage verdict.

    Hit sets are sorted tuples, so equal coverage compares and
    serializes bit-identically; totals pin the universe size so merges
    across incompatible models fail loudly.
    """

    digest: str
    model: str
    transfers_total: int
    cells_total: int
    port_classes_total: int
    conflict_pairs_total: int
    transfers_hit: Tuple[int, ...]
    cells_hit: Tuple[Tuple[int, int], ...]
    port_classes_hit: Tuple[Tuple[str, str], ...]
    conflict_pairs_hit: Tuple[Tuple[str, str], ...]

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def merge(self, other: "CoverageReport") -> "CoverageReport":
        """Set-union of two reports over the same universe.

        Associative, commutative and idempotent -- the cumulative DB
        relies on all three."""
        if self.digest != other.digest:
            raise CoverageError(
                f"cannot merge coverage of different models "
                f"({self.digest[:16]} vs {other.digest[:16]})"
            )
        if (
            self.transfers_total != other.transfers_total
            or self.cells_total != other.cells_total
            or self.port_classes_total != other.port_classes_total
            or self.conflict_pairs_total != other.conflict_pairs_total
        ):
            raise CoverageError(
                "cannot merge coverage over different universes"
            )
        return CoverageReport(
            digest=self.digest,
            model=self.model,
            transfers_total=self.transfers_total,
            cells_total=self.cells_total,
            port_classes_total=self.port_classes_total,
            conflict_pairs_total=self.conflict_pairs_total,
            transfers_hit=tuple(sorted(
                set(self.transfers_hit) | set(other.transfers_hit)
            )),
            cells_hit=tuple(sorted(
                set(self.cells_hit) | set(other.cells_hit)
            )),
            port_classes_hit=tuple(sorted(
                set(self.port_classes_hit) | set(other.port_classes_hit)
            )),
            conflict_pairs_hit=tuple(sorted(
                set(self.conflict_pairs_hit) | set(other.conflict_pairs_hit)
            )),
        )

    # ------------------------------------------------------------------
    # fractions
    # ------------------------------------------------------------------
    @staticmethod
    def _frac(hit: int, total: int) -> float:
        return hit / total if total else 1.0

    @property
    def hit_count(self) -> int:
        return (
            len(self.transfers_hit) + len(self.cells_hit)
            + len(self.port_classes_hit) + len(self.conflict_pairs_hit)
        )

    @property
    def point_count(self) -> int:
        return (
            self.transfers_total + self.cells_total
            + self.port_classes_total + self.conflict_pairs_total
        )

    @property
    def coverage(self) -> float:
        """Overall covered fraction over all four dimensions."""
        return self._frac(self.hit_count, self.point_count)

    def fractions(self) -> Dict[str, float]:
        return {
            "transfers": self._frac(
                len(self.transfers_hit), self.transfers_total
            ),
            "cells": self._frac(len(self.cells_hit), self.cells_total),
            "port_classes": self._frac(
                len(self.port_classes_hit), self.port_classes_total
            ),
            "conflict_pairs": self._frac(
                len(self.conflict_pairs_hit), self.conflict_pairs_total
            ),
            "overall": self.coverage,
        }

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "digest": self.digest,
            "model": self.model,
            "totals": {
                "transfers": self.transfers_total,
                "cells": self.cells_total,
                "port_classes": self.port_classes_total,
                "conflict_pairs": self.conflict_pairs_total,
            },
            "hits": {
                "transfers": list(self.transfers_hit),
                "cells": [list(c) for c in self.cells_hit],
                "port_classes": [list(p) for p in self.port_classes_hit],
                "conflict_pairs": [
                    list(p) for p in self.conflict_pairs_hit
                ],
            },
            "fractions": self.fractions(),
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CoverageReport":
        try:
            totals = payload["totals"]
            hits = payload["hits"]
            return cls(
                digest=str(payload["digest"]),
                model=str(payload["model"]),
                transfers_total=int(totals["transfers"]),
                cells_total=int(totals["cells"]),
                port_classes_total=int(totals["port_classes"]),
                conflict_pairs_total=int(totals["conflict_pairs"]),
                transfers_hit=tuple(sorted(
                    int(i) for i in hits["transfers"]
                )),
                cells_hit=tuple(sorted(
                    (int(s), int(p)) for s, p in hits["cells"]
                )),
                port_classes_hit=tuple(sorted(
                    (str(a), str(b)) for a, b in hits["port_classes"]
                )),
                conflict_pairs_hit=tuple(sorted(
                    (str(a), str(b)) for a, b in hits["conflict_pairs"]
                )),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CoverageError(
                f"malformed coverage payload: {exc}"
            ) from None

    def render(self) -> str:
        """Human-readable coverage table."""
        rows = [
            ("transfers", len(self.transfers_hit), self.transfers_total),
            ("cells", len(self.cells_hit), self.cells_total),
            (
                "port classes",
                len(self.port_classes_hit),
                self.port_classes_total,
            ),
            (
                "conflict pairs",
                len(self.conflict_pairs_hit),
                self.conflict_pairs_total,
            ),
        ]
        lines = [
            f"coverage: model {self.model!r} "
            f"(digest {self.digest[:16]}...)"
        ]
        for label, hit, total in rows:
            pct = 100.0 * self._frac(hit, total)
            lines.append(f"  {label:<14} {hit}/{total} ({pct:.1f}%)")
        lines.append(
            f"  {'overall':<14} {self.hit_count}/{self.point_count} "
            f"({100.0 * self.coverage:.1f}%)"
        )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# the evaluation core (shared by the probe and the trace replay)
# ----------------------------------------------------------------------
class _CoverageEvaluation:
    """State machine marking coverage points from a cycle stream.

    The stream contract is the canonical probe stream's: per executed
    cycle, the set of observable ports whose effective value changed
    *at* that cycle, plus conflict events interleaved at their cycle.
    Sink checks of cycle *k*'s asserts are decided at cycle *k+1* --
    when the drive lands -- which is the next processed cycle, since
    the schedule is walked without gaps.
    """

    def __init__(self, cov: CoverageModel) -> None:
        self.cov = cov
        self.state: Dict[str, int] = {}
        self.transfers_hit: set = set()
        self.port_classes_hit: set = set()
        self.conflict_pairs_hit: set = set()
        self.cycles = 0
        self._port_set = frozenset(cov.ports)
        self._pair_set = cov.pair_set
        self._prev_key: Optional[Tuple[int, int]] = None

    def start(self, initial_state: Mapping[str, int]) -> None:
        self.state = dict(initial_state)

    def conflict(self, event: "ConflictEvent") -> None:
        owners = sorted(
            (owner for owner, _value in event.sources),
            key=lambda o: self.cov.owner_index.get(o, -1),
        )
        for a in range(len(owners)):
            for b in range(a + 1, len(owners)):
                pair = (owners[a], owners[b])
                if pair in self._pair_set:
                    self.conflict_pairs_hit.add(pair)

    def cycle(self, at: StepPhase, changed: Mapping[str, int]) -> None:
        self.cycles += 1
        for name, value in changed.items():
            if name in self._port_set:
                self.port_classes_hit.add((name, _classify(value)))
        self.state.update(changed)
        key = (at.step, int(at.phase))
        # Drives asserted last cycle landed in this one: judge their
        # unobservable-source transfers by the sink value now.
        if self._prev_key is not None:
            for idx, sink in self.cov.sink_checks.get(self._prev_key, ()):
                if self.state.get(sink, DISC) != DISC:
                    self.transfers_hit.add(idx)
        for idx, source in self.cov.source_checks.get(key, ()):
            if source is None or self.state.get(source, DISC) != DISC:
                self.transfers_hit.add(idx)
        self._prev_key = key

    def finish(self) -> CoverageReport:
        cov = self.cov
        cells_hit = sorted({
            (cov.transfers[i][0], cov.transfers[i][1])
            for i in self.transfers_hit
        })
        return CoverageReport(
            digest=cov.digest,
            model=cov.name,
            transfers_total=len(cov.transfers),
            cells_total=len(cov.cells),
            port_classes_total=len(cov.ports) * len(VALUE_CLASSES),
            conflict_pairs_total=len(cov.conflict_pairs),
            transfers_hit=tuple(sorted(self.transfers_hit)),
            cells_hit=tuple(cells_hit),
            port_classes_hit=tuple(sorted(self.port_classes_hit)),
            conflict_pairs_hit=tuple(sorted(self.conflict_pairs_hit)),
        )


# ----------------------------------------------------------------------
# the online probe
# ----------------------------------------------------------------------
class CoverageProbe(Probe):
    """Measures structural coverage online from the canonical stream.

    Attach to any backend that emits per-cycle callbacks (event,
    compiled, batched at N == 1).  The universe is derived
    from the backend's own Plan at ``on_run_start`` (or pass a
    prebuilt :class:`CoverageModel`); the verdict lands in ``report``
    at ``on_run_end``.  Same flush discipline as the assertion
    monitor: a cycle's changes trail its phase callback, so cycle *k*
    is evaluated when the next boundary proves it complete.
    """

    def __init__(self, cov: Optional[CoverageModel] = None) -> None:
        self.cov = cov
        self.report: Optional[CoverageReport] = None
        self._eval: Optional[_CoverageEvaluation] = None
        self._open_at: Optional[StepPhase] = None
        self._changed: Dict[str, int] = {}

    def _flush(self) -> None:
        if self._eval is None or self._open_at is None:
            return
        self._eval.cycle(self._open_at, self._changed)
        self._open_at = None
        self._changed = {}

    # -- probe callbacks ------------------------------------------------
    def on_run_start(self, backend: Any) -> None:
        if self.cov is None:
            self.cov = coverage_model_for(backend)
        self._eval = _CoverageEvaluation(self.cov)
        self._eval.start(_initial_state(backend))
        self._open_at = None
        self._changed = {}
        self.report = None

    def on_phase(self, at: StepPhase) -> None:
        self._flush()
        self._open_at = at
        self._changed = {}

    def on_bus_drive(
        self, at: Optional[StepPhase], bus: str, value: int
    ) -> None:
        if at is None:
            return
        self._changed[bus] = value

    def on_register_latch(
        self, at: Optional[StepPhase], register: str, value: int
    ) -> None:
        if at is None:
            return
        self._changed[register] = value

    def on_conflict(self, event: "ConflictEvent") -> None:
        if self._eval is None:
            return
        self._flush()
        self._eval.conflict(event)

    def on_run_end(self, backend: Any, wall: float) -> None:
        if self._eval is None:
            return
        self._flush()
        self.report = self._eval.finish()
        self._eval = None


# ----------------------------------------------------------------------
# trace replay (batched lanes) and the uniform entry point
# ----------------------------------------------------------------------
def coverage_from_trace(
    cov: CoverageModel,
    trace: "TraceLog",
    conflicts: Sequence["ConflictEvent"] = (),
) -> CoverageReport:
    """Replay a recorded lane trace through the evaluation core.

    The trace must cover every bus and every register output
    (:func:`~repro.observe.monitor.monitored_watch_list` -- the same
    columns the assertion replay needs); change sets are reconstructed
    by diffing successive samples, matching the online probe exactly.
    """
    reg_out = {f"{name}_out": name for name in cov.registers}
    bus_set = set(cov.buses)
    evaluation = _CoverageEvaluation(cov)
    pending = list(conflicts)
    feed_idx = 0
    first = True
    for sample in trace.samples:
        values: Dict[str, int] = {}
        for column, value in sample.values.items():
            if column in bus_set:
                values[column] = value
            elif column in reg_out:
                values[reg_out[column]] = value
        while feed_idx < len(pending) and pending[feed_idx].at <= sample.at:
            evaluation.conflict(pending[feed_idx])
            feed_idx += 1
        if first:
            evaluation.start(values)
            evaluation.cycle(sample.at, {})
            first = False
        else:
            changed = {
                name: value
                for name, value in values.items()
                if evaluation.state.get(name) != value
            }
            evaluation.cycle(sample.at, changed)
    while feed_idx < len(pending):
        evaluation.conflict(pending[feed_idx])
        feed_idx += 1
    return evaluation.finish()


def measure_coverage(
    model: "RTModel",
    backend: str = "compiled",
    register_values: Union[
        Mapping[str, int], Sequence[Mapping[str, int]], None
    ] = None,
    per_lane: bool = False,
    **elaborate_kwargs: Any,
) -> Union[CoverageReport, List[CoverageReport]]:
    """Run ``model`` under ``backend`` and measure its coverage.

    Scalar backends attach an online :class:`CoverageProbe`.
    ``compiled-batched`` sweeps a sequence of register-value vectors
    in one run and replays each lane's trace; the lanes are merged
    into one report unless ``per_lane`` is True.  Per-lane reports are
    bit-identical to N scalar runs (differential-tested).
    """
    if backend == "compiled-batched":
        if register_values is None or isinstance(register_values, Mapping):
            vectors = [dict(register_values or {})]
        else:
            vectors = [dict(v) for v in register_values]
        sim = model.elaborate(
            backend=backend,
            register_values=vectors,
            watch=monitored_watch_list(model),
            **elaborate_kwargs,
        )
        sim.run()
        cov = CoverageModel.from_plan(sim.model_plan)
        # Each read of a batch view builds all N lanes: read once.
        reports = [
            coverage_from_trace(cov, tracer, conflicts)
            for tracer, conflicts in zip(sim.tracers, sim.conflicts)
        ]
        if per_lane:
            return reports
        merged = reports[0]
        for report in reports[1:]:
            merged = merged.merge(report)
        return merged
    if register_values is not None and not isinstance(
        register_values, Mapping
    ):
        raise CoverageError(
            "a sequence of register-value vectors needs "
            "backend='compiled-batched'"
        )
    probe = CoverageProbe()
    kwargs = dict(elaborate_kwargs)
    if register_values is not None:
        kwargs["register_values"] = register_values
    model.elaborate(backend=backend, observe=probe, **kwargs).run()
    assert probe.report is not None
    return probe.report


# ----------------------------------------------------------------------
# the cumulative on-disk DB
# ----------------------------------------------------------------------
class CoverageDB:
    """Content-addressed cumulative coverage store.

    Entries live at ``<root>/coverage/v<COVERAGE_VERSION>/
    <model_digest>.json`` under the same root as the plan cache
    (``$REPRO_PLAN_CACHE`` or ``~/.cache/repro``), one merged
    :class:`CoverageReport` per model digest.  Reads are lenient (an
    unreadable or foreign entry is discarded with a RuntimeWarning);
    writes are atomic (tmp + rename) and best-effort, mirroring
    :class:`~repro.engine.plan.PlanCache`.
    """

    def __init__(self, root: Optional[Union[str, Path]] = None) -> None:
        if root is None:
            from ..engine.plan import default_cache_root

            root = default_cache_root()
        self.root = Path(root)

    def path_for(self, digest: str) -> Path:
        return (
            self.root / "coverage" / f"v{COVERAGE_VERSION}"
            / f"{digest}.json"
        )

    def get(self, digest: str) -> Optional[CoverageReport]:
        path = self.path_for(digest)
        try:
            data = path.read_text(encoding="utf-8")
        except OSError:
            return None
        try:
            payload = json.loads(data)
            if (
                not isinstance(payload, dict)
                or payload.get("magic") != _DB_MAGIC
                or payload.get("version") != COVERAGE_VERSION
            ):
                raise CoverageError("stale or foreign payload header")
            report = CoverageReport.from_dict(payload["report"])
            if report.digest != digest:
                raise CoverageError("entry does not match its digest")
        except (CoverageError, KeyError, ValueError) as exc:
            warnings.warn(
                f"coverage db: discarding unusable entry {path} "
                f"({exc}); starting fresh",
                RuntimeWarning,
                stacklevel=2,
            )
            return None
        return report

    def put(self, report: CoverageReport) -> bool:
        from ..engine.plan import write_atomic

        text = json.dumps({
            "magic": _DB_MAGIC,
            "version": COVERAGE_VERSION,
            "report": report.to_dict(),
        }, sort_keys=True) + "\n"
        return write_atomic(
            self.path_for(report.digest), text.encode("utf-8")
        )

    def update(self, report: CoverageReport) -> CoverageReport:
        """Merge ``report`` into the stored entry; returns the merge."""
        existing = self.get(report.digest)
        merged = report if existing is None else existing.merge(report)
        self.put(merged)
        return merged


#: ``cover_db=`` argument shapes: None/False (off), True (default
#: root), a path, or a ready CoverageDB.
CoverageDBArg = Union[None, bool, str, Path, CoverageDB]


def as_coverage_db(cover_db: CoverageDBArg) -> Optional[CoverageDB]:
    """Normalize a ``cover_db`` argument to a DB or None."""
    if cover_db is None or cover_db is False:
        return None
    if cover_db is True:
        return CoverageDB()
    if isinstance(cover_db, CoverageDB):
        return cover_db
    return CoverageDB(cover_db)
