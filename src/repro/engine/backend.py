"""The pluggable simulation-engine layer: backend protocol + registry.

Every way of executing a model in this repo -- the event-driven kernel
elaboration (:class:`repro.core.simulator.RTSimulation`), the compiled
control-step executor (:class:`repro.engine.compiled.CompiledRTSimulation`),
the clocked kernel design (:class:`repro.clocked.clocked_sim.ClockedKernelSim`)
and the handshake network (:class:`repro.handshake.network.HandshakeSimulation`)
-- presents the same small surface: run to quiescence, then read
registers, conflicts and :class:`~repro.kernel.SimStats` counters.
:class:`Backend` names that surface; :func:`run_metrics` turns any
conforming backend into one comparable metrics row (used by the E5/E6
benchmarks to compare styles like with like).

RT-model backends -- the ones :meth:`RTModel.elaborate` can select by
name -- additionally register themselves in a factory registry:

* ``"event"``: the delta-cycle kernel elaboration (the default; the
  literal semantics of the paper's VHDL).
* ``"compiled"``: precomputed per-(step, phase) action tables executed
  as a straight loop, bit-identical to the event kernel.
* ``"compiled-batched"``: the same action tables walked once for N
  register-value vectors over a numpy value plane (requires the
  ``repro[fast]`` extra); pass ``register_values`` as a sequence of
  mappings to set the batch.
* ``"compiled-py"``: a per-model specialized executor generated from
  the Plan IR (:mod:`repro.engine.codegen`) -- straight-line per-(step,
  phase) code with tables constant-folded into the source, cached as
  ``codegen/v<CODEGEN_VERSION>/<digest>.py`` and compiled once with
  ``exec``.  It has no batched twin: ``compiled-batched`` is the one
  batched backend.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Protocol, runtime_checkable

from ..kernel import SimStats


@runtime_checkable
class Backend(Protocol):
    """What every simulation backend exposes after elaboration.

    ``run()`` executes to quiescence and returns the backend (so call
    chains like ``model.elaborate().run().registers`` work on any
    backend).  The read-only properties are meaningful after (and,
    where the backend supports stepping, during) the run.
    """

    def run(self) -> "Backend":  # pragma: no cover - protocol
        ...

    @property
    def registers(self) -> dict:  # pragma: no cover - protocol
        """Final (or current) register values by name."""
        ...

    @property
    def conflicts(self) -> list:  # pragma: no cover - protocol
        """Observed :class:`~repro.core.diagnostics.ConflictEvent` list."""
        ...

    @property
    def clean(self) -> bool:  # pragma: no cover - protocol
        """True when the run produced no ILLEGAL value anywhere."""
        ...

    @property
    def stats(self) -> SimStats:  # pragma: no cover - protocol
        """Unified simulation-cost counters."""
        ...


#: An RT-model backend factory: ``factory(model, **elaborate_kwargs)``.
BackendFactory = Callable[..., Backend]

_REGISTRY: Dict[str, BackendFactory] = {}


class BackendError(ValueError):
    """Raised for unknown backend names."""


def register_backend(name: str, factory: BackendFactory) -> None:
    """Register an RT-model backend under ``name`` (overwrites)."""
    _REGISTRY[name] = factory


def backend_names() -> List[str]:
    """The registered RT-model backend names, sorted."""
    _ensure_builtins()
    return sorted(_REGISTRY)


def create_backend(name: str, model: Any, **kwargs: Any) -> Backend:
    """Instantiate the named backend for ``model``.

    ``kwargs`` are the :meth:`RTModel.elaborate` parameters
    (``register_values``, ``trace``, ``watch``, ``max_deltas``,
    ``transfer_engine``, ``observe``); each backend consumes what
    applies to it.
    """
    _ensure_builtins()
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise BackendError(
            f"unknown backend {name!r}; available: "
            f"{', '.join(sorted(_REGISTRY))}"
        ) from None
    return factory(model, **kwargs)


def _ensure_builtins() -> None:
    # Deferred: the factories import the core/engine modules, which in
    # turn import this module.
    if "event" not in _REGISTRY:
        register_backend("event", _event_factory)
    if "compiled" not in _REGISTRY:
        register_backend("compiled", _compiled_factory)
    if "compiled-batched" not in _REGISTRY:
        register_backend("compiled-batched", _compiled_batched_factory)
    if "compiled-py" not in _REGISTRY:
        register_backend("compiled-py", _codegen_factory)


def _event_factory(model: Any, **kwargs: Any) -> Backend:
    from ..core.simulator import RTSimulation

    return RTSimulation(model, **kwargs)


def _compiled_factory(model: Any, **kwargs: Any) -> Backend:
    from .compiled import CompiledRTSimulation

    return CompiledRTSimulation(model, **kwargs)


def _compiled_batched_factory(model: Any, **kwargs: Any) -> Backend:
    from .batched import CompiledBatchedRTSimulation

    return CompiledBatchedRTSimulation(model, **kwargs)


def _codegen_factory(model: Any, **kwargs: Any) -> Backend:
    from .codegen import CodegenRTSimulation

    return CodegenRTSimulation(model, **kwargs)


def run_metrics(
    backend: Backend,
    wall: Optional[float] = None,
    baseline: Optional[SimStats] = None,
    profile: Optional[Any] = None,
    monitor: Optional[Any] = None,
) -> Dict[str, Any]:
    """One comparable metrics row for any backend.

    ``wall`` is the measured wall-clock time in seconds (the caller
    times the run; elaboration cost is excluded uniformly).
    ``baseline`` subtracts a stats snapshot taken before the measured
    interval, for backends whose simulator is reused.
    ``profile`` merges a :class:`repro.observe.Profiler`'s per-phase
    wall totals into the row as ``wall_<phase>`` columns.
    ``monitor`` merges an :class:`repro.observe.AssertionMonitor`'s (or
    :class:`~repro.observe.monitor.AssertionReport`'s) verdict as a
    ``violations`` column.

    Trace depth is reported only when the backend actually carries a
    trace: backends elaborated with ``trace=False`` leave ``tracer``
    as None, and backends without the attribute at all (the handshake
    network) are equally fine -- neither grows a ``trace_samples``
    column.

    Batched backends (those carrying a ``batch_size``) report a
    ``vectors`` column and count conflicts summed over the batch --
    their ``conflicts`` is a list of per-vector event lists.

    Backends elaborated through the shared lowering pipeline (see
    :mod:`repro.engine.plan`) report ``plan_cache`` -- one of ``hit``,
    ``miss``, ``off`` or ``given`` -- and ``plan_build_ms``, the wall
    time spent resolving the :class:`~repro.engine.plan.Plan` (digest
    plus lower on a miss, digest plus unpickle on a hit).

    Codegen backends (see :mod:`repro.engine.codegen`) additionally
    report ``codegen_cache`` (``hit`` / ``miss`` / ``off``),
    ``codegen_build_ms`` (wall time spent resolving the generated
    executor -- artifact load on a hit, generate + compile on a miss)
    and ``codegen_mode`` (``exec``, or ``interpreter`` when the
    generated path was unavailable and the backend fell back).
    """
    stats = backend.stats
    if baseline is not None:
        stats = stats - baseline
    batch_size = getattr(backend, "batch_size", None)
    conflicts = backend.conflicts
    if batch_size is not None:
        conflict_count = sum(len(events) for events in conflicts)
    else:
        conflict_count = len(conflicts)
    row: Dict[str, Any] = {
        "deltas": stats.delta_cycles,
        "events": stats.events,
        "resumes": stats.process_resumes,
        "transactions": stats.transactions,
        "conflicts": conflict_count,
    }
    if batch_size is not None:
        row["vectors"] = batch_size
    tracer = getattr(backend, "tracer", None)
    if tracer is not None:
        row["trace_samples"] = len(tracer.samples)
    if wall is not None:
        row["wall"] = wall
    if profile is not None:
        for phase, seconds in profile.phase_wall.items():
            row[f"wall_{phase}"] = seconds
    if monitor is not None:
        report = getattr(monitor, "report", monitor)
        violations = getattr(report, "violations", None)
        if violations is not None:
            row["violations"] = len(violations)
    plan_cache_state = getattr(backend, "plan_cache_state", None)
    if plan_cache_state is not None:
        row["plan_cache"] = plan_cache_state
        row["plan_build_ms"] = getattr(backend, "plan_build_ms", 0.0)
    codegen_cache_state = getattr(backend, "codegen_cache_state", None)
    if codegen_cache_state is not None:
        row["codegen_cache"] = codegen_cache_state
        row["codegen_build_ms"] = getattr(backend, "codegen_build_ms", 0.0)
        row["codegen_mode"] = getattr(backend, "codegen_mode", "interpreter")
    return row
