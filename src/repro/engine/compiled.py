"""The compiled control-step backend.

Instead of elaborating the model onto the generic delta-cycle kernel
(heap of pending transactions, generator processes, waiter sets), this
backend executes the model's lowered :class:`~repro.engine.plan.Plan`:
the static schedule turned into per-``(step, phase)`` action tables --
transfer asserts and releases, module evaluations in CM, register
latches in CR -- which :meth:`CompiledRTSimulation.run` walks as a
straight loop over :func:`repro.core.phases.iter_schedule`.  This is
exactly the activation indexing a compiled VHDL simulator derives from
the subset's ``wait until CS = S and PH = P`` conditions (cf. the AOC
C-model derivation in PAPERS.md): the schedule is static, so no
runtime scheduler is needed.  Lowering itself lives in
:func:`repro.engine.plan.lower` (shared with the batched and codegen
backends) and can be skipped entirely on a
:class:`~repro.engine.plan.PlanCache` hit.

Observable behaviour is **bit-identical** to the event kernel:

* register results, full port-by-port ``(step, phase)`` traces, and
  conflict events with the same ``(CS, PH)`` locations, sources and
  order -- the executor replicates the kernel's one-delta-cycle driver
  update pipeline (a value driven during cycle *k* becomes effective
  in cycle *k + 1*), VHDL transaction semantics on resolved sinks, and
  the once-per-episode conflict accounting;
* the paper's delta accounting: ``stats.delta_cycles`` counts one
  synthesized delta cycle per executed (step, phase) point -- the
  ``CS_MAX * 6`` claim of E2 -- plus the same conditional trailing
  cycle the kernel needs when the final CR still has updates in
  flight; ``events`` and ``transactions`` count the identical signal
  activity (model ports plus the CS/PH/tick bookkeeping the kernel's
  controller generates).

``process_resumes`` is the one honestly *different* counter: the
compiled loop wakes no processes at all, so it reports one fused
dispatch per executed cycle -- the measure of scheduler work the E6
benchmark compares against the event kernel's per-component wakeups.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional, Union

from ..core.diagnostics import ConflictEvent, ConflictLog
from ..core.model import ModelError, RTModel
from ..core.phases import (
    PHASES_PER_STEP,
    Phase,
    StepPhase,
    schedule_points,
)
from ..core.trace import TraceLog
from ..core.values import DISC, ILLEGAL, resolve_rt
from ..kernel import SimStats
from ..kernel.errors import DeltaCycleLimitError
from ..observe.emit import emit_canonical_cycle
from .plan import (
    Plan,
    PlanCacheArg,
    PlanHandle,
    compile_module_eval,
    resolve_plan,
)

#: Per-cycle bookkeeping phases: CS changes in RA, ticks fire in CM/CR.
_EXTRA_EVENTS = {int(Phase.RA): 1, int(Phase.CM): 1, int(Phase.CR): 1}

#: Bookkeeping transactions the kernel's controller *schedules during*
#: a cycle at each phase (counted at schedule time, one cycle before
#: they apply): the next PH always, plus the tick alongside CM/CR and
#: the CS increment alongside RA (scheduled in the preceding CR).
_SCHED_TX = {
    int(Phase.RA): 1,
    int(Phase.RB): 2,
    int(Phase.CM): 1,
    int(Phase.WA): 1,
    int(Phase.WB): 2,
    int(Phase.CR): 2,
}


class PortView:
    """Read-only view of one compiled port (``signal(name)`` result).

    Mimics the slice of the kernel :class:`~repro.kernel.Signal` API
    that model-level code reads: ``name`` and the current ``value``.
    """

    __slots__ = ("name", "_values", "_index")

    def __init__(self, name: str, values: List[int], index: int) -> None:
        self.name = name
        self._values = values
        self._index = index

    @property
    def value(self) -> int:
        return self._values[self._index]

    def __repr__(self) -> str:
        return f"<PortView {self.name}={self.value!r}>"


class CompiledRTSimulation:
    """A compiled, ready-to-run elaboration of an RT model.

    Drop-in for :class:`repro.core.simulator.RTSimulation`: same
    constructor keywords (``transfer_engine`` is accepted and ignored
    -- both realizations compile to the same action tables), same
    result surface (``registers``, ``conflicts``, ``clean``, ``stats``,
    ``monitor``, ``tracer``, ``signal``, ``run_steps``).

    ``plan`` / ``plan_cache`` select the lowered IR the executor runs:
    an explicit :class:`~repro.engine.plan.Plan` skips lowering, and a
    cache turns repeat elaborations of the same model into a digest +
    unpickle.  ``model_plan`` exposes the Plan in use;
    ``plan_cache_state`` (``hit`` / ``miss`` / ``off`` / ``given``) and
    ``plan_build_ms`` feed the :func:`repro.engine.run_metrics` row.

    ``observe`` attaches a :class:`repro.observe.Probe`; the executor
    then emits, per cycle, the canonical stream the event kernel's
    adapter produces -- conflicts first (via the monitor listener),
    then the step boundary (RA only), the phase boundary, bus drives
    in bus declaration order and register latches in register
    declaration order -- so the same probe sees identical ordered
    sequences on either backend.  When None, no per-cycle bookkeeping
    exists at all.
    """

    #: Engine kind reported to observers (see repro.observe).
    backend_name = "compiled"

    def __init__(
        self,
        model: RTModel,
        register_values: Optional[Mapping[str, int]] = None,
        trace: bool = False,
        watch: Optional[Iterable[str]] = None,
        max_deltas: int = 1_000_000,
        transfer_engine: bool = True,
        observe=None,
        plan: Union[None, Plan, PlanHandle] = None,
        plan_cache: PlanCacheArg = None,
    ) -> None:
        del transfer_engine  # one compiled realization covers both
        self.model = model
        self._max_deltas = max_deltas
        overrides = dict(register_values or {})
        unknown = set(overrides) - set(model.registers)
        if unknown:
            raise ModelError(
                f"register_values for unknown registers: {sorted(unknown)}"
            )

        # -- the lowered IR (shared with every compiled-style backend) ---
        handle = resolve_plan(model, plan, plan_cache)
        p = handle.plan
        self.model_plan: Plan = p
        self.plan_cache_state: str = handle.source
        self.plan_build_ms: float = handle.build_ms

        # -- port table (plan declaration order) -------------------------
        self._names: List[str] = list(p.port_names)
        self._values: List[int] = list(p.port_inits)
        self._index: dict[str, int] = dict(p.port_index)
        self._resolved: set[int] = set(p.resolved)
        self._reg_out_idx: dict[str, int] = {
            reg: out_idx for reg, _in_idx, out_idx in p.reg_ports
        }
        for reg, init in overrides.items():
            if init != DISC:
                init %= 1 << model.width
            self._values[self._reg_out_idx[reg]] = init
        self._reg_latches: List[tuple[int, int]] = [
            (in_idx, out_idx) for _reg, in_idx, out_idx in p.reg_ports
        ]
        # Operation bodies live in the model; the plan carries layout.
        self._module_evals = [
            (
                mp.out_idx,
                compile_module_eval(
                    mp, model.modules[mp.name].operations, self._values
                ),
            )
            for mp in p.modules
        ]

        # -- driver table (one per TRANS instance, in spec order) --------
        self._drv_contrib: List[int] = [DISC] * p.num_drivers
        self._drv_owner = p.drv_owner
        self._drv_sink = p.drv_sink
        self._sink_drivers = p.sink_drivers
        self._asserts = p.asserts
        self._releases = p.releases

        # -- observers ---------------------------------------------------
        self._probe = observe
        self.monitor = ConflictLog(
            listener=observe.on_conflict if observe is not None else None
        )
        self._active_illegal: set[int] = set()
        #: port indices whose effective value changed this cycle
        #: (tracked only while a probe is attached).
        self._cycle_changed: set[int] = set()
        self._bus_count = p.bus_count
        self.tracer: Optional[TraceLog] = None
        self._trace_items: Optional[List[tuple[str, int]]] = None
        if trace or watch:
            watched = list(watch) if watch else list(self._names)
            for extra in watched:
                if extra not in self._index:
                    raise ModelError(f"cannot watch unknown signal {extra!r}")
            if watch:
                # Subset fast path: sample only the watched ports, so
                # chip-scale sweeps don't pay all-ports trace memory.
                self._trace_items = [(n, self._index[n]) for n in watched]
            self.tracer = TraceLog(watched)

        # -- execution state --------------------------------------------
        self.stats = SimStats()
        # The kernel's initialization cycle: one cycle, and the
        # controller's initial CS/PH assignments (two transactions).
        self.stats.cycles = 1
        self.stats.transactions = 2
        self._schedule = schedule_points(model.cs_max)
        self._pos = 0
        #: updates scheduled during the current cycle, due next cycle:
        #: (driver index, value) and (port index, value) respectively.
        self._pend_drv: List[tuple[int, int]] = []
        self._pend_out: List[tuple[int, int]] = []
        self._finished = False
        self._ran = False

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self) -> "CompiledRTSimulation":
        """Run the model to quiescence (all ``cs_max`` control steps)."""
        from ..observe.metrics import record_backend_run

        if self._probe is None:
            self._execute_until(len(self._schedule))
            if not self._finished:
                self._finish()
            self._ran = True
            record_backend_run(self)
            return self
        import time as _time

        self._probe.on_run_start(self)
        t0 = _time.perf_counter()
        self._execute_until(len(self._schedule))
        if not self._finished:
            self._finish()
        self._ran = True
        self._probe.on_run_end(self, _time.perf_counter() - t0)
        record_backend_run(self)
        return self

    def rearm(
        self, register_values: Optional[Mapping[str, int]] = None
    ) -> "CompiledRTSimulation":
        """Reset this elaboration to time zero with new overrides.

        Every compiled table (ports, drivers, action tables, module
        evaluators) is input-independent, so re-running the same design
        only needs the *state* reset: the value plane and driver
        contributions are rewritten **in place** -- the module-eval
        closures (and the generated kernels of the codegen subclass)
        bind those containers at elaboration time -- the monitor and
        stats restart, and an attached tracer is cleared.  This is the
        serving hot path (:mod:`repro.serve` re-arms one cached
        elaboration per lane instead of re-elaborating per request);
        results are bit-identical to a fresh elaboration with the same
        ``register_values``.  Not supported with a probe attached (its
        emission hooks snapshot previous values at elaboration time).
        """
        if self._probe is not None:
            raise ModelError("rearm() does not support an attached probe")
        overrides = dict(register_values or {})
        unknown = set(overrides) - set(self.model.registers)
        if unknown:
            raise ModelError(
                f"register_values for unknown registers: {sorted(unknown)}"
            )
        p = self.model_plan
        values = self._values
        values[:] = p.port_inits
        width = self.model.width
        for reg, init in overrides.items():
            if init != DISC:
                init %= 1 << width
            values[self._reg_out_idx[reg]] = init
        self._drv_contrib[:] = [DISC] * p.num_drivers
        self.monitor = ConflictLog()
        self._active_illegal.clear()
        self._cycle_changed.clear()
        if self.tracer is not None:
            self.tracer.reset()
        self.stats = SimStats()
        self.stats.cycles = 1
        self.stats.transactions = 2
        self._pos = 0
        self._pend_drv.clear()
        self._pend_out.clear()
        self._finished = False
        self._ran = False
        return self

    def run_steps(self, steps: int) -> "CompiledRTSimulation":
        """Run only the first ``steps`` control steps (for debugging).

        Stops right after the (steps, RA) cycle executes -- the cycle
        in which CS reaches ``steps`` and the previous step's register
        latches land -- exactly where the event kernel's ``run_steps``
        loop exits.  ``steps > cs_max`` runs to quiescence.
        """
        if steps > self.model.cs_max:
            return self.run()
        if steps >= 1:
            self._execute_until((steps - 1) * PHASES_PER_STEP + 1)
        self._ran = True
        return self

    def _execute_until(self, end_pos: int) -> None:
        stats = self.stats
        values = self._values
        tracer = self.tracer
        while self._pos < end_pos:
            at = self._schedule[self._pos]
            self._pos += 1
            if stats.delta_cycles >= self._max_deltas:
                raise DeltaCycleLimitError(self._max_deltas)
            stats.cycles += 1
            stats.delta_cycles += 1
            stats.process_resumes += 1  # one fused dispatch per cycle
            # Controller bookkeeping the kernel performs each cycle: a
            # PH event always, plus CS in RA and the tick in CM/CR;
            # transactions follow the controller's schedule-time
            # profile (nothing is scheduled during the final CR).
            stats.events += 1 + _EXTRA_EVENTS.get(int(at.phase), 0)
            if self._pos < len(self._schedule) or at.phase is not Phase.CR:
                stats.transactions += _SCHED_TX[int(at.phase)]
            self._apply_pending(at, record_conflicts=True)
            if tracer is not None:
                if self._trace_items is not None:
                    tracer.append(
                        at,
                        {name: values[idx] for name, idx in self._trace_items},
                    )
                else:
                    tracer.append(at, dict(zip(self._names, values)))
            if self._probe is not None:
                self._emit_cycle(at)
            # -- this cycle's actions (due next cycle) -------------------
            key = (at.step, int(at.phase))
            for drv, src, const in self._asserts.get(key, ()):
                self._pend_drv.append(
                    (drv, values[src] if src is not None else const)
                )
                stats.transactions += 1
            for drv in self._releases.get(key, ()):
                self._pend_drv.append((drv, DISC))
                stats.transactions += 1
            phase = at.phase
            if phase is Phase.CM:
                for out_idx, evaluate in self._module_evals:
                    self._pend_out.append((out_idx, evaluate()))
                    stats.transactions += 1
            elif phase is Phase.CR:
                for in_idx, out_idx in self._reg_latches:
                    if values[in_idx] != DISC:
                        self._pend_out.append((out_idx, values[in_idx]))
                        stats.transactions += 1

    def _finish(self) -> None:
        """The trailing delta cycle, when the final CR left updates in
        flight (WB releases and register latches of step ``cs_max``).
        No conflicts are attributable there -- the kernel's monitor
        never drains without a PH event -- and no trace sample is
        taken, matching the event elaboration exactly."""
        self._finished = True
        if not (self._pend_drv or self._pend_out):
            return
        self.stats.cycles += 1
        self.stats.delta_cycles += 1
        last = self._schedule[-1]
        self._apply_pending(last, record_conflicts=False)
        # The event kernel's probe adapter never wakes in this cycle
        # (no PH event), so the trailing updates stay unobserved there
        # too -- drop them rather than emit an unmatched record.
        self._cycle_changed.clear()

    def _apply_pending(self, at: StepPhase, record_conflicts: bool) -> None:
        """Apply updates scheduled in the previous cycle.

        Replicates the kernel's update step: driver contributions land
        first-touch-ordered on their resolved sinks (a transaction on a
        resolved sink re-resolves even without a contribution change),
        single-driver ports change directly, and each effective-value
        change counts one event.  Conflict events are recorded for
        sinks that newly resolved to ILLEGAL, with all of the cycle's
        updates already applied when sources are read -- the kernel's
        monitor drains after the update phase.
        """
        if not (self._pend_drv or self._pend_out):
            return
        pend_drv, self._pend_drv = self._pend_drv, []
        pend_out, self._pend_out = self._pend_out, []
        values = self._values
        contrib = self._drv_contrib
        stats = self.stats
        track = self._cycle_changed if self._probe is not None else None
        dirty: List[int] = []
        seen: set[int] = set()
        for drv, value in pend_drv:
            contrib[drv] = value
            sink = self._drv_sink[drv]
            if sink not in seen:
                seen.add(sink)
                dirty.append(sink)
        for idx, value in pend_out:
            if values[idx] != value:
                values[idx] = value
                stats.events += 1
                if track is not None:
                    track.add(idx)
        newly_illegal: List[int] = []
        for sink in dirty:
            new = resolve_rt(
                [contrib[d] for d in self._sink_drivers[sink]]
            )
            if new == values[sink]:
                continue
            values[sink] = new
            stats.events += 1
            if track is not None:
                track.add(sink)
            if new == ILLEGAL:
                if sink not in self._active_illegal:
                    self._active_illegal.add(sink)
                    newly_illegal.append(sink)
            else:
                self._active_illegal.discard(sink)
        if record_conflicts:
            for sink in newly_illegal:
                sources = tuple(
                    (self._drv_owner[d], contrib[d])
                    for d in self._sink_drivers[sink]
                    if contrib[d] != DISC
                )
                self.monitor.record(
                    ConflictEvent(self._names[sink], at, sources)
                )

    def _emit_cycle(self, at: StepPhase) -> None:
        """Forward this cycle's observations to the attached probe.

        Collects the changed ports and defers to
        :func:`~repro.observe.emit.emit_canonical_cycle` -- the same
        canonical-order helper the event kernel's adapter and the
        batched backend use.  Conflicts were already forwarded by
        the monitor listener during ``_apply_pending`` -- the same
        relative order the kernel's monitor process (created before
        the adapter) produces.
        """
        changed = self._cycle_changed
        values = self._values
        names = self._names
        drives = [
            (names[idx], values[idx])
            for idx in range(self._bus_count)
            if idx in changed
        ]
        latches = [
            (reg, values[idx])
            for reg, idx in self._reg_out_idx.items()
            if idx in changed
        ]
        changed.clear()
        emit_canonical_cycle(self._probe, at, drives, latches)

    # ------------------------------------------------------------------
    # results (mirrors RTSimulation)
    # ------------------------------------------------------------------
    @property
    def registers(self) -> dict[str, int]:
        """Current value of every register's output port."""
        return {
            name: self._values[idx]
            for name, idx in self._reg_out_idx.items()
        }

    def __getitem__(self, register: str) -> int:
        """Value of one register (``sim["R1"]``)."""
        try:
            return self._values[self._reg_out_idx[register]]
        except KeyError:
            raise KeyError(f"unknown register {register!r}") from None

    @property
    def conflicts(self) -> list[ConflictEvent]:
        """Observed ILLEGAL episodes, localized to (step, phase)."""
        return self.monitor.events

    @property
    def clean(self) -> bool:
        """True when the run produced no ILLEGAL value anywhere."""
        return self.monitor.clean and not any(
            value == ILLEGAL for value in self.registers.values()
        )

    def signal(self, name: str) -> PortView:
        """Access a port/bus value view by name (e.g. ``"ADD_out"``)."""
        try:
            return PortView(name, self._values, self._index[name])
        except KeyError:
            raise KeyError(f"unknown signal {name!r}") from None
