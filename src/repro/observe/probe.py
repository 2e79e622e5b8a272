"""The probe protocol: callbacks at the observable seams of a run.

The paper's central practical claim (§2.7) is *localizability*: design
errors surface as ILLEGAL values "in specific simulation cycles
associated with a specific phase of a specific control step".  A
:class:`Probe` receives exactly those observable moments -- control-step
and phase boundaries, register latches, bus drives, conflict events --
no matter which engine executes the model, so one observer works
unchanged across the event kernel, the compiled executor, the clocked
translation and the handshake style.

Design rules:

* **Zero-cost when absent.**  Backends take ``observe=None`` and guard
  every hook with ``if probe is not None``; no watcher process, no
  callback, no timestamp is installed on the disabled path (the E6
  benchmark asserts kernel counters identical to a run that never
  named the keyword).
* **Deterministic order.**  Within one simulation cycle the emission
  order is fixed -- conflicts recorded by the monitor, then the step
  boundary (RA only), the phase boundary, bus drives in bus declaration
  order, register latches in register declaration order.  The
  differential test pins that the *same probe* attached to the event
  and compiled backends sees identical ordered sequences.
* **Attribution matches the trace.**  A value driven during cycle *k*
  becomes effective in cycle *k + 1* (the kernel's driver pipeline);
  probes observe effective-value changes, stamped with the ``(CS, PH)``
  in force when the change landed -- the same attribution the tracer
  and the conflict monitor use.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, List

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.diagnostics import ConflictEvent
    from ..core.phases import StepPhase


class Probe:
    """Base class / protocol for run observers.

    Every callback is a no-op here; subclass and override what you
    need.  Backends call these in a fixed per-cycle order (see the
    module docstring); ``on_run_start``/``on_run_end`` bracket the
    whole run and receive the backend object itself, so observers can
    snapshot final registers, stats and cleanliness without holding a
    separate reference.
    """

    def on_run_start(self, backend: Any) -> None:
        """The backend is about to execute (``run()`` entry)."""

    def on_step(self, step: int) -> None:
        """A control-step boundary: CS just became ``step``."""

    def on_phase(self, at: "StepPhase") -> None:
        """A phase boundary: the cycle at ``at`` is executing."""

    def on_bus_drive(self, at: "StepPhase | None", bus: str, value: int) -> None:
        """The effective value of ``bus`` changed to ``value`` at ``at``.

        ``at`` is None for styles without control-step time (the
        handshake network reports sink tokens through this hook).
        """

    def on_register_latch(
        self, at: "StepPhase | None", register: str, value: int
    ) -> None:
        """``register``'s output port took ``value`` at ``at``."""

    def on_conflict(self, event: "ConflictEvent") -> None:
        """A resolved signal materialized ILLEGAL (see the event's
        ``(CS, PH)`` location and colliding drivers)."""

    def on_run_end(self, backend: Any, wall: float) -> None:
        """The run finished; ``wall`` is its wall-clock seconds."""


class ProbeSet(Probe):
    """Fan one observation stream out to several probes, in order.

    ``ProbeSet(recorder, profiler)`` lets the CLI attach the JSONL
    recorder and the per-phase profiler in one pass without the
    backends knowing how many observers exist.
    """

    def __init__(self, *probes: Probe) -> None:
        self.probes: List[Probe] = [p for p in probes if p is not None]

    def on_run_start(self, backend: Any) -> None:
        for p in self.probes:
            p.on_run_start(backend)

    def on_step(self, step: int) -> None:
        for p in self.probes:
            p.on_step(step)

    def on_phase(self, at: "StepPhase") -> None:
        for p in self.probes:
            p.on_phase(at)

    def on_bus_drive(self, at, bus: str, value: int) -> None:
        for p in self.probes:
            p.on_bus_drive(at, bus, value)

    def on_register_latch(self, at, register: str, value: int) -> None:
        for p in self.probes:
            p.on_register_latch(at, register, value)

    def on_conflict(self, event) -> None:
        for p in self.probes:
            p.on_conflict(event)

    def on_run_end(self, backend: Any, wall: float) -> None:
        for p in self.probes:
            p.on_run_end(backend, wall)


def combine_probes(probes: Iterable[Probe]) -> "Probe | None":
    """One probe out of many: None for none, the probe itself for one,
    a :class:`ProbeSet` otherwise (used by the CLI flag plumbing)."""
    active = [p for p in probes if p is not None]
    if not active:
        return None
    if len(active) == 1:
        return active[0]
    return ProbeSet(*active)
