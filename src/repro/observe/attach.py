"""Event-kernel realization of the probe stream.

:class:`KernelProbeAdapter` is to :class:`~repro.observe.probe.Probe`
what :class:`~repro.core.diagnostics.ConflictMonitor` is to
:class:`~repro.core.diagnostics.ConflictLog`: watcher callbacks record
raw signal activity as it happens (cheap, no process wakeups), and one
drain process sensitive to the phase signal stamps each cycle's
observations with the ``(CS, PH)`` in force and forwards them through
:func:`~repro.observe.emit.emit_canonical_cycle` -- the shared
canonical per-cycle order (step boundary on RA only, phase boundary,
bus drives in bus declaration order, register latches in register
declaration order) that the compiled executors use too.

Conflicts are *not* produced here: the simulation's own
:class:`ConflictMonitor` forwards them via its record listener, which
runs before this adapter's drain in the same cycle (monitor process is
created first), matching the compiled executor's emission order
exactly.
"""

from __future__ import annotations

from typing import Sequence

from ..core.phases import Phase, StepPhase
from ..kernel import Signal, Simulator, wait_on
from .emit import emit_canonical_cycle
from .probe import Probe


class KernelProbeAdapter:
    """Feeds a :class:`Probe` from a running kernel elaboration.

    Parameters
    ----------
    sim, cs, ph:
        The kernel simulator and the control-step/phase signals.
    buses:
        Bus signals, in model declaration order.
    reg_outs:
        ``(register name, output signal)`` pairs, in declaration order.
    probe:
        The observer to drive.
    """

    def __init__(
        self,
        sim: Simulator,
        cs: Signal,
        ph: Signal,
        buses: Sequence[Signal],
        reg_outs: Sequence[tuple[str, Signal]],
        probe: Probe,
        name: str = "probe_adapter",
    ) -> None:
        self._cs = cs
        self._ph = ph
        self._probe = probe
        self._buses = list(buses)
        self._reg_outs = list(reg_outs)
        self._changed_buses: set[str] = set()
        self._changed_regs: set[str] = set()
        for sig in self._buses:
            sig.watch(self._on_bus_event)
        for _, sig in self._reg_outs:
            sig.watch(self._on_reg_event)
        sim.add_process(name, self._process)

    def _on_bus_event(self, sig: Signal, old: int, new: int) -> None:
        self._changed_buses.add(sig.name)

    def _on_reg_event(self, sig: Signal, old: int, new: int) -> None:
        self._changed_regs.add(sig.name)

    def _process(self):
        probe = self._probe
        while True:
            yield wait_on(self._ph)
            at = StepPhase(self._cs.value, Phase(self._ph.value))
            drives = [
                (sig.name, sig.value)
                for sig in self._buses
                if sig.name in self._changed_buses
            ]
            latches = [
                (reg, sig.value)
                for reg, sig in self._reg_outs
                if sig.name in self._changed_regs
            ]
            self._changed_buses.clear()
            self._changed_regs.clear()
            emit_canonical_cycle(probe, at, drives, latches)
