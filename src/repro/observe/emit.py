"""The canonical per-cycle probe emission order, in one place.

Every RT backend drives an attached :class:`~repro.observe.probe.Probe`
with the *same* ordered stream (pinned by the differential probe
tests): within one simulation cycle, conflicts are forwarded first
(through the conflict monitor's listener), then the step boundary (RA
cycles only), the phase boundary, bus drives in bus declaration order,
and register latches in register declaration order.

:func:`emit_canonical_cycle` is that contract as code.  The event
kernel's :class:`~repro.observe.attach.KernelProbeAdapter`, the
compiled executor, the generated executor and the batched executor
(N == 1) all call it instead of each re-implementing the ordering; the NDJSON stream server inherits the
order for free by being an ordinary probe.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Tuple

from ..core.phases import Phase

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.phases import StepPhase
    from .probe import Probe


def emit_canonical_cycle(
    probe: "Probe",
    at: "StepPhase",
    bus_drives: Iterable[Tuple[str, int]],
    register_latches: Iterable[Tuple[str, int]],
) -> None:
    """Forward one cycle's observations in the canonical order.

    ``bus_drives`` and ``register_latches`` must already be in
    declaration order (the caller owns the declaration tables); this
    helper owns everything else: the step boundary fires only on RA
    cycles, the phase boundary precedes all value callbacks, and buses
    precede register latches.  Conflicts are *not* emitted here -- they
    stream through the conflict monitor's listener before the cycle is
    re-serialized, on every backend.
    """
    if at.phase is Phase.RA:
        probe.on_step(at.step)
    probe.on_phase(at)
    for bus, value in bus_drives:
        probe.on_bus_drive(at, bus, value)
    for register, value in register_latches:
        probe.on_register_latch(at, register, value)
