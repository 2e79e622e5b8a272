"""The benchmark's designs and seeded inputs, with their references.

Every input is drawn from ``random.Random(seed)``; the program under
test only ever receives the generated values.  References come from
executors other than the measured ``compiled-py`` path: the
``compiled`` table interpreter for Fig. 1, direct program evaluation
(``SynthesisResult.reference``) for FIR-16, and the ``event``
delta-cycle kernel for delta-cycle counts.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.core import ModuleSpec, RTModel
from repro.hls import synthesize

#: Distinct input vectors per serve run.  Requests cycle through the
#: pool, so each vector's reference is computed once and every
#: response is still checked against it.
POOL = 512

FIR_TAPS = 16
FIR_RESOURCES = {"ALU": 2, "MUL": 2}
FIR_INPUT_RANGE = 4096


def fig1_model(r2_init: int = 3) -> RTModel:
    """The paper's Fig. 1 example: R1 + R2 -> R1 in control steps 5/6.

    ``r2_init`` bakes a different R2 preset into the model, which gives
    a design with a new digest and identical structure."""
    model = RTModel("example", cs_max=7)
    model.register("R1", init=2)
    model.register("R2", init=r2_init)
    model.bus("B1")
    model.bus("B2")
    model.module(ModuleSpec("ADD", latency=1))
    model.add_transfer("(R1,B1,R2,B2,5,ADD,6,B1,R1)")
    return model


def fir_program(taps: int = FIR_TAPS, offset: int = 0) -> str:
    """A ``taps``-tap FIR filter; ``offset`` is added to the output, so
    each offset is a distinct design of the same shape."""
    lines = [f"p{i} = x{i} * c{i}" for i in range(taps)]
    acc = "p0"
    for i in range(1, taps):
        lines.append(f"s{i} = {acc} + p{i}")
        acc = f"s{i}"
    lines.append(f"y = {acc} + {offset}")
    return "\n".join(lines)


def fir16(offset: int = 0):
    """The FIR-16 design as synthesized by ``repro.hls``."""
    return synthesize(
        fir_program(FIR_TAPS, offset), FIR_RESOURCES, name="fir16"
    )


def fig1_vectors(seed: int, count: int = POOL) -> List[Dict[str, int]]:
    rng = random.Random(seed)
    return [
        {"R1": rng.randrange(1 << 32), "R2": rng.randrange(1 << 32)}
        for _ in range(count)
    ]


def fir_vectors(synth, seed: int, count: int = POOL) -> List[Dict[str, int]]:
    rng = random.Random(seed)
    return [
        {name: rng.randrange(FIR_INPUT_RANGE) for name in synth.program.inputs}
        for _ in range(count)
    ]


def fig1_reference(model: RTModel, vector: Dict[str, int]) -> Tuple[dict, bool]:
    """Registers and clean flag from the ``compiled`` interpreter."""
    sim = model.elaborate(register_values=vector, backend="compiled").run()
    return dict(sim.registers), bool(sim.clean)


def reference_deltas(model: RTModel, vector=None) -> int:
    """Delta cycles of one run on the ``event`` kernel."""
    sim = model.elaborate(register_values=vector, backend="event").run()
    return sim.stats.delta_cycles
