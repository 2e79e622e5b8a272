"""End-to-end IKS flow: microcode -> RT model -> simulation -> angles.

This is the paper's §3 scenario in one call: build the Fig.-3 chip,
translate the microprogram into register transfers (the C program's
job), simulate the clock-free RT model, and decode the joint angles --
then optionally compare them against the algorithmic-level reference
(the "bottom-up evaluation" the paper describes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..engine import Backend
from ..microcode.translator import MicrocodeTranslator, TranslationResult
from .algorithm import IKSolution, solve_ik
from .chip import ACCUMULATORS, IKSConfig, build_chip
from .microprogram import RESULT_REGISTERS, ik_microprogram


@dataclass
class IKSRun:
    """Everything produced by one chip run."""

    simulation: Backend
    translation: TranslationResult
    theta1: int
    theta2: int
    theta1_rad: float
    theta2_rad: float

    @property
    def clean(self) -> bool:
        """True when the run produced no resource conflict."""
        return self.simulation.clean


def build_ik_model(px: float, py: float, config: Optional[IKSConfig] = None):
    """Chip model + translated IK microprogram, ready to elaborate.

    Returns ``(model, translation)``.
    """
    cfg = config or IKSConfig()
    model = build_chip(cfg, px=px, py=py)
    table, maps = ik_microprogram()
    translator = MicrocodeTranslator(model, ACCUMULATORS)
    translation = translator.translate(table, maps)
    return model, translation


def run_ik_chip(
    px: float,
    py: float,
    config: Optional[IKSConfig] = None,
    trace: bool = False,
    backend: str = "event",
    transfer_engine: bool = True,
    observe=None,
    plan_cache=None,
) -> IKSRun:
    """Simulate the IKS chip solving for target ``(px, py)``."""
    cfg = config or IKSConfig()
    model, translation = build_ik_model(px, py, cfg)
    sim = model.elaborate(
        trace=trace, backend=backend, transfer_engine=transfer_engine,
        observe=observe, plan_cache=plan_cache,
    ).run()
    theta1 = sim[RESULT_REGISTERS["theta1"]]
    theta2 = sim[RESULT_REGISTERS["theta2"]]
    return IKSRun(
        simulation=sim,
        translation=translation,
        theta1=theta1,
        theta2=theta2,
        theta1_rad=cfg.fmt.decode(theta1),
        theta2_rad=cfg.fmt.decode(theta2),
    )


def crosscheck(
    px: float,
    py: float,
    config: Optional[IKSConfig] = None,
    backend: str = "event",
    transfer_engine: bool = True,
    trace: bool = False,
    observe=None,
    plan_cache=None,
) -> tuple[IKSRun, IKSolution]:
    """Run chip and algorithmic reference on the same target.

    The two must agree *bit-exactly*: the RT model executes the same
    integer operations in the same order as :func:`solve_ik`.
    """
    cfg = config or IKSConfig()
    run = run_ik_chip(
        px, py, cfg, trace=trace, backend=backend,
        transfer_engine=transfer_engine, observe=observe,
        plan_cache=plan_cache,
    )
    reference = solve_ik(px, py, cfg.geometry, cfg.fmt, cfg.cordic_spec)
    return run, reference


@dataclass
class FKRun:
    """Result of running the forward-kinematics microprogram."""

    simulation: Backend
    x: int
    y: int
    x_real: float
    y_real: float

    @property
    def clean(self) -> bool:
        return self.simulation.clean


def run_fk_chip(
    theta1: float,
    theta2: float,
    config: Optional[IKSConfig] = None,
) -> FKRun:
    """Simulate the chip computing forward kinematics for the angles."""
    from .chip import build_chip as _build_chip
    from .microprogram import (
        FK_INPUT_SLOTS,
        FK_RESULT_REGISTERS,
        fk_microprogram,
    )

    cfg = config or IKSConfig(cs_max=31)
    model = _build_chip(
        cfg,
        j_values={
            FK_INPUT_SLOTS["theta1"]: theta1,
            FK_INPUT_SLOTS["theta2"]: theta2,
        },
    )
    table, maps = fk_microprogram()
    MicrocodeTranslator(model, ACCUMULATORS).translate(table, maps)
    sim = model.elaborate().run()
    x = sim[FK_RESULT_REGISTERS["x"]]
    y = sim[FK_RESULT_REGISTERS["y"]]
    return FKRun(
        simulation=sim,
        x=x,
        y=y,
        x_real=cfg.fmt.decode(x),
        y_real=cfg.fmt.decode(y),
    )


@dataclass
class IK3Run:
    """Result of the three-DOF chip run."""

    simulation: Backend
    theta1: int
    theta2: int
    theta3: int
    theta1_rad: float
    theta2_rad: float
    theta3_rad: float

    @property
    def clean(self) -> bool:
        return self.simulation.clean


def build_ik3_model(
    px: float, py: float, phi: float, config: Optional[IKSConfig] = None
):
    """Chip model with the composed 3-DOF program (prologue + two-link
    body + epilogue) translated onto it."""
    from .chip import build_chip as _build_chip
    from .microprogram import (
        IK3_BODY_STEPS,
        IK3_PROLOGUE_STEPS,
        IK3_TOTAL_STEPS,
        ik3_epilogue,
        ik3_prologue,
    )

    cfg = config or IKSConfig(cs_max=IK3_TOTAL_STEPS + 1)
    model = _build_chip(cfg, px=px, py=py, j_values={4: phi})
    for table, maps, start in (
        (*ik3_prologue(), 1),
        (*ik_microprogram(), IK3_PROLOGUE_STEPS + 1),
        (*ik3_epilogue(), IK3_PROLOGUE_STEPS + IK3_BODY_STEPS + 1),
    ):
        MicrocodeTranslator(model, ACCUMULATORS, start_step=start).translate(
            table, maps
        )
    return model


def run_ik3_chip(
    px: float,
    py: float,
    phi: float,
    config: Optional[IKSConfig] = None,
    backend: str = "event",
    transfer_engine: bool = True,
    trace: bool = False,
    observe=None,
    plan_cache=None,
) -> IK3Run:
    """Simulate the chip solving the 3-DOF problem (position + tool
    orientation)."""
    from .microprogram import IK3_RESULT_REGISTERS, IK3_TOTAL_STEPS

    cfg = config or IKSConfig(cs_max=IK3_TOTAL_STEPS + 1)
    model = build_ik3_model(px, py, phi, cfg)
    sim = model.elaborate(
        backend=backend, transfer_engine=transfer_engine, trace=trace,
        observe=observe, plan_cache=plan_cache,
    ).run()
    theta1 = sim[IK3_RESULT_REGISTERS["theta1"]]
    theta2 = sim[IK3_RESULT_REGISTERS["theta2"]]
    theta3 = sim[IK3_RESULT_REGISTERS["theta3"]]
    return IK3Run(
        simulation=sim,
        theta1=theta1,
        theta2=theta2,
        theta3=theta3,
        theta1_rad=cfg.fmt.decode(theta1),
        theta2_rad=cfg.fmt.decode(theta2),
        theta3_rad=cfg.fmt.decode(theta3),
    )


def fk_of_ik(
    px: float, py: float, config: Optional[IKSConfig] = None
) -> tuple[IKSRun, FKRun]:
    """The on-chip consistency loop: FK(IK(target)) ~= target.

    The joint angles computed by the IK microprogram are fed back
    into the FK microprogram; the returned FK coordinates must land
    on the original target up to fixed-point quantization.
    """
    cfg = config or IKSConfig()
    ik = run_ik_chip(px, py, cfg)
    fk_cfg = IKSConfig(
        geometry=cfg.geometry, fmt=cfg.fmt, cs_max=31,
        cordic_latency=cfg.cordic_latency, mult_latency=cfg.mult_latency,
    )
    fk = run_fk_chip(ik.theta1_rad, ik.theta2_rad, fk_cfg)
    return ik, fk
