"""The codegen backend: per-model specialized kernels from the Plan IR.

The interpreting backends (:mod:`repro.engine.compiled` and its batched
twin) walk the lowered :class:`~repro.engine.plan.Plan` tables every
cycle: dict lookups for the per-``(CS, PH)`` assert/release actions,
tuple iteration over pending driver updates, closure dispatch per
module evaluation.  All of that is *static* per model -- the paper's
clockless RT subset has no runtime scheduler at all -- so this module
compiles it away:

* :func:`generate_source` walks a Plan and emits one specialized
  Python module per model: straight-line code per ``(CS, PH)`` cycle
  with every table lookup, port index, width mask and
  conflict-resolution order constant-folded into the source (no
  per-event dict/tuple dispatch remains).  The module exposes
  ``bind(...)``, returning per-control-step *chunk* thunks for the
  scalar executor, and ``CHUNK_STATS``, the statically known part of
  the cycle accounting.  There is no generated batch twin: wide sweeps
  run on the ``compiled-batched`` table plane, which elaborates in a
  few milliseconds where a generated plane took hundreds and then ran
  at most about 1.5x faster (``docs/architecture.md``).

* :class:`CodegenCache` stores each generated module next to the plan
  cache as ``codegen/v<CODEGEN_VERSION>/<model_digest>.py`` (plus a
  marshal sidecar of the compiled code object, so warm starts skip
  both generation *and* recompilation).  Reads are lenient, mirroring
  :class:`~repro.engine.plan.PlanCache`: a truncated, foreign or
  digest-mismatched artifact is discarded with one RuntimeWarning and
  regenerated.

* :class:`CodegenRTSimulation` (backend ``compiled-py``) subclasses the
  interpreting executor, replacing only the hot loop: result surface,
  stats accounting, traces, conflicts and the canonical probe stream
  are bit-identical (differential-tested in
  ``tests/engine/test_codegen_backend.py``).  Anything the generated
  code cannot reproduce exactly -- a ``max_deltas`` below the schedule
  length (the per-cycle limit check is semantic there), a
  mixed-arity multi-op module, a generation failure -- falls back to
  the interpreter transparently (``codegen_mode == "interpreter"``);
  otherwise the exec'd chunk thunks run (``codegen_mode == "exec"``).

``resolve_codegen`` reports its outcome (``hit`` / ``miss`` / ``off``
plus the build wall time) through
:func:`repro.observe.metrics.record_codegen_request` and the
``codegen_cache`` / ``codegen_build_ms`` / ``codegen_mode`` rows of
:func:`repro.engine.run_metrics`.
"""

from __future__ import annotations

import marshal
import pickle
import re
import shutil
import sys
import threading
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from ..core.diagnostics import ConflictEvent
from ..core.model import RTModel
from ..core.phases import PHASES_PER_STEP
from ..core.values import DISC
from ..observe.emit import emit_canonical_cycle
from .batched import CompiledBatchedRTSimulation
from .compiled import _EXTRA_EVENTS, _SCHED_TX, CompiledRTSimulation
from .plan import (
    _MAGIC,
    PLAN_VERSION,
    Plan,
    PlanCacheArg,
    PlanHandle,
    as_plan_cache,
    default_cache_root,
    warn_entry_once,
    write_atomic,
)

#: Bump when the generated-module layout changes; versions the artifact
#: directory and the in-file header, so stale artifacts are discarded.
CODEGEN_VERSION = 4

#: Marshal sidecar header magic (the ``.pyc``-style fast-load twin).
_CODE_MAGIC = "repro-codegen-code"

_PH_NAMES = ("RA", "RB", "CM", "WA", "WB", "CR")

#: Per-module op arities, aligned with ``ModulePlan.op_names`` -- the
#: one model-side fact generation needs that the Plan does not carry
#: (operation bodies select their own operand slice).
OpArities = Tuple[Tuple[int, ...], ...]


class CodegenError(RuntimeError):
    """Raised when generation or artifact loading fails terminally."""


# ----------------------------------------------------------------------
# source generation
# ----------------------------------------------------------------------
class _Emitter:
    """Tiny indented-line builder for the generated source."""

    def __init__(self) -> None:
        self.lines: List[str] = []

    def line(self, indent: int, text: str = "") -> None:
        self.lines.append("    " * indent + text if text else "")


def _chunk_ranges(cs_max: int) -> List[Tuple[int, int]]:
    """Cycle-position ranges of the per-control-step chunks.

    Chunk boundaries sit right after each ``(step, RA)`` cycle -- the
    exact positions ``run_steps`` stops at -- so chunk 0 is the lone
    ``(1, RA)`` prelude, chunks ``1 .. cs_max-1`` each cover
    ``RB..CR`` of their step plus the next step's ``RA``, and the
    final chunk covers ``RB..CR`` of step ``cs_max`` plus the
    conditional trailing delta cycle.
    """
    total = cs_max * PHASES_PER_STEP
    ranges = [(0, 1)]
    for s in range(1, cs_max):
        ranges.append(((s - 1) * PHASES_PER_STEP + 1, s * PHASES_PER_STEP + 1))
    ranges.append(((cs_max - 1) * PHASES_PER_STEP + 1, total))
    return ranges


def _cycle_actions(plan: Plan, pos: int):
    """Static actions *scheduled during* cycle ``pos``."""
    step, ph = pos // PHASES_PER_STEP + 1, pos % PHASES_PER_STEP
    key = (step, ph)
    return step, ph, plan.asserts.get(key, ()), plan.releases.get(key, ())


def _dirty_sinks(plan: Plan, acts, rels) -> List[int]:
    """First-touch-ordered sinks of the cycle's driver updates."""
    dirty: List[int] = []
    seen: set = set()
    for drv in [a[0] for a in acts] + list(rels):
        sink = plan.drv_sink[drv]
        if sink not in seen:
            seen.add(sink)
            dirty.append(sink)
    return dirty


def _inline_plan(mp, arities: Tuple[int, ...]):
    """How to inline a module's combine, or None (interpreter closure).

    ``("uniform", a)`` -- every operation takes the same ``a`` operands,
    one shared combine with a dynamic op-table index suffices.
    ``("dispatch", arities)`` -- operand counts differ per operation,
    so the op-code select dispatches to per-operation combine branches
    (each checking exactly its own operand slice, like ``_combine``).
    """
    if not arities:
        return None
    if any(a not in (1, 2) or a > len(mp.in_idxs) for a in arities):
        return None
    if len(set(arities)) == 1:
        return ("uniform", arities[0])
    if mp.op_idx is None:  # pragma: no cover - multi-op implies op port
        return None
    return ("dispatch", arities)


def _combine_expr(fn: str, arity: int, mask: int) -> str:
    """One-line conditional-expression combine for a fixed operation."""
    if arity == 1:
        return (
            f"-2 if _i0 == -2 else -1 if _i0 == -1 "
            f"else {fn}(_i0) % {mask}"
        )
    return (
        f"-2 if _i0 == -2 or _i1 == -2 "
        f"else -1 if _i0 == -1 and _i1 == -1 "
        f"else -2 if _i0 == -1 or _i1 == -1 "
        f"else {fn}(_i0, _i1) % {mask}"
    )


def _emit_combined_scalar(em: _Emitter, ind: int, k: int, mp, inline) -> None:
    """The all-or-none operand combine + §3 op select, into ``_c``.

    Replicates ``compile_module_eval``'s ``combined()`` exactly: an
    out-of-range or ILLEGAL op code poisons the result *before* the
    operand checks, DISC selects the default operation, and results
    reduce modulo ``2**width``.
    """
    mask = 1 << mp.width
    mode, detail = inline
    if mode == "dispatch":
        arities: Tuple[int, ...] = detail
        for j, idx in enumerate(mp.in_idxs[: max(arities)]):
            em.line(ind, f"_i{j} = V[{idx}]")
        em.line(ind, f"_pc = V[{mp.op_idx}]")
        em.line(ind, f"if _pc < -1 or _pc >= {len(mp.op_names)}:")
        em.line(ind + 1, "_c = -2")
        em.line(ind, "elif _pc == -1:")
        em.line(
            ind + 1,
            "_c = "
            + _combine_expr(
                f"_op{k}_{mp.default_code}", arities[mp.default_code], mask
            ),
        )
        for code, arity in enumerate(arities):
            tail = code == len(arities) - 1
            em.line(ind, "else:" if tail else f"elif _pc == {code}:")
            em.line(
                ind + 1,
                "_c = " + _combine_expr(f"_op{k}_{code}", arity, mask),
            )
        return
    arity: int = detail
    for j, idx in enumerate(mp.in_idxs[:arity]):
        em.line(ind, f"_i{j} = V[{idx}]")
    ill = " or ".join(f"_i{j} == -2" for j in range(arity))
    alldisc = " and ".join(f"_i{j} == -1" for j in range(arity))
    anydisc = " or ".join(f"_i{j} == -1" for j in range(arity))
    args = ", ".join(f"_i{j}" for j in range(arity))
    branches: List[Tuple[str, str]] = []
    if mp.op_idx is not None:
        em.line(ind, f"_pc = V[{mp.op_idx}]")
        branches.append((f"_pc < -1 or _pc >= {len(mp.op_names)}", "_c = -2"))
    branches.append((ill, "_c = -2"))
    branches.append((alldisc, "_c = -1"))
    if arity > 1:
        branches.append((anydisc, "_c = -2"))
    if mp.op_idx is not None:
        branches.append(("_pc == -1", f"_c = _opd{k}({args}) % {mask}"))
        tail = f"_c = _ops{k}[_pc]({args}) % {mask}"
    else:
        tail = f"_c = _opd{k}({args}) % {mask}"
    first = True
    for cond, body in branches:
        em.line(ind, f"{'if' if first else 'elif'} {cond}:")
        em.line(ind + 1, body)
        first = False
    em.line(ind, "else:")
    em.line(ind + 1, tail)


def _emit_module_eval_scalar(em: _Emitter, ind: int, k: int, mp, inline) -> None:
    """One CM-phase module evaluation, result in ``_m{k}``.

    Inlines the three state machines of ``compile_module_eval``
    (combinational, pipelined, busy-poisoning non-pipelined, each with
    the sticky-ILLEGAL freeze); a module :func:`_inline_plan` rejects
    falls back to the interpreter closure ``_mev{k}``.
    """
    if inline is None:
        em.line(ind, f"_m{k} = _mev{k}()")
        return
    latency, sticky = mp.latency, mp.sticky_illegal
    if latency == 0:
        if sticky:
            em.line(ind, f"if _f{k}[0]:")
            em.line(ind + 1, f"_m{k} = -2")
            em.line(ind, "else:")
            _emit_combined_scalar(em, ind + 1, k, mp, inline)
            em.line(ind + 1, f"_m{k} = _c")
            em.line(ind + 1, "if _c == -2:")
            em.line(ind + 2, f"_f{k}[0] = 1")
        else:
            _emit_combined_scalar(em, ind, k, mp, inline)
            em.line(ind, f"_m{k} = _c")
        return
    if mp.pipelined:
        body = ind
        if sticky:
            em.line(ind, f"if _f{k}[0]:")
            em.line(ind + 1, f"_m{k} = -2")
            em.line(ind, "else:")
            body = ind + 1
        em.line(body, f"_m{k} = _p{k}[{latency - 1}]")
        _emit_combined_scalar(em, body, k, mp, inline)
        if sticky:
            em.line(body, "if _c == -2:")
            em.line(body + 1, f"_f{k}[0] = 1")
        for j in range(latency - 1, 0, -1):
            em.line(body, f"_p{k}[{j}] = _p{k}[{j - 1}]")
        em.line(body, f"_p{k}[0] = _c")
        return
    # Non-pipelined: remaining/result cells, busy arrivals poison.
    body = ind
    if sticky:
        em.line(ind, f"if _f{k}[0]:")
        em.line(ind + 1, f"_m{k} = -2")
        em.line(ind, "else:")
        body = ind + 1
    _emit_combined_scalar(em, body, k, mp, inline)
    em.line(body, f"_r = _s{k}[0]")
    em.line(body, "if _r > 0:")
    em.line(body + 1, "_r -= 1")
    em.line(body + 1, f"_s{k}[0] = _r")
    em.line(body + 1, "if _c != -1:")
    em.line(body + 2, f"_s{k}[1] = -2")
    em.line(body + 1, f"_m{k} = _s{k}[1] if _r == 0 else -1")
    em.line(body, "elif _c != -1:")
    em.line(body + 1, f"_s{k}[0] = {latency}")
    em.line(body + 1, f"_s{k}[1] = _c")
    em.line(body + 1, f"_m{k} = -1")
    em.line(body, "else:")
    em.line(body + 1, f"_m{k} = -1")
    if sticky:
        em.line(body, f"if _s{k}[1] == -2 and _s{k}[0] == 0:")
        em.line(body + 1, f"_f{k}[0] = 1")


def _emit_apply_scalar(
    em: _Emitter,
    ind: int,
    plan: Plan,
    prev_pos: int,
    pos_const: int,
    conflicts: bool,
    latch_values: Optional[List[str]] = None,
) -> None:
    """Apply the updates cycle ``prev_pos`` scheduled (due this cycle).

    Mirrors the interpreter's ``_apply_pending`` exactly: driver
    contributions land first (asserts in table order, then releases),
    then non-resolved port updates (module outputs after CM, register
    latches after CR, each effective change one event, each non-DISC
    latch one transaction), then the first-touch-ordered dirty sinks
    re-resolve with the conflict-episode bookkeeping.  All values a
    cycle reads are read before it writes anything, which is safe
    because every port is written at most once per apply.
    """
    _step, pph, acts, rels = _cycle_actions(plan, prev_pos)
    mods = list(enumerate(plan.modules)) if pph == 2 else []
    latches = list(plan.reg_ports) if pph == 5 else []
    if not (acts or rels or mods or latches):
        return
    for j, (_drv, src, _const) in enumerate(acts):
        if src is not None:
            em.line(ind, f"_a{j} = V[{src}]")
    if latches and latch_values is None:
        latch_values = []
        for j, (_reg, in_idx, _out) in enumerate(latches):
            em.line(ind, f"_l{j} = V[{in_idx}]")
            latch_values.append(f"_l{j}")
    for j, (drv, src, const) in enumerate(acts):
        value = f"_a{j}" if src is not None else str(const)
        sink = plan.drv_sink[drv]
        if len(plan.sink_drivers[sink]) == 1:
            em.line(ind, f"C[{drv}] = {value}")
            continue
        # Multi-driver sink: keep its incremental resolution state --
        # ND (non-DISC contribution count) and VS (their sum) -- in
        # step, so re-resolution below is O(1) in the sink's fan-in.
        em.line(ind, f"_o = C[{drv}]")
        em.line(ind, f"if _o != {value}:")
        em.line(ind + 1, f"C[{drv}] = {value}")
        if src is None and const != DISC:
            em.line(ind + 1, "if _o == -1:")
            em.line(ind + 2, f"ND[{sink}] += 1")
            em.line(ind + 2, f"VS[{sink}] += {const}")
            em.line(ind + 1, "else:")
            em.line(ind + 2, f"VS[{sink}] += {const} - _o")
        else:
            em.line(ind + 1, "if _o == -1:")
            em.line(ind + 2, f"ND[{sink}] += 1")
            em.line(ind + 2, f"VS[{sink}] += {value}")
            em.line(ind + 1, f"elif {value} == -1:")
            em.line(ind + 2, f"ND[{sink}] -= 1")
            em.line(ind + 2, f"VS[{sink}] -= _o")
            em.line(ind + 1, "else:")
            em.line(ind + 2, f"VS[{sink}] += {value} - _o")
    for drv in rels:
        sink = plan.drv_sink[drv]
        if len(plan.sink_drivers[sink]) == 1:
            em.line(ind, f"C[{drv}] = -1")
            continue
        em.line(ind, f"_o = C[{drv}]")
        em.line(ind, "if _o != -1:")
        em.line(ind + 1, f"C[{drv}] = -1")
        em.line(ind + 1, f"ND[{sink}] -= 1")
        em.line(ind + 1, f"VS[{sink}] -= _o")
    for k, mp in mods:
        em.line(ind, f"if V[{mp.out_idx}] != _m{k}:")
        em.line(ind + 1, f"V[{mp.out_idx}] = _m{k}")
        em.line(ind + 1, "ev += 1")
    for j, (_reg, _in_idx, out_idx) in enumerate(latches):
        lv = latch_values[j]
        em.line(ind, f"if {lv} != -1:")
        em.line(ind + 1, "tx += 1")
        em.line(ind + 1, f"if V[{out_idx}] != {lv}:")
        em.line(ind + 2, f"V[{out_idx}] = {lv}")
        em.line(ind + 2, "ev += 1")
    for sink in _dirty_sinks(plan, acts, rels):
        drivers = plan.sink_drivers[sink]
        if len(drivers) == 1:
            em.line(ind, f"_n = C[{drivers[0]}]")
        else:
            # resolve_rt from the incremental state: no contribution
            # -> DISC, exactly one -> its value (ILLEGAL included),
            # two or more -> ILLEGAL.
            em.line(ind, f"_nd = ND[{sink}]")
            em.line(
                ind,
                f"_n = -1 if _nd == 0 else VS[{sink}] if _nd == 1 else -2",
            )
        em.line(ind, f"if _n != V[{sink}]:")
        em.line(ind + 1, f"V[{sink}] = _n")
        em.line(ind + 1, "ev += 1")
        if conflicts:
            em.line(ind + 1, "if _n == -2:")
            em.line(ind + 2, f"if not A[{sink}]:")
            em.line(ind + 3, f"A[{sink}] = 1")
            em.line(ind + 3, f"K({pos_const}, {sink})")
            em.line(ind + 1, f"elif A[{sink}]:")
            em.line(ind + 2, f"A[{sink}] = 0")
        else:
            em.line(ind + 1, "if _n == -2:")
            em.line(ind + 2, f"A[{sink}] = 1")
            em.line(ind + 1, "else:")
            em.line(ind + 2, f"A[{sink}] = 0")


def _emit_finish_scalar(em: _Emitter, ind: int, plan: Plan) -> None:
    """The conditional trailing delta cycle after the final CR."""
    last = plan.cs_max * PHASES_PER_STEP - 1
    _step, _ph, acts, rels = _cycle_actions(plan, last)
    latches = list(plan.reg_ports)
    has_drv = bool(acts or rels)
    if not (has_drv or latches):
        em.line(ind, "return ev, tx, 0")
        return
    latch_values = []
    for j, (_reg, in_idx, _out) in enumerate(latches):
        em.line(ind, f"_l{j} = V[{in_idx}]")
        latch_values.append(f"_l{j}")
    body = ind
    if not has_drv:
        cond = " or ".join(f"_l{j} != -1" for j in range(len(latches)))
        em.line(ind, f"if {cond}:")
        body = ind + 1
    _emit_apply_scalar(
        em, body, plan, last, last, conflicts=False, latch_values=latch_values
    )
    em.line(body, "return ev, tx, 1")
    if not has_drv:
        em.line(ind, "return ev, tx, 0")


def _emit_bind_scalar(em: _Emitter, plan: Plan, inlines: List) -> None:
    em.line(0, "def bind(values, contrib, act, nd, vs, ops, mev, conflict, hook):")
    em.line(1, '"""Bind the scalar chunk thunks to one executor\'s state.')
    em.line(1, "")
    em.line(1, "``values``/``contrib``/``act`` are the executor's port,")
    em.line(1, "driver-contribution and active-illegal tables, ``nd``/``vs``")
    em.line(1, "the per-sink incremental resolution state (all mutated in")
    em.line(1, "place); ``ops`` the per-module operation-body tuples in op")
    em.line(1, "code order, ``mev`` the interpreter evaluator closures")
    em.line(1, "(fallback for non-inlinable modules), ``conflict(pos, sink)``")
    em.line(1, "and ``hook(pos)`` the runner callbacks.  Returns one thunk")
    em.line(1, "per chunk; each returns (events, transactions, extra_deltas)")
    em.line(1, 'for the dynamic part of the stats accounting."""')
    em.line(1, "V = values")
    em.line(1, "C = contrib")
    em.line(1, "A = act")
    em.line(1, "ND = nd")
    em.line(1, "VS = vs")
    em.line(1, "H = hook")
    em.line(1, "K = conflict")
    em.line(1, "HN = hook is not None")
    for k, mp in enumerate(plan.modules):
        if inlines[k] is None:
            em.line(1, f"_mev{k} = mev[{k}]")
            continue
        if inlines[k][0] == "dispatch":
            for code in range(len(mp.op_names)):
                em.line(1, f"_op{k}_{code} = ops[{k}][{code}]")
        else:
            em.line(1, f"_ops{k} = ops[{k}]")
            em.line(1, f"_opd{k} = _ops{k}[{mp.default_code}]")
        if mp.latency == 0:
            if mp.sticky_illegal:
                em.line(1, f"_f{k} = [0]")
        elif mp.pipelined:
            em.line(1, f"_p{k} = [-1] * {mp.latency}")
            if mp.sticky_illegal:
                em.line(1, f"_f{k} = [0]")
        else:
            em.line(1, f"_s{k} = [0, -1]")
            if mp.sticky_illegal:
                em.line(1, f"_f{k} = [0]")
    ranges = _chunk_ranges(plan.cs_max)
    for ci, (lo, hi) in enumerate(ranges):
        final = ci == len(ranges) - 1
        em.line(1, f"def _k{ci}():")
        em.line(2, "ev = 0")
        em.line(2, "tx = 0")
        for pos in range(lo, hi):
            step, ph, _acts, _rels = _cycle_actions(plan, pos)
            em.line(2, f"# ({step}, {_PH_NAMES[ph]})")
            if pos > 0:
                _emit_apply_scalar(em, 2, plan, pos - 1, pos, conflicts=True)
            em.line(2, "if HN:")
            em.line(3, f"H({pos})")
            if ph == 2:
                for k, mp in enumerate(plan.modules):
                    _emit_module_eval_scalar(em, 2, k, mp, inlines[k])
        if final:
            _emit_finish_scalar(em, 2, plan)
        else:
            em.line(2, "return ev, tx, 0")
    em.line(1, "return (" + ", ".join(f"_k{ci}" for ci in range(len(ranges))) + ",)")


def _chunk_stats(plan: Plan) -> List[Tuple[int, int, int]]:
    """Statically known per-chunk stats: (cycles, base events, base
    transactions -- the schedule's bookkeeping plus every action)."""
    total = plan.cs_max * PHASES_PER_STEP
    rows = []
    for lo, hi in _chunk_ranges(plan.cs_max):
        cycles = hi - lo
        ev_base = 0
        tx_base = 0
        for pos in range(lo, hi):
            _step, ph, acts, rels = _cycle_actions(plan, pos)
            ev_base += 1 + _EXTRA_EVENTS.get(ph, 0)
            if pos < total - 1 or ph != 5:
                tx_base += _SCHED_TX[ph]
            tx_base += len(acts) + len(rels)
            if ph == 2:
                tx_base += len(plan.modules)
        rows.append((cycles, ev_base, tx_base))
    return rows


def generate_source(plan: Plan, op_arities: OpArities) -> str:
    """Emit the executor module for ``plan``.

    ``op_arities`` carries, per module, the operand count of each
    operation in ``op_names`` order (from the live model -- the one
    behavioral fact the Plan does not record).  The output is a
    self-contained Python module: the identity constants artifact
    validation reads, ``CHUNK_STATS`` and ``bind``.
    """
    if len(op_arities) != len(plan.modules):
        raise CodegenError(
            f"op_arities covers {len(op_arities)} modules, "
            f"plan has {len(plan.modules)}"
        )
    inlines: List = [
        _inline_plan(mp, op_arities[k]) for k, mp in enumerate(plan.modules)
    ]
    em = _Emitter()
    em.line(0, '"""Generated by repro.engine.codegen -- DO NOT EDIT.')
    em.line(0, "")
    em.line(0, f"Specialized straight-line executor for model {plan.name!r}:")
    em.line(0, "one function per control-step chunk, all (CS, PH) action")
    em.line(0, "tables, port indices, width masks and resolution orders")
    em.line(0, "constant-folded from the Plan IR.  Inspect or regenerate")
    em.line(0, "with `repro plan <model> --emit-code`.")
    em.line(0, '"""')
    em.line(0, f"CODEGEN_VERSION = {CODEGEN_VERSION}")
    em.line(0, f'PLAN_DIGEST = "{plan.digest}"')
    em.line(0, f"MODEL_NAME = {plan.name!r}")
    em.line(0, f"CS_MAX = {plan.cs_max}")
    em.line(0, f"NUM_PORTS = {plan.num_ports}")
    em.line(0, f"NUM_DRIVERS = {plan.num_drivers}")
    em.line(0, "# per chunk: (cycles, base_events, base_transactions)")
    stats = ", ".join(repr(row) for row in _chunk_stats(plan))
    em.line(0, f"CHUNK_STATS = ({stats},)")
    em.line(0)
    _emit_bind_scalar(em, plan, inlines)
    return "\n".join(em.lines) + "\n"


def model_op_arities(model: RTModel, plan: Plan) -> OpArities:
    """Per-module operation arities, aligned with each ModulePlan's
    ``op_names`` (the ``op_arities`` argument of
    :func:`generate_source`)."""
    return tuple(
        tuple(
            model.modules[mp.name].operations[name].arity
            for name in mp.op_names
        )
        for mp in plan.modules
    )


# ----------------------------------------------------------------------
# the artifact cache
# ----------------------------------------------------------------------
class CodegenCache:
    """Content-addressed store of generated executor modules.

    Artifacts live at ``<root>/codegen/v<CODEGEN_VERSION>/<digest>.py``
    next to the plan cache's ``plans/v<PLAN_VERSION>`` directory, with a
    ``.pyc`` marshal sidecar holding the compiled code object (keyed
    to the interpreter version) so warm starts skip recompilation too.
    Reads are lenient: a truncated, foreign or digest-mismatched
    artifact is discarded with one RuntimeWarning per path per process
    and the caller regenerates.  Writes are atomic and best-effort
    (:func:`~repro.engine.plan.write_atomic`).
    """

    def __init__(self, root: Optional[Union[str, Path]] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_root()

    def path_for(self, digest: str) -> Path:
        return self.root / "codegen" / f"v{CODEGEN_VERSION}" / f"{digest}.py"

    def code_path_for(self, digest: str) -> Path:
        return self.path_for(digest).with_suffix(".pyc")

    def get(self, digest: str) -> Optional[str]:
        """The artifact source text, or None (missing / discarded)."""
        path = self.path_for(digest)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return None
        if (
            f"CODEGEN_VERSION = {CODEGEN_VERSION}" not in text
            or f'PLAN_DIGEST = "{digest}"' not in text
        ):
            self.discard(digest, "stale or foreign artifact header")
            return None
        return text

    def get_code(self, digest: str):
        """The compiled code object from the sidecar, else None.

        Silent on any mismatch -- the sidecar is purely a fast path;
        the caller recompiles from the source text.
        """
        try:
            payload = marshal.loads(self.code_path_for(digest).read_bytes())
            if (
                not isinstance(payload, tuple)
                or len(payload) != 5
                or payload[0] != _CODE_MAGIC
                or payload[1] != CODEGEN_VERSION
                or payload[2] != list(sys.version_info[:2])
                or payload[3] != digest
            ):
                return None
            return payload[4]
        except Exception:
            return None

    def put(self, digest: str, text: str, code=None) -> bool:
        if not write_atomic(self.path_for(digest), text.encode("utf-8")):
            return False
        if code is not None:
            self.put_code(digest, code)
        return True

    def put_code(self, digest: str, code) -> bool:
        try:
            payload = marshal.dumps(
                (_CODE_MAGIC, CODEGEN_VERSION, list(sys.version_info[:2]),
                 digest, code)
            )
        except ValueError:
            return False
        return write_atomic(self.code_path_for(digest), payload)

    def discard(self, digest: str, reason: str) -> None:
        path = self.path_for(digest)
        warn_entry_once(
            path,
            f"codegen cache: discarding unusable artifact {path} "
            f"({reason}); regenerating",
        )
        for target in (path, self.code_path_for(digest)):
            try:
                target.unlink()
            except OSError:
                pass


def as_codegen_cache(plan_cache: PlanCacheArg) -> Optional[CodegenCache]:
    """The codegen cache sharing a ``plan_cache`` argument's root."""
    cache = as_plan_cache(plan_cache)
    if cache is None:
        return None
    return CodegenCache(cache.root)


# ----------------------------------------------------------------------
# resolution
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CodegenHandle:
    """A loaded generated module plus where it came from.

    ``source`` is ``"hit"`` / ``"miss"`` (artifact cache consulted) or
    ``"off"`` (no cache configured); ``build_ms`` the wall time of
    resolution -- generate + compile + exec on a miss, load + exec on
    a hit.
    """

    module: Dict[str, Any]
    source: str
    build_ms: float


#: In-process memo: digest -> (namespace, module code object), for
#: modules no disk tier holds -- generated with no cache configured,
#: or whose cache write failed.  A configured tier is read first, so
#: an entry kept for a cached module would never be read again.  The
#: code object, not the source text, is kept: it is what the sidecar
#: needs when a later resolve fills a disk tier, and the text is cheap
#: to regenerate.
_MEMO: Dict[str, Tuple[Dict[str, Any], Any]] = {}

#: Held across the disk read, memo lookup, generation and compile, so
#: threads resolving one new digest compile it once per process.
_LOCK = threading.Lock()


def forget_module(digest: str) -> None:
    """Drop ``digest``'s memoized module.  Lock-free: finalizers call
    it, and one can run while :data:`_LOCK` is held."""
    _MEMO.pop(digest, None)


def _compile_artifact(text: str, digest: str):
    return compile(text, f"<repro-codegen:{digest[:16]}>", "exec")


def _exec_artifact(code, digest: str) -> Dict[str, Any]:
    namespace: Dict[str, Any] = {"__name__": f"repro_codegen_{digest[:16]}"}
    exec(code, namespace)
    if (
        namespace.get("CODEGEN_VERSION") != CODEGEN_VERSION
        or namespace.get("PLAN_DIGEST") != digest
        or not callable(namespace.get("bind"))
        or not isinstance(namespace.get("CHUNK_STATS"), tuple)
    ):
        raise CodegenError("artifact failed validation after exec")
    return namespace


def resolve_codegen(
    plan: Plan, op_arities: OpArities, plan_cache: PlanCacheArg = None
) -> CodegenHandle:
    """Resolve ``plan``'s generated executor module.

    Precedence: artifact-cache hit (validated; corrupt entries are
    discarded with one warning and degrade to a miss), then the
    in-process memo, then a fresh generation (which also fills the
    cache).  ``generate_source`` is looked up at call time, so a
    wrapper installed on the module attribute sees every generation.
    Reports the outcome to the process metrics registry, mirroring
    plan resolution.
    """
    from ..observe.metrics import record_codegen_request

    t0 = time.perf_counter()
    cache = as_codegen_cache(plan_cache)
    digest = plan.digest
    state = "off"
    namespace: Optional[Dict[str, Any]] = None
    with _LOCK:
        if cache is not None:
            text = cache.get(digest)
            state = "miss" if text is None else "hit"
            if text is not None:
                try:
                    code = cache.get_code(digest)
                    if code is None:
                        code = _compile_artifact(text, digest)
                        cache.put_code(digest, code)
                    namespace = _exec_artifact(code, digest)
                except Exception as exc:
                    cache.discard(digest, str(exc))
                    namespace = None
                    state = "miss"
        if namespace is None:
            memo = _MEMO.get(digest)
            if memo is not None:
                namespace, code = memo
                if cache is not None:
                    cache.put(digest, generate_source(plan, op_arities), code)
            else:
                text = generate_source(plan, op_arities)
                try:
                    code = _compile_artifact(text, digest)
                    namespace = _exec_artifact(code, digest)
                except CodegenError:
                    raise
                except Exception as exc:  # pragma: no cover - generator bug
                    raise CodegenError(
                        f"generated module failed to compile: {exc}"
                    ) from exc
                if cache is None or not cache.put(digest, text, code):
                    _MEMO[digest] = (namespace, code)
    build_ms = (time.perf_counter() - t0) * 1000.0
    record_codegen_request(state, build_ms)
    return CodegenHandle(namespace, state, build_ms)


# ----------------------------------------------------------------------
# the executors
# ----------------------------------------------------------------------
class CodegenRTSimulation(CompiledRTSimulation):
    """The ``compiled-py`` backend: generated straight-line executor.

    Subclasses :class:`CompiledRTSimulation` -- same constructor, same
    result surface, bit-identical observable behaviour -- replacing
    the interpreting cycle walk with the bound chunk thunks of the
    model's generated module.  ``codegen_mode`` reports what actually
    runs (``exec``, or ``interpreter`` when generation is unavailable
    or ``max_deltas`` demands the per-cycle limit check);
    ``codegen_cache_state`` / ``codegen_build_ms`` feed run_metrics.
    """

    backend_name = "compiled-py"

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
        super().__init__(
            model,
            register_values=register_values,
            trace=trace,
            watch=watch,
            max_deltas=max_deltas,
            transfer_engine=transfer_engine,
            observe=observe,
            plan=plan,
            plan_cache=plan_cache,
        )
        self.codegen_cache_state: str = "off"
        self.codegen_build_ms: float = 0.0
        self.codegen_mode: str = "interpreter"
        self._chunks = None
        self._chunk_stats = None
        self._chunk_pos = 0
        if max_deltas < len(self._schedule):
            # The interpreter's per-cycle delta-limit check is
            # semantic here (DeltaCycleLimitError mid-run); stay on it.
            return
        p = self.model_plan
        try:
            handle = resolve_codegen(
                p, model_op_arities(model, p), plan_cache
            )
            ops = tuple(
                tuple(
                    model.modules[mp.name].operations[name].fn
                    for name in mp.op_names
                )
                for mp in p.modules
            )
            mev = tuple(fn for _idx, fn in self._module_evals)
            self._act = bytearray(p.num_ports)
            self._nd = [0] * p.num_ports
            self._vs = [0] * p.num_ports
            chunks = handle.module["bind"](
                self._values,
                self._drv_contrib,
                self._act,
                self._nd,
                self._vs,
                ops,
                mev,
                self._codegen_conflict,
                self._codegen_hook(),
            )
        except Exception as exc:
            warnings.warn(
                f"codegen backend: falling back to the interpreter "
                f"({exc!r})",
                RuntimeWarning,
                stacklevel=2,
            )
            return
        self.codegen_cache_state = handle.source
        self.codegen_build_ms = handle.build_ms
        self._chunk_stats = handle.module["CHUNK_STATS"]
        self._chunks = chunks
        self.codegen_mode = "exec"

    # -- runner callbacks the generated code invokes -------------------
    def _codegen_conflict(self, pos: int, sink: int) -> None:
        contrib = self._drv_contrib
        sources = tuple(
            (self._drv_owner[d], contrib[d])
            for d in self._sink_drivers[sink]
            if contrib[d] != DISC
        )
        self.monitor.record(
            ConflictEvent(self._names[sink], self._schedule[pos], sources)
        )

    def _codegen_hook(self):
        """The per-cycle observation callback, or None when untraced.

        Fires after each cycle's apply (conflicts stream earlier via
        the monitor listener, exactly the interpreter's order): trace
        sample, then the canonical probe emission with the changed set
        recovered by diffing a kept previous-values snapshot -- valid
        because each port is written at most once per apply.
        """
        tracer = self.tracer
        probe = self._probe
        if tracer is None and probe is None:
            return None
        schedule = self._schedule
        values = self._values
        names = self._names
        items = self._trace_items
        bus_count = self._bus_count
        reg_out = list(self._reg_out_idx.items())
        prev = list(values) if probe is not None else None

        def hook(pos: int) -> None:
            at = schedule[pos]
            if tracer is not None:
                if items is not None:
                    tracer.append(
                        at, {name: values[idx] for name, idx in items}
                    )
                else:
                    tracer.append(at, dict(zip(names, values)))
            if probe is not None:
                changed = [
                    idx
                    for idx in range(len(values))
                    if values[idx] != prev[idx]
                ]
                for idx in changed:
                    prev[idx] = values[idx]
                cs = set(changed)
                drives = [
                    (names[idx], values[idx])
                    for idx in range(bus_count)
                    if idx in cs
                ]
                latches = [
                    (reg, values[idx]) for reg, idx in reg_out if idx in cs
                ]
                emit_canonical_cycle(probe, at, drives, latches)

        return hook

    # -- execution ------------------------------------------------------
    def _run_chunks(self, until: int) -> None:
        chunks = self._chunks
        chunk_stats = self._chunk_stats
        i = self._chunk_pos
        cyc = res = evt = txt = 0
        while i < until:
            ev, tx, extra = chunks[i]()
            cycles, ev_base, tx_base = chunk_stats[i]
            cyc += cycles + extra
            res += cycles
            evt += ev_base + ev
            txt += tx_base + tx
            i += 1
        stats = self.stats
        stats.cycles += cyc
        stats.delta_cycles += cyc
        stats.process_resumes += res
        stats.events += evt
        stats.transactions += txt
        self._chunk_pos = i
        if i >= len(chunks):
            self._pos = len(self._schedule)
            self._finished = True
        elif i:
            self._pos = (i - 1) * PHASES_PER_STEP + 1

    def run(self) -> "CodegenRTSimulation":
        if self._chunks is None:
            super().run()
            return self
        from ..observe.metrics import record_backend_run

        if self._probe is None:
            self._run_chunks(len(self._chunks))
            self._ran = True
            record_backend_run(self)
            return self
        import time as _time

        self._probe.on_run_start(self)
        t0 = _time.perf_counter()
        self._run_chunks(len(self._chunks))
        self._ran = True
        self._probe.on_run_end(self, _time.perf_counter() - t0)
        record_backend_run(self)
        return self

    def run_steps(self, steps: int) -> "CodegenRTSimulation":
        if self._chunks is None:
            super().run_steps(steps)
            return self
        if steps > self.model.cs_max:
            return self.run()
        if steps >= 1:
            self._run_chunks(steps)
        self._ran = True
        return self

    def rearm(
        self, register_values: Optional[Mapping[str, int]] = None
    ) -> "CodegenRTSimulation":
        """Reset to time zero (see the base class).  The generated
        kernel bound the value plane, driver storage and the scratch
        buffers at elaboration time, so all are reset in place."""
        super().rearm(register_values)
        if self._chunks is not None:
            self._act[:] = bytes(len(self._act))
            self._nd[:] = [0] * len(self._nd)
            self._vs[:] = [0] * len(self._vs)
            self._chunk_pos = 0
        return self


#: No generated batch executor exists; ``compiled-batched`` is the one
#: batched backend.  The name stays because the perfbench harness
#: (``perfbench/layers.py:243``) patches ``CodegenBatchedRTSimulation.run``
#: in its traced run and fails with AttributeError without it.
CodegenBatchedRTSimulation = CompiledBatchedRTSimulation


# ----------------------------------------------------------------------
# cache garbage collection (``repro plan --gc``)
# ----------------------------------------------------------------------
def _valid_plan_entry(path: Path) -> bool:
    if path.suffix != ".plan" or not _hex_digest(path.stem):
        return False
    try:
        payload = pickle.loads(path.read_bytes())
        return (
            isinstance(payload, tuple)
            and len(payload) == 3
            and payload[0] == _MAGIC
            and payload[1] == PLAN_VERSION
            and isinstance(payload[2], Plan)
            and payload[2].digest == path.stem
        )
    except Exception:
        return False


def _valid_codegen_entry(path: Path) -> bool:
    digest = path.stem
    if not _hex_digest(digest):
        return False
    if path.suffix == ".py":
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return False
        return (
            f"CODEGEN_VERSION = {CODEGEN_VERSION}" in text
            and f'PLAN_DIGEST = "{digest}"' in text
            and "def bind(" in text
        )
    if path.suffix == ".pyc":
        if not path.with_suffix(".py").exists():
            return False
        cache = CodegenCache(_cache_root_of(path))
        return cache.get_code(digest) is not None
    return False


def _cache_root_of(path: Path) -> Path:
    # <root>/codegen/v<N>/<digest>.pyc -> <root>
    return path.parent.parent.parent


def _hex_digest(stem: str) -> bool:
    return len(stem) == 64 and all(c in "0123456789abcdef" for c in stem)


def _superseded_versions(tier: Path, current: int) -> List[Path]:
    """The ``v<N>`` directories of a cache tier with ``N < current``
    (a newer checkout sharing the root keeps its higher versions)."""
    if not tier.is_dir():
        return []
    return sorted(
        path for path in tier.iterdir()
        if path.is_dir()
        and re.fullmatch(r"v[0-9]+", path.name)
        and int(path.name[1:]) < current
    )


def gc_caches(root: Union[str, Path]) -> Dict[str, Dict[str, Any]]:
    """Prune stale, foreign, leftover and superseded cache entries.

    Scans ``plans/v<PLAN_VERSION>`` and ``codegen/v<CODEGEN_VERSION>``
    under ``root``, removing anything that fails validation: foreign
    filenames, truncated or unreadable payloads, digest/filename
    mismatches and abandoned atomic-write temporaries.  Valid entries
    are untouched.  Whole directories of lower tier versions
    (``plans/v1`` ...), which no reader of this version opens, are
    removed too; each counts as one entry, named ``v<N>/``.  Returns
    per-kind ``{"scanned", "kept", "removed", "removed_names"}`` stats
    keyed by ``"plans"`` / ``"codegen"``.
    """
    root = Path(root)
    targets = [
        ("plans", PLAN_VERSION, _valid_plan_entry),
        ("codegen", CODEGEN_VERSION, _valid_codegen_entry),
    ]
    report: Dict[str, Dict[str, Any]] = {}
    for kind, version, validate in targets:
        scanned = kept = 0
        removed_names: List[str] = []
        directory = root / kind / f"v{version}"
        if directory.is_dir():
            for path in sorted(directory.iterdir()):
                if not path.is_file():
                    continue
                scanned += 1
                if path.name.startswith(".") and ".tmp-" in path.name:
                    ok = False
                else:
                    ok = validate(path)
                if ok:
                    kept += 1
                    continue
                try:
                    path.unlink()
                    removed_names.append(path.name)
                except OSError:  # pragma: no cover - racing unlink
                    kept += 1
        for old in _superseded_versions(root / kind, version):
            scanned += 1
            try:
                shutil.rmtree(old)
                removed_names.append(f"{old.name}/")
            except OSError:  # pragma: no cover - unremovable directory
                kept += 1
        report[kind] = {
            "scanned": scanned,
            "kept": kept,
            "removed": len(removed_names),
            "removed_names": removed_names,
        }
    return report
