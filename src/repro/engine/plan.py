"""The single lowering pipeline: ``lower(model) -> Plan``.

Every compiled-style backend in this repo executes the same static
schedule: the model's TRANS instances become per-``(CS, PH)`` action
tables (asserts, releases), module evaluations fire in CM, register
latches in CR.  Historically that lowering was implemented twice --
inline in :class:`~repro.engine.compiled.CompiledRTSimulation` and in
its batched twin.  This module hoists it into one backend-neutral
intermediate representation:

* :func:`lower` turns an :class:`~repro.core.model.RTModel` into a
  :class:`Plan` -- the port/register layout, driver table (one driver
  per TRANS instance, index == global spec index, which is also the
  conflict-resolution order), the per-``(step, phase)`` assert/release
  tables and per-module operation metadata.  A Plan is *pure data*:
  no closures, no live model references -- operation bodies stay in
  the model and are looked up by name when a backend instantiates its
  evaluators (:func:`compile_module_eval` /
  :func:`compile_module_eval_batch`).
  That makes every Plan picklable and byte-for-byte deterministic
  (tuples and insertion-ordered dicts only; no string-keyed sets whose
  iteration order would leak ``PYTHONHASHSEED``).

* :func:`model_digest` fingerprints a model *without* lowering it:
  its declared values -- header, register presets, buses, module
  metadata with each operation's name and arity, and the transfer
  tuples.  Operation bodies are not hashed: no artifact keyed by the
  digest carries one (see :func:`model_digest`).  ``Plan.digest``
  carries that hash, making Plans content-addressable.

* :class:`PlanCache` stores Plans on disk under
  ``$REPRO_PLAN_CACHE`` (default ``~/.cache/repro``), versioned and
  corruption-tolerant: a truncated, foreign or stale-version entry is
  discarded with a warning and the model is simply re-lowered --
  mirroring the lenient ``repro report`` reader, a cache entry can
  never crash a run.

* :func:`resolve_plan` is the one entry point backends use: explicit
  Plan > cache hit > lower (+ cache fill), reporting the source
  (``hit`` / ``miss`` / ``off`` / ``given``) and the wall time of the
  lowering step for ``run_metrics``.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from ..core.model import ModelError, RTModel
from ..core.modules_lib import Operation, _combine
from ..core.phases import PHASES_PER_STEP
from ..core.values import DISC, ILLEGAL

#: Bump when the Plan layout changes; versions the cache layout and the
#: on-disk payload header, so stale entries are discarded, not parsed.
PLAN_VERSION = 3

_MAGIC = "repro-plan"

#: (step, phase_int) -- the action-table key type.
CycleKey = Tuple[int, int]
#: (driver, source port index | None, constant) -- one assert action.
AssertAction = Tuple[int, Optional[int], int]


# ----------------------------------------------------------------------
# the IR
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ModulePlan:
    """One functional unit's lowered layout and static behavior.

    Port indices refer to the owning :class:`Plan`'s port table.  The
    operation *bodies* are deliberately absent -- backends resolve them
    from the live model by name -- so the plan stays picklable even for
    models whose operations are lambdas or bound methods (the IKS chip).
    """

    name: str
    in_idxs: Tuple[int, ...]
    out_idx: int
    op_idx: Optional[int]
    arity: int
    latency: int
    pipelined: bool
    sticky_illegal: bool
    width: int
    #: operation names, sorted -- index in this tuple == the op code
    #: driven on the ``_op`` port (the §3 operation-select encoding).
    op_names: Tuple[str, ...]
    default_op: str
    default_code: int


@dataclass(frozen=True)
class Plan:
    """A lowered, backend-neutral, content-addressed model.

    Deterministic (same model -> byte-identical pickle), picklable and
    free of live references; see the module docstring.  ``drv_owner``
    / ``drv_sink`` are indexed by driver == global TRANS spec index,
    which is also the conflict-resolution order.
    """

    version: int
    digest: str
    name: str
    cs_max: int
    width: int
    #: ports in declaration order: buses, then per-register in/out,
    #: then per-module in1..N/out(/op) -- the order every backend and
    #: the canonical probe stream use.
    port_names: Tuple[str, ...]
    port_inits: Tuple[int, ...]
    #: indices of resolved ports (multi-driver resolution applies).
    resolved: Tuple[int, ...]
    port_index: Dict[str, int]
    bus_count: int
    #: (register, in-port index, out-port index) in declaration order.
    reg_ports: Tuple[Tuple[str, int, int], ...]
    modules: Tuple[ModulePlan, ...]
    #: per driver: the owning TRANS instance's name (conflict sources).
    drv_owner: Tuple[str, ...]
    drv_sink: Tuple[int, ...]
    sink_drivers: Dict[int, Tuple[int, ...]]
    asserts: Dict[CycleKey, Tuple[AssertAction, ...]]
    releases: Dict[CycleKey, Tuple[int, ...]]
    #: per spec: (step, phase_int, source, sink) -- the flat schedule.
    spec_rows: Tuple[Tuple[int, int, str, str], ...]

    @property
    def num_ports(self) -> int:
        return len(self.port_names)

    @property
    def num_drivers(self) -> int:
        return len(self.drv_owner)

    def register_names(self) -> Tuple[str, ...]:
        return tuple(name for name, _, _ in self.reg_ports)

    def matches(self, model: RTModel) -> bool:
        """Whether this Plan was lowered from a model with ``model``'s
        digest: same declarations, presets and transfers."""
        return self.digest == model_digest(model)

    def describe(self) -> str:
        """Human-readable summary (used by ``repro plan``)."""
        cells = sum(len(v) for v in self.asserts.values())
        lines = [
            f"plan: model {self.name!r}, digest {self.digest[:16]}...",
            f"  schedule: {self.cs_max} steps x {PHASES_PER_STEP} phases, "
            f"width {self.width}",
            f"  ports: {self.num_ports} ({self.bus_count} buses, "
            f"{len(self.reg_ports)} registers, {len(self.modules)} units)",
            f"  drivers: {self.num_drivers} TRANS instances, "
            f"{cells} assert actions",
        ]
        return "\n".join(lines)

    def summary(self) -> Dict[str, Any]:
        """Structured summary (used by ``repro plan --json``)."""
        return {
            "model": self.name,
            "digest": self.digest,
            "version": self.version,
            "cs_max": self.cs_max,
            "width": self.width,
            "ports": self.num_ports,
            "buses": self.bus_count,
            "registers": len(self.reg_ports),
            "modules": len(self.modules),
            "drivers": self.num_drivers,
            "assert_actions": sum(len(v) for v in self.asserts.values()),
        }


# ----------------------------------------------------------------------
# lowering
# ----------------------------------------------------------------------
def trans_op_code(model: RTModel, source: str, sink: str) -> int:
    """The op code a ``op:NAME -> M_op`` TRANS instance drives.

    The one shared implementation of the helper formerly duplicated by
    the compiled and batched backends: ``source`` is ``"op:NAME"``,
    ``sink`` is the module's ``_op`` port, and the code is the index of
    NAME in the module's sorted operation-name table.
    """
    op_name = source[3:]
    module_name = sink.rsplit("_op", 1)[0]
    return model.modules[module_name].op_code(op_name)


def lower(model: RTModel, digest: Optional[str] = None) -> Plan:
    """Lower ``model`` into its backend-neutral :class:`Plan`.

    Deterministic: declaration order drives every table, so the same
    model always lowers to a byte-identical (pickled) Plan in any
    process.  Raises :class:`~repro.core.model.ModelError` for
    transfers naming unknown ports or unresolved sinks -- the same
    diagnostics the backends used to raise inline.
    """
    if digest is None:
        digest = model_digest(model)

    names: List[str] = []
    inits: List[int] = []
    index: Dict[str, int] = {}
    resolved: List[int] = []

    def port(name: str, init: int, is_resolved: bool = False) -> int:
        idx = len(names)
        names.append(name)
        inits.append(init)
        index[name] = idx
        if is_resolved:
            resolved.append(idx)
        return idx

    for bus in model.buses.values():
        port(bus.name, DISC, is_resolved=True)
    bus_count = len(names)
    reg_ports: List[Tuple[str, int, int]] = []
    for reg in model.registers.values():
        in_idx = port(f"{reg.name}_in", DISC, is_resolved=True)
        out_idx = port(f"{reg.name}_out", reg.init)
        reg_ports.append((reg.name, in_idx, out_idx))
    modules: List[ModulePlan] = []
    for spec in model.modules.values():
        in_idxs = tuple(
            port(f"{spec.name}_in{i}", DISC, is_resolved=True)
            for i in range(1, spec.arity + 1)
        )
        out_idx = port(f"{spec.name}_out", DISC)
        op_idx = None
        if spec.multi_op:
            op_idx = port(f"{spec.name}_op", DISC, is_resolved=True)
        op_names = tuple(sorted(spec.operations))
        assert spec.default_op is not None
        modules.append(
            ModulePlan(
                name=spec.name,
                in_idxs=in_idxs,
                out_idx=out_idx,
                op_idx=op_idx,
                arity=spec.arity,
                latency=spec.latency,
                pipelined=spec.pipelined,
                sticky_illegal=spec.sticky_illegal,
                width=spec.width,
                op_names=op_names,
                default_op=spec.default_op,
                default_code=op_names.index(spec.default_op),
            )
        )

    def port_of(name: str) -> int:
        try:
            return index[name]
        except KeyError:
            raise ModelError(
                f"transfer references unknown port or bus {name!r}"
            ) from None

    resolved_set = set(resolved)
    drv_owner: List[str] = []
    drv_sink: List[int] = []
    sink_drivers: Dict[int, List[int]] = {}
    asserts: Dict[CycleKey, List[AssertAction]] = {}
    releases: Dict[CycleKey, List[int]] = {}
    spec_rows: List[Tuple[int, int, str, str]] = []
    for spec in model.trans_specs():
        sink = port_of(spec.sink)
        if sink not in resolved_set:
            raise ModelError(
                f"transfer {spec.name}: sink {spec.sink!r} is not a "
                f"resolved port"
            )
        drv = len(drv_owner)
        drv_owner.append(spec.name)
        drv_sink.append(sink)
        sink_drivers.setdefault(sink, []).append(drv)
        if spec.source.startswith("op:"):
            src: Optional[int] = None
            const = trans_op_code(model, spec.source, spec.sink)
        else:
            src, const = port_of(spec.source), 0
        phase_int = int(spec.phase)
        asserts.setdefault((spec.step, phase_int), []).append(
            (drv, src, const)
        )
        releases.setdefault(
            (spec.step, int(spec.phase.succ())), []
        ).append(drv)
        spec_rows.append((spec.step, phase_int, spec.source, spec.sink))

    return Plan(
        version=PLAN_VERSION,
        digest=digest,
        name=model.name,
        cs_max=model.cs_max,
        width=model.width,
        port_names=tuple(names),
        port_inits=tuple(inits),
        resolved=tuple(resolved),
        port_index=index,
        bus_count=bus_count,
        reg_ports=tuple(reg_ports),
        modules=tuple(modules),
        drv_owner=tuple(drv_owner),
        drv_sink=tuple(drv_sink),
        sink_drivers={
            sink: tuple(drvs) for sink, drvs in sink_drivers.items()
        },
        asserts={key: tuple(acts) for key, acts in asserts.items()},
        releases={key: tuple(drvs) for key, drvs in releases.items()},
        spec_rows=tuple(spec_rows),
    )


# ----------------------------------------------------------------------
# the content hash
# ----------------------------------------------------------------------
def model_digest(model: RTModel) -> str:
    """A stable content hash of the model's declared values.

    Computed *without* lowering (this is the cheap cache-key path):
    model header, register names and presets, bus declarations, module
    metadata with each operation's name and arity, and the transfer
    tuples in their printed form (which carries all nine fields plus
    the op-select suffix).  Stable across processes, checkouts and
    ``PYTHONHASHSEED`` values.

    Operation bodies are deliberately left out: a Plan holds op names
    and codes, a generated module binds the live callables at each
    elaboration, and a served design's operations are rebuilt from
    their standard names and the width.  No artifact keyed by this
    digest can hand one model's body to another, so hashing bodies
    would only make the key depend on where the source lives.
    """
    h = hashlib.sha256()

    def put(*parts: object) -> None:
        for p in parts:
            h.update(str(p).encode("utf-8", "backslashreplace"))
            h.update(b"\x1f")

    put(_MAGIC, PLAN_VERSION, model.name, model.cs_max, model.width)
    put("registers")
    for reg in model.registers.values():
        put(reg.name, reg.init)
    put("buses")
    for bus in model.buses.values():
        put(bus.name, bus.direct_link)
    put("modules")
    for spec in model.modules.values():
        put(
            spec.name,
            spec.latency,
            spec.pipelined,
            spec.sticky_illegal,
            spec.width,
            spec.default_op,
        )
        for name in sorted(spec.operations):
            put(name, spec.operations[name].arity)
    put("transfers")
    for transfer in model.transfers:
        put(str(transfer))
    return h.hexdigest()


# ----------------------------------------------------------------------
# the on-disk cache
# ----------------------------------------------------------------------
def default_cache_root() -> Path:
    """``$REPRO_PLAN_CACHE``, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_PLAN_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


#: Per-process dedupe for lenient cache reads: one RuntimeWarning per
#: unusable entry path, not one per resolve.  A damaged entry that
#: cannot be unlinked (read-only cache directory) would otherwise
#: re-warn on every elaboration in the same process.
_WARNED_ENTRIES: set = set()


def warn_entry_once(path: Union[str, Path], message: str) -> None:
    """Emit ``message`` as a RuntimeWarning once per path per process.

    Shared by the plan cache and the codegen artifact cache (see
    :mod:`repro.engine.codegen`): both discard corrupt entries
    leniently, and both should say so exactly once.
    """
    key = str(path)
    if key in _WARNED_ENTRIES:
        return
    _WARNED_ENTRIES.add(key)
    warnings.warn(message, RuntimeWarning, stacklevel=3)


def write_atomic(path: Path, data: bytes) -> bool:
    """Write one cache entry: a temp file beside ``path``, then a rename.

    Shared by every on-disk tier (plans, generated code and its
    sidecar, coverage).  Readers see the old entry or the new one,
    never a partial write.  The temp file is
    ``.<name>.tmp-<pid>-<thread id>``, so two threads writing one entry
    never share it, and ``gc_caches`` removes any left behind in the
    plan and codegen tiers.  The tiers are advisory: an unwritable root
    returns False instead of failing the run.
    """
    tmp = path.with_name(
        f".{path.name}.tmp-{os.getpid()}-{threading.get_ident()}"
    )
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except OSError:
        try:
            tmp.unlink()
        except OSError:
            pass
        return False
    return True


class PlanCache:
    """Content-addressed on-disk Plan store.

    Entries live at ``<root>/plans/v<PLAN_VERSION>/<digest>.plan`` and
    carry a ``(magic, version, plan)`` pickle payload.  Reads are
    lenient: any unreadable, truncated, foreign or digest-mismatched
    entry is discarded with a :class:`RuntimeWarning` (once per entry
    per process) and ``get`` returns None -- the caller just
    re-lowers.  Writes are atomic (tmp + rename) and best-effort: a
    read-only cache directory disables caching rather than failing the
    run.
    """

    def __init__(self, root: Optional[Union[str, Path]] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_root()

    def path_for(self, digest: str) -> Path:
        return self.root / "plans" / f"v{PLAN_VERSION}" / f"{digest}.plan"

    def get(self, digest: str) -> Optional[Plan]:
        path = self.path_for(digest)
        try:
            data = path.read_bytes()
        except OSError:
            return None
        try:
            payload = pickle.loads(data)
            if (
                not isinstance(payload, tuple)
                or len(payload) != 3
                or payload[0] != _MAGIC
                or payload[1] != PLAN_VERSION
            ):
                raise ValueError("stale or foreign payload header")
            plan = payload[2]
            if not isinstance(plan, Plan) or plan.digest != digest:
                raise ValueError("entry does not match its digest")
        except Exception as exc:
            warn_entry_once(
                path,
                f"plan cache: discarding unusable entry {path} "
                f"({exc}); re-lowering",
            )
            try:
                path.unlink()
            except OSError:  # pragma: no cover - racing unlink
                pass
            return None
        return plan

    def put(self, plan: Plan) -> bool:
        return write_atomic(
            self.path_for(plan.digest),
            pickle.dumps(
                (_MAGIC, PLAN_VERSION, plan),
                protocol=pickle.HIGHEST_PROTOCOL,
            ),
        )


# ----------------------------------------------------------------------
# resolution (the one entry point backends use)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PlanHandle:
    """A resolved Plan plus where it came from.

    ``source`` is ``"hit"`` / ``"miss"`` (cache consulted), ``"off"``
    (no cache configured) or ``"given"`` (caller supplied the Plan);
    ``build_ms`` is the wall time of the lowering step -- digest +
    cache probe + (on miss/off) the lowering itself.
    """

    plan: Plan
    source: str
    build_ms: float


#: ``plan_cache`` argument shapes accepted by :func:`resolve_plan` and
#: ``elaborate()``: None/False (off), True (default root), a path, or
#: a ready :class:`PlanCache`.
PlanCacheArg = Union[None, bool, str, Path, PlanCache]


def as_plan_cache(plan_cache: PlanCacheArg) -> Optional[PlanCache]:
    """Normalize a ``plan_cache`` argument to a cache or None."""
    if plan_cache is None or plan_cache is False:
        return None
    if plan_cache is True:
        return PlanCache()
    if isinstance(plan_cache, PlanCache):
        return plan_cache
    return PlanCache(plan_cache)


def resolve_plan(
    model: RTModel,
    plan: Union[None, Plan, PlanHandle] = None,
    plan_cache: PlanCacheArg = None,
) -> PlanHandle:
    """Resolve the Plan a backend should execute for ``model``.

    Precedence: an explicitly supplied ``plan`` (accepted only when
    its digest equals the model's, so the model is still digested),
    then a cache hit by content digest, then a fresh :func:`lower`
    (which also fills the cache).
    """
    if plan is not None:
        handle = (
            plan
            if isinstance(plan, PlanHandle)
            else PlanHandle(plan, "given", 0.0)
        )
        if not handle.plan.matches(model):
            # Names are often equal (one design, other presets), so
            # the digests are what tells the two apart.
            raise ModelError(
                f"supplied plan was lowered from a different model "
                f"(plan: {handle.plan.name!r} digest "
                f"{handle.plan.digest[:16]}, model: {model.name!r} "
                f"digest {model_digest(model)[:16]})"
            )
        return _recorded(handle)
    cache = as_plan_cache(plan_cache)
    t0 = time.perf_counter()
    if cache is None:
        lowered = lower(model)
        return _recorded(PlanHandle(
            lowered, "off", (time.perf_counter() - t0) * 1000.0
        ))
    digest = model_digest(model)
    cached = cache.get(digest)
    if cached is not None:
        return _recorded(PlanHandle(
            cached, "hit", (time.perf_counter() - t0) * 1000.0
        ))
    lowered = lower(model, digest=digest)
    cache.put(lowered)
    return _recorded(
        PlanHandle(lowered, "miss", (time.perf_counter() - t0) * 1000.0)
    )


def _recorded(handle: PlanHandle) -> PlanHandle:
    """Report the resolution to the process metrics registry (one
    counter bump + one histogram sample; never on the per-cycle path)."""
    from ..observe.metrics import record_plan_resolution

    record_plan_resolution(handle.source, handle.build_ms)
    return handle


# ----------------------------------------------------------------------
# module evaluator compilation (shared by every executing backend)
# ----------------------------------------------------------------------
def compile_module_eval(
    mp: ModulePlan,
    operations: Mapping[str, Operation],
    values: List[int],
):
    """Compile one functional unit into a CM-phase evaluator closure.

    The closure reads the (already updated) input-port values from
    ``values``, advances the unit's internal state, and returns the
    value to drive on the output port this cycle -- the exact state
    machines of :func:`repro.core.modules_lib.make_module`
    (combinational, variable-pipeline, and busy-poisoning
    non-pipelined variants, including the sticky-ILLEGAL freeze and §3
    op selection).  ``operations`` supplies the live operation bodies
    the plan deliberately does not carry.
    """
    names = mp.op_names
    default = operations[mp.default_op]
    width = mp.width
    in_idxs = mp.in_idxs
    op_idx = mp.op_idx

    def select_operation() -> Optional[Operation]:
        if op_idx is None:
            return default
        code = values[op_idx]
        if code == DISC:
            return default
        if code == ILLEGAL or not 0 <= code < len(names):
            return None
        return operations[names[code]]

    def combined() -> int:
        op = select_operation()
        if op is None:
            return ILLEGAL
        return _combine(op, [values[i] for i in in_idxs], width)

    if mp.latency == 0:
        state = {"frozen": False}

        def comb_eval() -> int:
            result = combined()
            if state["frozen"]:
                result = ILLEGAL
            elif result == ILLEGAL and mp.sticky_illegal:
                state["frozen"] = True
            return result

        return comb_eval

    if mp.pipelined:
        pipe = [DISC] * mp.latency
        state = {"frozen": False}

        def pipe_eval() -> int:
            out = ILLEGAL if state["frozen"] else pipe[-1]
            if not state["frozen"]:
                stage = combined()
                if stage == ILLEGAL and mp.sticky_illegal:
                    state["frozen"] = True
                pipe[1:] = pipe[:-1]
                pipe[0] = stage
            return out

        return pipe_eval

    state = {"remaining": 0, "result": DISC, "frozen": False}

    def nonpipe_eval() -> int:
        if state["frozen"]:
            return ILLEGAL
        incoming = combined()
        if state["remaining"] > 0:
            state["remaining"] -= 1
            if incoming != DISC:
                state["result"] = ILLEGAL
            out = state["result"] if state["remaining"] == 0 else DISC
        elif incoming != DISC:
            state["remaining"] = mp.latency
            state["result"] = incoming
            out = state["result"] if state["remaining"] == 0 else DISC
        else:
            out = DISC
        if (
            state["result"] == ILLEGAL
            and mp.sticky_illegal
            and state["remaining"] == 0
        ):
            state["frozen"] = True
        return out

    return nonpipe_eval


def compile_module_eval_batch(
    mp: ModulePlan,
    operations: Mapping[str, Operation],
    values: Any,
    n: int,
):
    """Compile one functional unit into a batched CM-phase evaluator.

    The lane-wise twin of :func:`compile_module_eval`: internal state
    becomes ``(N,)`` (or ``(latency, N)``) arrays, the scalar branches
    become lane masks, and the returned closure yields the ``(N,)``
    column to drive on the output port this cycle.  ``values`` is the
    batched backend's ``(N, num_ports)`` value plane.
    """
    from ..core.values_np import combine_batch, require_numpy

    np = require_numpy("the compiled-batched backend")
    names = mp.op_names
    default = operations[mp.default_op]
    default_code = mp.default_code
    width = mp.width
    in_idxs = mp.in_idxs
    op_idx = mp.op_idx

    def combined():
        cols = [values[:, i] for i in in_idxs]
        if op_idx is None:
            return combine_batch(default, cols, width)
        codes = values[:, op_idx]
        effective = np.where(codes == DISC, default_code, codes)
        valid = (
            (codes != ILLEGAL)
            & (effective >= 0)
            & (effective < len(names))
        )
        out = np.full(n, ILLEGAL, dtype=np.int64)
        for code in np.unique(effective[valid]):
            lanes = valid & (effective == code)
            op = operations[names[int(code)]]
            out[lanes] = combine_batch(
                op, [col[lanes] for col in cols], width
            )
        return out

    if mp.latency == 0:
        frozen = np.zeros(n, dtype=bool)

        def comb_eval():
            result = combined()
            out = np.where(frozen, ILLEGAL, result)
            if mp.sticky_illegal:
                frozen[:] = frozen | (result == ILLEGAL)
            return out

        return comb_eval

    if mp.pipelined:
        pipe = np.full((mp.latency, n), DISC, dtype=np.int64)
        frozen = np.zeros(n, dtype=bool)

        def pipe_eval():
            out = np.where(frozen, ILLEGAL, pipe[-1])
            active = ~frozen
            stage = combined()
            if mp.sticky_illegal:
                frozen[:] = frozen | (active & (stage == ILLEGAL))
            shifted = np.vstack([stage[None, :], pipe[:-1]])
            pipe[:] = np.where(active[None, :], shifted, pipe)
            return out

        return pipe_eval

    remaining = np.zeros(n, dtype=np.int64)
    result = np.full(n, DISC, dtype=np.int64)
    frozen = np.zeros(n, dtype=bool)

    def nonpipe_eval():
        active = ~frozen
        incoming = combined()
        busy = remaining > 0
        m_busy = active & busy
        remaining[:] = np.where(m_busy, remaining - 1, remaining)
        result[:] = np.where(
            m_busy & (incoming != DISC), ILLEGAL, result
        )
        m_start = active & ~busy & (incoming != DISC)
        remaining[:] = np.where(m_start, mp.latency, remaining)
        result[:] = np.where(m_start, incoming, result)
        done = remaining == 0
        out = np.where((m_busy | m_start) & done, result, DISC)
        out = np.where(frozen, ILLEGAL, out)
        if mp.sticky_illegal:
            frozen[:] = frozen | (active & (result == ILLEGAL) & done)
        return out

    return nonpipe_eval
