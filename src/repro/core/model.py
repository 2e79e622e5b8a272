"""The register-transfer model builder (paper §2.1, §2.7).

A concrete register-transfer model consists of

* a set of **registers**,
* a set of **modules** performing arithmetical/logical operations,
* a set of **buses** used for transfers of values, and
* the **timing of transfers**, given as 9-tuples embedded in the
  control-step scheme.

:class:`RTModel` is the declarative builder for such models.  It
validates the structure as it is built, desugars the paper's §3 idioms
(direct links become dedicated buses and COPY modules -- "it is better
to model more resources than to extend the VHDL subset"), and
elaborates into a running kernel simulation
(:class:`repro.core.simulator.RTSimulation`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence, Union

from .modules_lib import DEFAULT_WIDTH, ModuleSpec, alu_spec, standard_operation
from .transfer import RegisterTransfer, TransSpec, expand_all
from .values import DISC, check_value


class ModelError(ValueError):
    """Raised for structural errors in a register-transfer model."""


@dataclass(frozen=True)
class RegisterDecl:
    """A register resource; ``init`` presets its output port."""

    name: str
    init: int = DISC


@dataclass(frozen=True)
class BusDecl:
    """A bus resource.  ``direct_link`` marks buses introduced by the
    §3 desugaring of direct register/module connections."""

    name: str
    direct_link: bool = False


class RTModel:
    """Builder for a clock-free register-transfer model.

    Example (the paper's Fig. 1)::

        m = RTModel("example", cs_max=7)
        m.register("R1", init=2)
        m.register("R2", init=3)
        m.bus("B1")
        m.bus("B2")
        m.module(ModuleSpec("ADD", latency=1))
        m.add_transfer("(R1,B1,R2,B2,5,ADD,6,B1,R1)")
        sim = m.elaborate()
        sim.run()
        assert sim.registers["R1"] == 5
    """

    def __init__(self, name: str, cs_max: int, width: int = DEFAULT_WIDTH) -> None:
        if cs_max < 1:
            raise ModelError(f"cs_max must be >= 1, got {cs_max}")
        self.name = name
        self.cs_max = cs_max
        self.width = width
        self.registers: dict[str, RegisterDecl] = {}
        self.buses: dict[str, BusDecl] = {}
        self.modules: dict[str, ModuleSpec] = {}
        self.transfers: list[RegisterTransfer] = []

    # ------------------------------------------------------------------
    # resource declaration
    # ------------------------------------------------------------------
    def register(self, name: str, init: int = DISC) -> str:
        """Declare a register; returns its name for convenience."""
        self._check_fresh(name)
        if init != DISC:
            check_value(init, f"register {name} init")
            init %= 1 << self.width
        self.registers[name] = RegisterDecl(name, init)
        return name

    def input_port(self, name: str, value: int = DISC) -> str:
        """Declare a design input.

        At this abstraction level an input port behaves exactly like a
        register preloaded with the environment's value (the paper's
        example entity routes its ``x_in``-style ports into registers).
        """
        return self.register(name, init=value)

    def output_port(self, name: str) -> str:
        """Declare a design output: a register the environment reads
        after the run."""
        return self.register(name)

    def bus(self, name: str, direct_link: bool = False) -> str:
        """Declare a bus; returns its name."""
        self._check_fresh(name)
        self.buses[name] = BusDecl(name, direct_link)
        return name

    def module(
        self,
        spec: Union[ModuleSpec, str],
        ops: Optional[Sequence[str]] = None,
        latency: int = 1,
        pipelined: bool = True,
        default_op: Optional[str] = None,
    ) -> str:
        """Declare a functional unit.

        Either pass a full :class:`ModuleSpec`, or a name plus standard
        operation names (``ops``), latency and pipelining, e.g.
        ``m.module("XADD", ops=["ADD", "SUB"], latency=0)``.
        """
        if isinstance(spec, str):
            if ops is None:
                ops = ["ADD"]
            spec = alu_spec(
                spec,
                ops,
                default_op=default_op,
                latency=latency,
                pipelined=pipelined,
                width=self.width,
            )
        self._check_fresh(spec.name)
        if spec.width != self.width:
            spec = ModuleSpec(
                name=spec.name,
                operations=spec.operations,
                default_op=spec.default_op,
                latency=spec.latency,
                pipelined=spec.pipelined,
                width=self.width,
                sticky_illegal=spec.sticky_illegal,
            )
        self.modules[spec.name] = spec
        return spec.name

    def direct_link_bus(self, source: str, module: str, port: int) -> str:
        """Desugar a direct register-to-module link (paper §3).

        "For the direct link from register P to module input port
        Z_ADD a bus P_Z_ADD_in2 is introduced."  Returns the name of
        the dedicated bus; transfers over the link simply name it.
        """
        self._require_register(source)
        self._require_module(module)
        name = f"{source}_{module}_in{port}"
        if name not in self.buses:
            self.bus(name, direct_link=True)
        return name

    def copy_path(self, source: str, dest: str) -> tuple[str, str, str]:
        """Desugar a direct register-to-register link (paper §3).

        "For the direct link from Z to the register file R two extra
        buses and one extra module, which just copies the input to the
        output, are introduced."  Returns ``(bus_in, copy_module,
        bus_out)``; use :meth:`copy_transfer` to schedule the move.
        """
        self._require_register(source)
        self._require_register(dest)
        copier = f"CP_{source}_{dest}"
        bus_in = f"{source}_{copier}"
        bus_out = f"{copier}_{dest}"
        if copier not in self.modules:
            self.module(
                ModuleSpec(
                    copier,
                    operations={"COPY": standard_operation("COPY")},
                    latency=0,
                    width=self.width,
                )
            )
        if bus_in not in self.buses:
            self.bus(bus_in, direct_link=True)
        if bus_out not in self.buses:
            self.bus(bus_out, direct_link=True)
        return bus_in, copier, bus_out

    def copy_transfer(self, source: str, dest: str, step: int) -> RegisterTransfer:
        """Schedule a register-to-register move over its copy path."""
        bus_in, copier, bus_out = self.copy_path(source, dest)
        return self.add_transfer(
            RegisterTransfer(
                src1=source,
                bus1=bus_in,
                read_step=step,
                module=copier,
                write_step=step,
                write_bus=bus_out,
                dest=dest,
            )
        )

    def move(self, source: str, bus: str, dest: str, step: int) -> RegisterTransfer:
        """Schedule a register-to-register move *via a shared bus*.

        The IKS microcode (§3) derives moves such as ``(J[6],BusA,y2,1)``:
        a value travels from a register over one of the chip's shared
        buses into another register.  Within the subset every transfer
        passes through a functional unit, so the move desugars -- per
        the paper's own "model more resources" rule -- into a COPY
        module attached to the bus plus a dedicated bus into the
        destination::

            src --(ra)-> bus --(rb)-> CP_bus --(wa)-> CP_bus_dest --(wb)-> dest

        Conflicts on the shared bus remain fully observable because the
        source still travels over it in the RA phase of ``step``.
        """
        self._require_register(source)
        self._require_bus(bus)
        self._require_register(dest)
        copier = f"CP_{bus}"
        if copier not in self.modules:
            self.module(
                ModuleSpec(
                    copier,
                    operations={"COPY": standard_operation("COPY")},
                    latency=0,
                    width=self.width,
                )
            )
        out_bus = f"{copier}_{dest}"
        if out_bus not in self.buses:
            self.bus(out_bus, direct_link=True)
        return self.add_transfer(
            RegisterTransfer(
                src1=source,
                bus1=bus,
                read_step=step,
                module=copier,
                write_step=step,
                write_bus=out_bus,
                dest=dest,
            )
        )

    def constant(self, value: int) -> str:
        """A register preloaded with ``value`` (idempotent).

        The subset has no literal constants on buses; modeling them as
        preset registers keeps every transfer in the canonical
        reg->bus->module->bus->reg shape (the IKS microcode needs a
        constant 0 for ops like ``Z := 0 + 0`` and constant shift
        amounts for ``Rshift(x2, i)``).
        """
        check_value(value, "constant")
        name = f"K{value}"
        if name not in self.registers:
            self.register(name, init=value)
        return name

    # ------------------------------------------------------------------
    # transfers
    # ------------------------------------------------------------------
    def add_transfer(
        self, transfer: Union[RegisterTransfer, str]
    ) -> RegisterTransfer:
        """Add a register transfer (a tuple object or its printed form)."""
        if isinstance(transfer, str):
            transfer = RegisterTransfer.parse(transfer)
        self._validate_transfer(transfer)
        self.transfers.append(transfer)
        return transfer

    def transfer(self, **fields) -> RegisterTransfer:
        """Convenience keyword form of :meth:`add_transfer`."""
        return self.add_transfer(RegisterTransfer(**fields))

    def compute(
        self,
        module: str,
        dest: str,
        step: int,
        src1: Optional[str] = None,
        bus1: Optional[str] = None,
        src2: Optional[str] = None,
        bus2: Optional[str] = None,
        write_bus: Optional[str] = None,
        op: Optional[str] = None,
    ) -> RegisterTransfer:
        """High-level helper: read operands at ``step``, write the module
        result to ``dest`` at ``step + latency`` (0-latency modules write
        in the same step)."""
        spec = self._require_module(module)
        write_step = step + max(spec.latency, 0)
        if write_bus is None:
            if bus1 is None:
                raise ModelError(
                    f"compute({module}): give write_bus or at least bus1"
                )
            write_bus = bus1
        return self.add_transfer(
            RegisterTransfer(
                src1=src1,
                bus1=bus1,
                src2=src2,
                bus2=bus2,
                read_step=step,
                module=module,
                write_step=write_step,
                write_bus=write_bus,
                dest=dest,
                op=op,
            )
        )

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def trans_specs(self) -> list[TransSpec]:
        """All TRANS process instances of the model (paper §2.7)."""
        return expand_all(self.transfers)

    def resource_names(self) -> set[str]:
        """All declared resource names (registers, buses, modules)."""
        return set(self.registers) | set(self.buses) | set(self.modules)

    def describe(self) -> str:
        """A human-readable inventory of the model."""
        lines = [f"RT model {self.name!r}: cs_max={self.cs_max}, width={self.width}"]
        lines.append(f"  registers ({len(self.registers)}):")
        for reg in self.registers.values():
            init = "" if reg.init == DISC else f" := {reg.init}"
            lines.append(f"    {reg.name}{init}")
        lines.append(f"  buses ({len(self.buses)}):")
        for bus in self.buses.values():
            kind = "  (direct link)" if bus.direct_link else ""
            lines.append(f"    {bus.name}{kind}")
        lines.append(f"  modules ({len(self.modules)}):")
        for spec in self.modules.values():
            ops = "/".join(sorted(spec.operations))
            pipe = "pipelined" if spec.pipelined else "non-pipelined"
            lines.append(
                f"    {spec.name}: {ops}, latency={spec.latency}, {pipe}"
            )
        lines.append(f"  transfers ({len(self.transfers)}):")
        for transfer in self.transfers:
            lines.append(f"    {transfer}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # elaboration
    # ------------------------------------------------------------------
    def elaborate(
        self,
        register_values: Optional[Mapping[str, int]] = None,
        trace: bool = False,
        watch: Optional[Iterable[str]] = None,
        max_deltas: int = 1_000_000,
        transfer_engine: bool = True,
        backend: str = "event",
        observe=None,
        plan=None,
        plan_cache=None,
    ):
        """Build an executable simulation for this model.

        Parameters
        ----------
        register_values:
            Per-run overrides of register presets (for parameter
            sweeps without rebuilding the model).  The
            ``"compiled-batched"`` backend also accepts a *sequence*
            of such mappings -- one register-value vector per batch
            lane, all swept in a single run.
        trace:
            Record a full (step, phase) waveform of every bus and port.
        watch:
            Signal names to trace.  On the compiled backends this is a
            subset fast path: only the watched ports are sampled
            (``trace=True`` without ``watch`` still records all).
        transfer_engine:
            Realize the TRANS instances as one folded engine process
            (default) or one kernel process each (the literal paper
            structure); observationally identical, see
            :class:`repro.core.simulator.RTSimulation`.  Only
            meaningful for the event backend.
        backend:
            Which simulation engine executes the model: ``"event"``
            (the delta-cycle kernel, default), ``"compiled"`` (the
            per-(step, phase) action-table executor) or
            ``"compiled-batched"`` (the same tables walked once for N
            input vectors over a numpy value plane; batch-shaped
            results -- ``registers[i]``, ``conflicts[i]``,
            ``clean_mask``); see :mod:`repro.engine`.  All are
            bit-identical per vector in registers, traces and
            conflict localization.
        observe:
            A :class:`repro.observe.Probe` receiving the run's event
            stream (phase boundaries, bus drives, register latches,
            conflicts) in the same canonical order on every backend.
            None (the default) installs nothing and costs nothing.
        plan / plan_cache:
            Compiled backends only.  ``plan`` supplies a pre-lowered
            :class:`repro.engine.plan.Plan` for this model (skipping
            lowering); it must come from a model with the same
            digest, and the model is still digested to check that
            (a mismatch raises :class:`ModelError`).  ``plan_cache``
            enables the on-disk content-addressed plan cache --
            ``True`` for the default root (``$REPRO_PLAN_CACHE`` or
            ``~/.cache/repro``), a path, or a
            :class:`repro.engine.plan.PlanCache`.  The event
            backend interprets the model directly and accepts neither.

        Returns a :class:`repro.engine.Backend` -- an
        :class:`repro.core.simulator.RTSimulation` for the default
        event backend.
        """
        from ..engine import create_backend  # local import: avoid cycle

        kwargs = dict(
            register_values=register_values,
            trace=trace,
            watch=watch,
            max_deltas=max_deltas,
            transfer_engine=transfer_engine,
            observe=observe,
        )
        if plan is not None or plan_cache not in (None, False):
            if backend == "event":
                raise ModelError(
                    "plan/plan_cache apply to the compiled backends only "
                    "(got backend='event')"
                )
            kwargs["plan"] = plan
            kwargs["plan_cache"] = plan_cache
        return create_backend(backend, self, **kwargs)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _check_fresh(self, name: str) -> None:
        if not name or not isinstance(name, str):
            raise ModelError(f"resource name must be a non-empty string: {name!r}")
        if name in self.resource_names():
            raise ModelError(f"duplicate resource name {name!r}")

    def _require_register(self, name: str) -> RegisterDecl:
        try:
            return self.registers[name]
        except KeyError:
            raise ModelError(f"unknown register {name!r}") from None

    def _require_bus(self, name: str) -> BusDecl:
        try:
            return self.buses[name]
        except KeyError:
            raise ModelError(f"unknown bus {name!r}") from None

    def _require_module(self, name: str) -> ModuleSpec:
        try:
            return self.modules[name]
        except KeyError:
            raise ModelError(f"unknown module {name!r}") from None

    def _validate_transfer(self, transfer: RegisterTransfer) -> None:
        spec = self._require_module(transfer.module)
        for src in (transfer.src1, transfer.src2):
            if src is not None:
                self._require_register(src)
        for bus in (transfer.bus1, transfer.bus2, transfer.write_bus):
            if bus is not None:
                self._require_bus(bus)
        if transfer.dest is not None:
            self._require_register(transfer.dest)
        for step in (transfer.read_step, transfer.write_step):
            if step is not None and step > self.cs_max:
                raise ModelError(
                    f"{transfer}: control step {step} exceeds cs_max="
                    f"{self.cs_max}"
                )
        if transfer.src2 is not None and spec.arity < 2:
            raise ModelError(
                f"{transfer}: module {spec.name!r} has a single input port"
            )
        if transfer.op is not None:
            if not spec.multi_op:
                raise ModelError(
                    f"{transfer}: module {spec.name!r} implements a single "
                    f"operation; op select is not applicable"
                )
            spec.op_code(transfer.op)  # raises KeyError -> surface as is
