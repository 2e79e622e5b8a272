"""Tests for the shared lowering pipeline (:mod:`repro.engine.plan`).

The Plan IR is the single artifact every compiled backend elaborates
from, so its contract is strict: lowering must be deterministic down
to the pickle bytes (in-process, across interpreter invocations and
across checkouts), the content digest must move on any edit to a
declared value -- a name, a preset, module metadata, an operation's
arity, a transfer -- and must not move on an operation-body edit
(the live model supplies bodies at every elaboration, so a body
variant reuses the cached artifacts and still computes its own
results), and the backends must accept a pre-lowered plan only from
a model with the same digest.
"""

import copy
import dataclasses
import functools
import hashlib
import operator
import pickle
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings

from repro.core import ModelError, ModuleSpec, RTModel
from repro.core.modules_lib import Operation
from repro.core.values_np import have_numpy
from repro.engine import run_metrics
from repro.engine.plan import (
    Plan,
    lower,
    model_digest,
    resolve_plan,
    trans_op_code,
)
from repro.iks.flow import build_ik_model

from .test_differential import colliding_models

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

# One canonical model-building recipe, shared verbatim with the
# subprocess determinism test: same source text, same model.
BUILD_MODEL_SRC = """
from repro.core import ModuleSpec, RTModel
from repro.core.modules_lib import Operation


def build_model():
    model = RTModel("planned", cs_max=9)
    model.register("R1", init=2)
    model.register("R2", init=3)
    model.register("R3")
    model.bus("B1")
    model.bus("B2")
    model.module(ModuleSpec("ADD", latency=1))
    model.module(ModuleSpec(
        "ALU",
        operations={
            "ADD": Operation("ADD", 2, lambda a, b: a + b),
            "SUB": Operation("SUB", 2, lambda a, b: a - b),
        },
        latency=0,
    ))
    model.add_transfer("(R1,B1,R2,B2,3,ADD,4,B1,R1)")
    model.add_transfer("(R1,B1,R2,B2,5,ALU,5,B2,R3)[SUB]")
    return model
"""

_namespace: dict = {}
exec(BUILD_MODEL_SRC, _namespace)
build_model = _namespace["build_model"]


class TestLowering:
    def test_lower_produces_plan(self):
        model = build_model()
        plan = lower(model)
        assert isinstance(plan, Plan)
        assert plan.name == "planned"
        assert plan.cs_max == 9
        assert plan.register_names() == ("R1", "R2", "R3")
        assert plan.bus_count == 2
        assert len(plan.modules) == 2
        # One driver per TRANS instance, in global spec order.
        assert plan.num_drivers == len(model.trans_specs())
        assert plan.matches(model)

    def test_digest_is_stable_and_attached(self):
        model = build_model()
        plan = lower(model)
        assert plan.digest == model_digest(model)
        assert plan.digest == model_digest(build_model())

    def test_unknown_port_reference_raises(self):
        model = RTModel("bad", cs_max=7)
        model.register("R1", init=1)
        model.register("R2", init=1)
        model.bus("B1")
        model.bus("B2")
        model.module(ModuleSpec("ADD", latency=1))
        model.add_transfer("(R1,B1,R2,B2,5,ADD,6,B1,R1)")
        model.buses.pop("B2")
        with pytest.raises(ModelError, match="unknown port or bus"):
            lower(model)

    def test_trans_op_code_matches_module_spec(self):
        model = build_model()
        assert trans_op_code(model, "op:SUB", "ALU_op") == \
            model.modules["ALU"].op_code("SUB")


class TestDeterminism:
    def test_same_model_lowered_twice_is_byte_identical(self):
        d1 = model_digest(build_model())
        p1 = pickle.dumps(lower(build_model(), digest=d1))
        p2 = pickle.dumps(lower(build_model(), digest=d1))
        assert p1 == p2

    def test_subprocess_lowering_is_byte_identical(self, tmp_path):
        """A fresh interpreter (fresh PYTHONHASHSEED, fresh object
        addresses) must produce the same digests and the same pickle
        bytes -- the property the on-disk cache key relies on.  So
        must a copy of the package in another directory: a moved
        checkout, or two checkouts sharing one cache root, must reuse
        the warm tiers.  The E6 chip's operations are defined in the
        package's own files, so its digest is the one a
        source-location leak would move."""
        script = BUILD_MODEL_SRC + """
import hashlib, pickle, sys
from repro.engine.plan import lower, model_digest
from repro.iks.flow import build_ik_model

model = build_model()
digest = model_digest(model)
payload = pickle.dumps(lower(model, digest=digest))
print(digest)
print(hashlib.sha256(payload).hexdigest())
print(model_digest(build_ik_model(2.5, 1.0)[0]))
"""
        model = build_model()
        digest = model_digest(model)
        expected = [
            digest,
            hashlib.sha256(
                pickle.dumps(lower(model, digest=digest))
            ).hexdigest(),
            model_digest(build_ik_model(2.5, 1.0)[0]),
        ]
        moved = tmp_path / "moved" / "src"
        shutil.copytree(
            REPO_SRC / "repro", moved / "repro",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        for src in (REPO_SRC, moved):
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, check=True, cwd=tmp_path,
                env={"PYTHONPATH": str(src), "PYTHONHASHSEED": "random"},
            )
            assert result.stdout.split() == expected, src


def _add_k(k, a, b):
    return a + b + k


def _fig1_adding_with(fn):
    """Fig. 1 with ``fn`` as its adder's ADD body."""
    model = RTModel("example", cs_max=7)
    model.register("R1", init=2)
    model.register("R2", init=3)
    model.bus("B1")
    model.bus("B2")
    model.module(ModuleSpec(
        "ADD", operations={"ADD": Operation("ADD", 2, fn)}, latency=1,
    ))
    model.add_transfer("(R1,B1,R2,B2,5,ADD,6,B1,R1)")
    return model


#: Two bodies of one operation per way a body can differ: its code, a
#: default argument, a bound ``functools.partial`` argument.
BODY_VARIANTS = {
    "lambda": (lambda a, b: a + b, lambda a, b: a - b),
    "default": (
        lambda a, b, _k=1: a + b + _k,
        lambda a, b, _k=100: a + b + _k,
    ),
    "partial": (functools.partial(_add_k, 1), functools.partial(_add_k, 100)),
}

COMPILED_BACKENDS = ("compiled", "compiled-py") + (
    ("compiled-batched",) if have_numpy() else ()
)


class TestDigestSensitivity:
    def test_register_init_changes_digest(self):
        base = build_model()
        edited = build_model()
        edited.registers["R1"] = type(edited.registers["R1"])(
            name="R1", init=3
        )
        assert model_digest(edited) != model_digest(base)

    def test_allocation_changes_digest(self):
        """Rebinding one operand to a different bus is a different
        chip, even though registers and modules are unchanged."""
        def variant(bus):
            model = RTModel("planned", cs_max=9)
            model.register("R1", init=2)
            model.register("R2", init=3)
            model.bus("B1")
            model.bus("B2")
            model.module(ModuleSpec("ADD", latency=1))
            model.add_transfer(f"(R1,B1,R2,{bus},3,ADD,4,B1,R1)")
            return model

        assert model_digest(variant("B1")) != model_digest(variant("B2"))

    def test_schedule_step_changes_digest(self):
        def variant(step):
            model = RTModel("planned", cs_max=9)
            model.register("R1", init=2)
            model.register("R2", init=3)
            model.bus("B1")
            model.bus("B2")
            model.module(ModuleSpec("ADD", latency=1))
            model.add_transfer(f"(R1,B1,R2,B2,{step},ADD,{step + 1},B1,R1)")
            return model

        assert model_digest(variant(3)) != model_digest(variant(4))

    @pytest.mark.parametrize("backend", COMPILED_BACKENDS)
    @pytest.mark.parametrize("kind", sorted(BODY_VARIANTS))
    def test_body_variant_reuses_the_tiers_without_a_false_hit(
        self, tmp_path, kind, backend
    ):
        """Two bodies of one operation share a digest, so the second
        model hits the tiers the first filled -- and still computes
        its own sums, because every elaboration binds the live
        operations.  (Fig. 1 with ``partial(add_k, 100)`` gives
        R1 = 105 after ``partial(add_k, 1)`` filled the root.)"""
        first, second = (_fig1_adding_with(fn) for fn in BODY_VARIANTS[kind])
        assert model_digest(first) == model_digest(second)
        first.elaborate(backend=backend, plan_cache=tmp_path).run()
        sim = second.elaborate(backend=backend, plan_cache=tmp_path).run()
        row = run_metrics(sim)
        assert row["plan_cache"] == "hit"
        if backend == "compiled-py":
            assert row["codegen_cache"] == "hit"
        registers = (
            sim.registers[0] if backend == "compiled-batched"
            else sim.registers
        )
        assert registers == second.elaborate().run().registers


def _copy(model):
    """A copy of ``model`` whose declaration tables edit separately."""
    edited = copy.copy(model)
    edited.registers = dict(model.registers)
    edited.buses = dict(model.buses)
    edited.modules = dict(model.modules)
    edited.transfers = list(model.transfers)
    return edited


def _rename_first(model, table, fields):
    """Rename the first resource of ``table`` everywhere it is named:
    the same design under another name."""
    decls = getattr(model, table)
    old = next(iter(decls))
    new = old + "x"
    setattr(model, table, {
        (new if name == old else name):
            (dataclasses.replace(decl, name=new) if name == old else decl)
        for name, decl in decls.items()
    })
    model.transfers = [
        dataclasses.replace(
            t, **{f: new for f in fields if getattr(t, f) == old}
        )
        for t in model.transfers
    ]


def _edit_unit(model, field, change):
    """Apply ``change`` to one field of the unit the first transfer
    uses."""
    name = model.transfers[0].module
    spec = model.modules[name]
    model.modules[name] = dataclasses.replace(
        spec, **{field: change(getattr(spec, field))}
    )


def _body(arity):
    """An operation body no standard operation has."""
    return (lambda a, b: a ^ (b + 1)) if arity == 2 else (lambda a: a + 7)


def _flip_arity(ops):
    name = min(ops)
    arity = 3 - ops[name].arity
    return {**ops, name: Operation(name, arity, _body(arity))}


def _change_default_op(model):
    for name, spec in model.modules.items():
        others = sorted(set(spec.operations) - {spec.default_op})
        if others:
            model.modules[name] = dataclasses.replace(
                spec, default_op=others[0]
            )
            return True
    return False


def _change_transfer(model):
    t = model.transfers[0]
    model.transfers[0] = dataclasses.replace(
        t, write_bus="BB" if t.write_bus == "BA" else "BA"
    )


def _change_preset(model):
    reg = next(iter(model.registers.values()))
    model.registers[reg.name] = dataclasses.replace(
        reg, init=(reg.init + 1) % (1 << model.width)
    )


#: Every declared value the digest must cover; each edit returns
#: False when the drawn model has nothing it applies to.
DECLARED_EDITS = {
    "register name": lambda m: _rename_first(
        m, "registers", ("src1", "src2", "dest")
    ),
    "bus name": lambda m: _rename_first(
        m, "buses", ("bus1", "bus2", "write_bus")
    ),
    "module name": lambda m: _rename_first(m, "modules", ("module",)),
    "operation arity": lambda m: _edit_unit(m, "operations", _flip_arity),
    "transfer": _change_transfer,
    "preset": _change_preset,
    "latency": lambda m: _edit_unit(m, "latency", lambda v: v + 1),
    "pipelined": lambda m: _edit_unit(m, "pipelined", operator.not_),
    "sticky_illegal": lambda m: _edit_unit(
        m, "sticky_illegal", operator.not_
    ),
    "width": lambda m: _edit_unit(m, "width", lambda v: v + 1),
    "default op": _change_default_op,
}


@settings(max_examples=25, deadline=None)
@given(colliding_models())
# Few drawn models have a multi-op unit; its ALU pins the default-op edit.
@example(build_model())
def test_digest_covers_declared_values_and_not_bodies(model):
    """A body-only edit keeps the digest, reuses a shared root and
    still runs as its own event run does; an edit to any declared
    value moves the digest."""
    digest = model_digest(model)
    body_only = _copy(model)
    t = body_only.transfers[0]
    name = t.op or body_only.modules[t.module].default_op
    _edit_unit(body_only, "operations", lambda ops: {
        **ops, name: Operation(name, ops[name].arity, _body(ops[name].arity)),
    })
    assert model_digest(body_only) == digest
    with tempfile.TemporaryDirectory() as root:
        model.elaborate(backend="compiled-py", plan_cache=root).run()
        sim = body_only.elaborate(backend="compiled-py", plan_cache=root)
        sim.run()
        assert (sim.plan_cache_state, sim.codegen_cache_state) == (
            "hit", "hit"
        )
        assert sim.registers == body_only.elaborate().run().registers
    for what, edit in DECLARED_EDITS.items():
        edited = _copy(model)
        if edit(edited) is False:
            continue
        assert model_digest(edited) != digest, what


class TestResolvePlan:
    def test_explicit_plan_is_used_verbatim(self):
        model = build_model()
        plan = lower(model)
        handle = resolve_plan(model, plan=plan)
        assert handle.plan is plan
        assert handle.source == "given"
        assert handle.build_ms == 0.0

    def test_mismatched_plan_is_rejected(self):
        """A Plan is accepted only from a model with the same digest:
        another design, the same design with another preset (whose
        plan would run with the other preset), or with one extra
        transfer (whose plan would skip it)."""
        other = RTModel("other", cs_max=4)
        other.register("R1", init=1)
        other.bus("B1")
        other.module(ModuleSpec("ADD", latency=1))
        other.add_transfer("(R1,B1,R1,B1,1,ADD,2,B1,R1)")
        preset = build_model()
        preset.registers["R1"] = type(preset.registers["R1"])(
            name="R1", init=40
        )
        extra = build_model()
        extra.add_transfer("(R2,B1,R1,B2,6,ADD,7,B1,R2)")
        model = build_model()
        digest = model_digest(model)
        for source in (other, preset, extra):
            plan = lower(source)
            for backend in COMPILED_BACKENDS:
                with pytest.raises(ModelError, match="different model") as exc:
                    model.elaborate(backend=backend, plan=plan)
                assert plan.digest[:16] in str(exc.value)
                assert digest[:16] in str(exc.value)

    def test_no_cache_means_off(self):
        handle = resolve_plan(build_model())
        assert handle.source == "off"
        assert handle.plan.matches(build_model())
        assert handle.build_ms > 0.0


class TestBackendsShareThePlan:
    def test_all_backends_accept_a_pre_lowered_plan(self):
        model = build_model()
        plan = lower(model)
        baseline = model.elaborate(backend="compiled").run()
        for backend in ("compiled", "compiled-py"):
            sim = model.elaborate(backend=backend, plan=plan).run()
            assert sim.registers == baseline.registers
            assert sim.plan_cache_state == "given"
            assert sim.model_plan is plan
        event = model.elaborate().run()
        assert event.registers == baseline.registers

    def test_run_metrics_reports_plan_rows(self):
        from repro.engine import run_metrics

        model = build_model()
        sim = model.elaborate(backend="compiled").run()
        row = run_metrics(sim)
        assert row["plan_cache"] == "off"
        assert row["plan_build_ms"] >= 0.0

    def test_event_backend_rejects_plan_kwargs(self):
        model = build_model()
        with pytest.raises(ModelError, match="compiled backends only"):
            model.elaborate(backend="event", plan=lower(model))


class TestLintGuard:
    def test_no_module_outside_plan_defines_compile_module(self):
        """The three duplicated lowering paths are gone for good: the
        module compilers live in repro.engine.plan and nowhere else."""
        offenders = []
        for path in sorted((REPO_SRC / "repro").rglob("*.py")):
            if path.name == "plan.py" and path.parent.name == "engine":
                continue
            text = path.read_text(encoding="utf-8")
            for needle in ("def _compile_module", "def compile_module"):
                if needle in text:
                    offenders.append(f"{path}: {needle}")
        assert not offenders, (
            "duplicated lowering helpers outside repro.engine.plan:\n"
            + "\n".join(offenders)
        )
