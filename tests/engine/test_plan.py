"""Tests for the shared lowering pipeline (:mod:`repro.engine.plan`).

The Plan IR is the single artifact every compiled backend elaborates
from, so its contract is strict: lowering must be deterministic down
to the pickle bytes (in-process and across interpreter invocations),
the content digest must move on any semantic model edit, and the
backends must accept a pre-lowered plan as a drop-in for the model's
own lowering.
"""

import functools
import hashlib
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import ModelError, ModuleSpec, RTModel
from repro.core.modules_lib import Operation
from repro.engine.plan import (
    Plan,
    lower,
    model_digest,
    resolve_plan,
    trans_op_code,
)

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

    def test_subprocess_lowering_is_byte_identical(self):
        """A fresh interpreter (fresh PYTHONHASHSEED, fresh object
        addresses) must produce the same digest and the same pickle
        bytes -- the property the on-disk cache key relies on."""
        script = BUILD_MODEL_SRC + """
import hashlib, pickle, sys
from repro.engine.plan import lower, model_digest

model = build_model()
digest = model_digest(model)
payload = pickle.dumps(lower(model, digest=digest))
print(digest)
print(hashlib.sha256(payload).hexdigest())
"""
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": str(REPO_SRC), "PYTHONHASHSEED": "random"},
        )
        sub_digest, sub_pickle_sha = result.stdout.split()
        model = build_model()
        digest = model_digest(model)
        payload = pickle.dumps(lower(model, digest=digest))
        assert sub_digest == digest
        assert sub_pickle_sha == hashlib.sha256(payload).hexdigest()


def _add_k(k, a, b):
    return a + b + k


class TestDigestSensitivity:
    def test_register_init_changes_digest(self):
        base = build_model()
        edited = build_model()
        edited.registers["R1"] = type(edited.registers["R1"])(
            name="R1", init=3
        )
        assert model_digest(edited) != model_digest(base)

    def test_operation_body_changes_digest(self):
        def variant(op_fn):
            model = RTModel("planned", cs_max=9)
            model.register("R1", init=2)
            model.register("R2", init=3)
            model.bus("B1")
            model.module(ModuleSpec(
                "ALU",
                operations={"ADD": Operation("ADD", 2, op_fn)},
                latency=0,
            ))
            model.add_transfer("(R1,B1,R2,B1,3,ALU,4,B1,R1)")
            return model

        add = variant(lambda a, b: a + b)
        sub = variant(lambda a, b: a - b)
        assert model_digest(add) != model_digest(sub)

    def test_operation_default_changes_digest(self):
        def variant(shift):
            model = RTModel("planned", cs_max=9)
            model.register("R1", init=2)
            model.register("R2", init=3)
            model.bus("B1")
            model.module(ModuleSpec(
                "ALU",
                operations={
                    "SH": Operation(
                        "SH", 2, lambda a, b, _k=shift: a + (b >> _k)
                    ),
                },
                latency=0,
            ))
            model.add_transfer("(R1,B1,R2,B1,3,ALU,4,B1,R1)")
            return model

        assert model_digest(variant(1)) != model_digest(variant(2))

    def test_partial_arguments_change_digest(self):
        """Fig. 1 with ``partial(add_k, 1)`` and ``partial(add_k, 100)``
        as its ADD computes different sums, so it is two chips."""
        def variant(k):
            model = RTModel("example", cs_max=7)
            model.register("R1", init=2)
            model.register("R2", init=3)
            model.bus("B1")
            model.bus("B2")
            model.module(ModuleSpec(
                "ADD",
                operations={
                    "ADD": Operation("ADD", 2, functools.partial(_add_k, k)),
                },
                latency=1,
            ))
            model.add_transfer("(R1,B1,R2,B2,5,ADD,6,B1,R1)")
            return model

        assert model_digest(variant(1)) == model_digest(variant(1))
        assert model_digest(variant(1)) != model_digest(variant(100))

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


class TestResolvePlan:
    def test_explicit_plan_is_used_verbatim(self):
        model = build_model()
        plan = lower(model)
        handle = resolve_plan(model, plan=plan)
        assert handle.plan is plan
        assert handle.source == "given"
        assert handle.build_ms == 0.0

    def test_mismatched_plan_is_rejected(self):
        other = RTModel("other", cs_max=4)
        other.register("R1", init=1)
        other.bus("B1")
        other.module(ModuleSpec("ADD", latency=1))
        other.add_transfer("(R1,B1,R1,B1,1,ADD,2,B1,R1)")
        plan = lower(other)
        with pytest.raises(ModelError, match="different model"):
            resolve_plan(build_model(), plan=plan)

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
