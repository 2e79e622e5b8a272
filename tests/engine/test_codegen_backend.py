"""Tests for the generated ``compiled-py`` backend (:mod:`repro.engine.codegen`).

The generated executor's contract is the same differential discipline
that pinned the batched backend: bit-identical registers, traces,
conflicts, all five stats counters and canonical probe order vs
``compiled``, on the paper's examples and under hypothesis.  The
artifact cache is an accelerator, never a correctness hazard: warm hits must be byte-identical reuses, and any
damaged artifact is discarded with exactly one warning and
regenerated.
"""

import hashlib
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core import ModuleSpec, RTModel
from repro.core.modules_lib import standard_operation
from repro.core.transfer import RegisterTransfer
import repro.engine.codegen as codegen
from repro.engine import run_metrics
from repro.engine.codegen import (
    CODEGEN_VERSION,
    CodegenCache,
    CodegenRTSimulation,
    gc_caches,
    generate_source,
    model_op_arities,
    resolve_codegen,
)
from repro.engine.compiled import CompiledRTSimulation
from repro.engine.plan import PLAN_VERSION, PlanCache, resolve_plan
from repro.kernel.errors import DeltaCycleLimitError

from .test_differential import colliding_models, observe

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

# One canonical model recipe, shared verbatim with the subprocess
# warm-artifact test: same source text, same model, same digest.
BUILD_MODEL_SRC = """
from repro.core import ModuleSpec, RTModel


def build_model():
    model = RTModel("example", cs_max=7)
    model.register("R1", init=2)
    model.register("R2", init=3)
    model.bus("B1")
    model.bus("B2")
    model.module(ModuleSpec("ADD", latency=1))
    model.add_transfer("(R1,B1,R2,B2,5,ADD,6,B1,R1)")
    return model
"""
exec(BUILD_MODEL_SRC)


def conflict_model(lanes=3, collide_steps=(1, 5)):
    """Adder lanes plus deliberate same-bus collisions from X."""
    model = RTModel("clash", cs_max=12)
    model.register("X", init=99)
    for lane in range(lanes):
        model.register(f"A{lane}", init=lane + 1)
        model.register(f"B{lane}", init=lane + 2)
        model.register(f"S{lane}")
        model.bus(f"BA{lane}")
        model.bus(f"BB{lane}")
        model.module(ModuleSpec(f"FU{lane}", latency=1))
        step = 2 * lane + 1
        model.add_transfer(
            f"(A{lane},BA{lane},B{lane},BB{lane},{step},FU{lane},"
            f"{step + 1},BA{lane},S{lane})"
        )
        for step in collide_steps:
            model.add_transfer(
                f"(X,BA{lane},-,-,{step},FU{lane},-,-,-)"
            )
    return model


def alu_model(latency, pipelined, sticky, multi_op):
    """One (latency, pipelined, sticky, op-count) module-shape case."""
    model = RTModel("alu", cs_max=8, width=8)
    model.register("R1", init=200)
    model.register("R2", init=77)
    model.register("S1")
    model.register("S2")
    model.bus("B1")
    model.bus("B2")
    names = ("ADD", "SUB", "AND", "OR") if multi_op else ("ADD",)
    model.module(ModuleSpec(
        "ALU",
        operations={n: standard_operation(n) for n in names},
        default_op="ADD",
        latency=latency,
        pipelined=pipelined,
        width=8,
        sticky_illegal=sticky,
    ))
    model.add_transfer(RegisterTransfer(
        src1="R1", bus1="B1", src2="R2", bus2="B2", read_step=1,
        module="ALU", write_step=1 + latency, write_bus="B1", dest="S1",
        op="SUB" if multi_op else None,
    ))
    model.add_transfer(RegisterTransfer(
        src1="R2", bus1="B1", src2="R1", bus2="B2", read_step=4,
        module="ALU", write_step=4 + latency, write_bus="B2", dest="S2",
        op="OR" if multi_op else None,
    ))
    # A read with no write-back: exercises the busy/poison paths.
    model.add_transfer(RegisterTransfer(
        src1="R1", bus1="B1", src2="R2", bus2="B1", read_step=6,
        module="ALU", write_step=None, write_bus=None, dest=None,
    ))
    return model


class RecordingProbe:
    """Flat canonical-order event log for probe-parity checks."""

    def __init__(self):
        self.log = []

    def on_step(self, step):
        self.log.append(("step", step))

    def on_phase(self, at):
        self.log.append(("phase", at))

    def on_bus_drive(self, at, bus, value):
        self.log.append(("bus", at, bus, value))

    def on_register_latch(self, at, reg, value):
        self.log.append(("latch", at, reg, value))

    def on_conflict(self, event):
        self.log.append(("conflict", event.signal, event.at, event.sources))

    def on_run_start(self, backend):
        self.log.append(("start",))

    def on_run_end(self, backend, wall):
        self.log.append(("end",))


def assert_bit_identical(model, **kwargs):
    """Full-surface scalar parity: compiled vs compiled-py."""
    probe_a, probe_b = RecordingProbe(), RecordingProbe()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ref = CompiledRTSimulation(
            model, trace=True, observe=probe_a, **kwargs
        ).run()
        gen = CodegenRTSimulation(
            model, trace=True, observe=probe_b, **kwargs
        ).run()
    assert gen.codegen_mode == "exec"
    assert gen.registers == ref.registers
    assert vars(gen.stats) == vars(ref.stats)
    assert gen.conflicts == ref.conflicts
    assert gen.clean == ref.clean
    assert gen.tracer.samples == ref.tracer.samples
    assert probe_b.log == probe_a.log
    return ref, gen


class TestScalarDifferential:
    def test_fig1_bit_identical(self):
        assert_bit_identical(build_model())

    def test_conflicts_bit_identical(self):
        ref, gen = assert_bit_identical(conflict_model())
        assert gen.conflicts, "the clash model must actually conflict"
        assert not gen.clean

    def test_iks_e6_bit_identical(self):
        from repro.iks.flow import build_ik_model

        assert_bit_identical(build_ik_model(2.5, 1.0)[0])

    @pytest.mark.parametrize("multi_op", [False, True])
    @pytest.mark.parametrize(
        "latency,pipelined,sticky",
        [
            (0, True, True),
            (0, True, False),
            (1, True, True),
            (2, True, False),
            (1, False, True),
            (3, False, False),
        ],
    )
    def test_module_shapes(self, latency, pipelined, sticky, multi_op):
        assert_bit_identical(alu_model(latency, pipelined, sticky, multi_op))

    def test_run_steps_parity(self):
        model = build_model()
        for steps in (1, 3, model.cs_max, model.cs_max + 5):
            ref = CompiledRTSimulation(model).run_steps(steps)
            gen = CodegenRTSimulation(model).run_steps(steps)
            assert gen.codegen_mode == "exec"
            assert gen.registers == ref.registers
            assert vars(gen.stats) == vars(ref.stats)

    @settings(
        max_examples=25, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(colliding_models())
    def test_hypothesis_colliding_models(self, model):
        ref = observe(CompiledRTSimulation(model, trace=True).run())
        gen = observe(CodegenRTSimulation(model, trace=True).run())
        assert gen == ref


class TestMaxDeltasFallback:
    def test_tight_limit_falls_back_and_raises_identically(self):
        model = build_model()
        gen = CodegenRTSimulation(model, max_deltas=3)
        # The per-cycle limit check is semantic; the generated chunks
        # do not carry it, so the backend stays on the interpreter.
        assert gen.codegen_mode == "interpreter"
        with pytest.raises(DeltaCycleLimitError):
            CompiledRTSimulation(model, max_deltas=3).run()
        with pytest.raises(DeltaCycleLimitError):
            gen.run()

    def test_threshold_limit_keeps_the_generated_path(self):
        model = build_model()
        limit = model.cs_max * 6
        ref = CompiledRTSimulation(model, max_deltas=limit).run()
        gen = CodegenRTSimulation(model, max_deltas=limit).run()
        assert gen.codegen_mode == "exec"
        assert gen.registers == ref.registers


class TestArtifactCache:
    def test_miss_then_hit_through_elaborate(self, tmp_path):
        model = build_model()
        miss = model.elaborate(
            backend="compiled-py", plan_cache=tmp_path
        ).run()
        assert miss.codegen_cache_state == "miss"
        artifact = CodegenCache(tmp_path).path_for(miss.model_plan.digest)
        assert artifact.exists()
        first_bytes = artifact.read_bytes()
        hit = model.elaborate(
            backend="compiled-py", plan_cache=tmp_path
        ).run()
        assert hit.codegen_cache_state == "hit"
        assert hit.registers == miss.registers
        assert artifact.read_bytes() == first_bytes
        row = run_metrics(hit)
        assert row["codegen_cache"] == "hit"
        assert row["codegen_build_ms"] >= 0.0
        assert row["codegen_mode"] == "exec"

    def test_non_codegen_backend_has_no_codegen_rows(self):
        sim = build_model().elaborate(backend="compiled").run()
        row = run_metrics(sim)
        assert "codegen_cache" not in row
        assert "codegen_mode" not in row

    def test_warm_artifact_reused_byte_identically_in_subprocess(
        self, tmp_path
    ):
        """A fresh interpreter (fresh hash seed) must hit the warm
        artifact and reuse it byte-for-byte -- the property that makes
        the codegen tier a real warm-start accelerator."""
        model = build_model()
        sim = model.elaborate(
            backend="compiled-py", plan_cache=tmp_path
        ).run()
        assert sim.codegen_cache_state == "miss"
        artifact = CodegenCache(tmp_path).path_for(sim.model_plan.digest)
        parent_sha = hashlib.sha256(artifact.read_bytes()).hexdigest()
        script = BUILD_MODEL_SRC + f"""
import hashlib
model = build_model()
sim = model.elaborate(
    backend="compiled-py", plan_cache={str(tmp_path)!r}
).run()
print(sim.codegen_cache_state)
print(sim.codegen_mode)
print(sim.registers["R1"])
print(hashlib.sha256(
    open({str(artifact)!r}, "rb").read()
).hexdigest())
"""
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": str(REPO_SRC), "PYTHONHASHSEED": "random"},
        )
        state, mode, r1, sub_sha = result.stdout.split()
        assert state == "hit"
        assert mode == "exec"
        assert int(r1) == sim.registers["R1"]
        assert sub_sha == parent_sha

    def _seed_artifact(self, tmp_path):
        model = build_model()
        sim = model.elaborate(
            backend="compiled-py", plan_cache=tmp_path
        ).run()
        cache = CodegenCache(tmp_path)
        return model, cache, cache.path_for(sim.model_plan.digest)

    def test_truncated_artifact_regenerates_with_one_warning(
        self, tmp_path
    ):
        model, cache, artifact = self._seed_artifact(tmp_path)
        artifact.write_text(artifact.read_text()[:40], encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sim = model.elaborate(
                backend="compiled-py", plan_cache=tmp_path
            ).run()
        relevant = [
            w for w in caught
            if issubclass(w.category, RuntimeWarning)
            and "codegen cache" in str(w.message)
        ]
        assert len(relevant) == 1
        assert sim.codegen_cache_state == "miss"
        assert sim.codegen_mode == "exec"
        assert sim.registers["R1"] == 5
        # The entry was replaced; the next elaboration hits cleanly.
        again = model.elaborate(
            backend="compiled-py", plan_cache=tmp_path
        ).run()
        assert again.codegen_cache_state == "hit"

    def test_unparsable_artifact_regenerates_with_one_warning(
        self, tmp_path
    ):
        model, cache, artifact = self._seed_artifact(tmp_path)
        digest = artifact.name.partition(".")[0]
        # Header-complete (passes the text validation) but broken
        # source: the failure surfaces at compile time instead.
        artifact.write_text(
            f"CODEGEN_VERSION = {CODEGEN_VERSION}\n"
            f'PLAN_DIGEST = "{digest}"\n'
            "def bind(:\n",
            encoding="utf-8",
        )
        cache.code_path_for(digest).unlink()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sim = model.elaborate(
                backend="compiled-py", plan_cache=tmp_path
            ).run()
        relevant = [
            w for w in caught
            if issubclass(w.category, RuntimeWarning)
            and "codegen cache" in str(w.message)
        ]
        assert len(relevant) == 1
        assert sim.codegen_cache_state == "miss"
        assert sim.registers["R1"] == 5

    def test_codegen_warning_deduped_per_process(
        self, tmp_path, monkeypatch
    ):
        """A damaged artifact that cannot be removed (read-only cache)
        warns once per process, not once per elaboration."""
        model, cache, artifact = self._seed_artifact(tmp_path)
        plan = resolve_plan(model).plan
        arities = model_op_arities(model, plan)
        artifact.write_text("garbage", encoding="utf-8")
        monkeypatch.setattr(
            Path, "unlink",
            lambda self, missing_ok=False: (_ for _ in ()).throw(
                OSError("read-only")
            ),
        )
        monkeypatch.setattr(
            CodegenCache, "put", lambda self, *a, **k: False
        )
        monkeypatch.setattr(
            CodegenCache, "put_code", lambda self, *a, **k: False
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            first = resolve_codegen(plan, arities, plan_cache=tmp_path)
            second = resolve_codegen(plan, arities, plan_cache=tmp_path)
        assert first.source == "miss" and second.source == "miss"
        relevant = [
            w for w in caught
            if issubclass(w.category, RuntimeWarning)
            and "codegen cache" in str(w.message)
        ]
        assert len(relevant) == 1

    def test_plan_warning_deduped_per_process(self, tmp_path, monkeypatch):
        """Same dedupe contract on the plan cache (the PR-6 noise fix):
        a sticky corrupt entry re-warns never, not per resolve."""
        model = build_model()
        cache = PlanCache(tmp_path)
        handle = resolve_plan(model, plan_cache=cache)
        path = cache.path_for(handle.plan.digest)
        path.write_bytes(b"not a pickle")
        monkeypatch.setattr(
            Path, "unlink",
            lambda self, missing_ok=False: (_ for _ in ()).throw(
                OSError("read-only")
            ),
        )
        monkeypatch.setattr(PlanCache, "put", lambda self, plan: False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            first = resolve_plan(model, plan_cache=cache)
            second = resolve_plan(model, plan_cache=cache)
        assert first.source == "miss" and second.source == "miss"
        relevant = [
            w for w in caught
            if issubclass(w.category, RuntimeWarning)
            and "plan cache" in str(w.message)
        ]
        assert len(relevant) == 1


class TestEntryArtifacts:
    """One generated module per digest, compiled once per process and
    kept in the memo only while no disk tier holds it."""

    def artifacts(self, root):
        directory = root / "codegen" / f"v{CODEGEN_VERSION}"
        return sorted(path.name for path in directory.iterdir())

    def count_compiles(self, monkeypatch):
        compiled = []
        real = codegen._compile_artifact

        def counting(text, digest):
            compiled.append(text)
            return real(text, digest)

        monkeypatch.setattr(codegen, "_compile_artifact", counting)
        return compiled

    def test_scalar_elaboration_never_builds_bind_batch(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(codegen, "_MEMO", {})
        compiled = self.count_compiles(monkeypatch)
        sim = build_model().elaborate(
            backend="compiled-py", plan_cache=tmp_path
        ).run()
        assert sim.codegen_mode == "exec"
        digest = sim.model_plan.digest
        assert self.artifacts(tmp_path) == [f"{digest}.py", f"{digest}.pyc"]
        text = CodegenCache(tmp_path).path_for(digest).read_text()
        assert "def bind(" in text
        assert "def bind_batch(" not in text
        assert len(compiled) == 1
        assert "def bind_batch(" not in compiled[0]

    def test_memo_fills_an_empty_disk_tier_without_recompiling(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(codegen, "_MEMO", {})
        compiled = self.count_compiles(monkeypatch)
        model = build_model()
        model.elaborate(backend="compiled-py").run()
        filled = model.elaborate(
            backend="compiled-py", plan_cache=tmp_path
        ).run()
        assert filled.codegen_cache_state == "miss"
        assert filled.codegen_mode == "exec"
        assert len(compiled) == 1
        again = model.elaborate(
            backend="compiled-py", plan_cache=tmp_path
        ).run()
        assert again.codegen_cache_state == "hit"
        assert again.registers == filled.registers
        assert len(compiled) == 1

    def test_disk_tier_keeps_the_memo_empty(self, tmp_path, monkeypatch):
        # A configured tier is read before the memo, so a module it
        # holds is never kept in memory as well.
        monkeypatch.setattr(codegen, "_MEMO", {})
        model = build_model()
        miss = model.elaborate(backend="compiled-py", plan_cache=tmp_path)
        assert miss.codegen_cache_state == "miss"
        hit = model.elaborate(backend="compiled-py", plan_cache=tmp_path)
        assert hit.codegen_cache_state == "hit"
        assert codegen._MEMO == {}
        uncached = model.elaborate(backend="compiled-py")
        assert uncached.codegen_cache_state == "off"
        assert list(codegen._MEMO) == [uncached.model_plan.digest]

    def test_racing_threads_compile_one_digest_once(self, monkeypatch):
        from repro.iks.flow import build_ik_model

        # E6: generation and compile take long enough that racing
        # threads overlap in them unless resolution is serialized.
        model = build_ik_model(0.3, 0.7)[0]
        plan = resolve_plan(model).plan
        arities = model_op_arities(model, plan)
        monkeypatch.setattr(codegen, "_MEMO", {})
        compiled = self.count_compiles(monkeypatch)
        workers = 2
        barrier = threading.Barrier(workers)
        handles = [None] * workers
        errors = []

        def resolve(slot):
            try:
                barrier.wait(timeout=30)
                handles[slot] = resolve_codegen(plan, arities)
            except Exception as exc:  # surfaced by the assertions below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            threads = [
                threading.Thread(target=resolve, args=(slot,))
                for slot in range(workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(compiled) == 1
        assert all(h.module is handles[0].module for h in handles)


class TestGcCaches:
    def test_gc_prunes_foreign_and_keeps_valid(self, tmp_path):
        model = build_model()
        sim = model.elaborate(
            backend="compiled-py", plan_cache=tmp_path
        ).run()
        assert sim.codegen_cache_state == "miss"
        plans = tmp_path / "plans" / f"v{PLAN_VERSION}"
        codegen = tmp_path / "codegen" / f"v{CODEGEN_VERSION}"
        fake = "f" * 64
        (plans / "not-a-digest.plan").write_text("junk")
        (plans / f"{fake}.plan").write_bytes(b"truncated")
        (codegen / f"{fake}.py").write_text("garbage")
        (codegen / f"{fake}.pyc").write_bytes(b"orphan sidecar")
        (codegen / f".{fake}.py.tmp-123").write_text("leftover")
        report = gc_caches(tmp_path)
        assert report["plans"]["kept"] == 1
        assert report["plans"]["removed"] == 2
        assert report["codegen"]["kept"] == 2  # the .py and its .pyc
        assert report["codegen"]["removed"] == 3
        assert f"{fake}.py" in report["codegen"]["removed_names"]
        # The valid entries survived: the next elaboration still hits.
        again = model.elaborate(
            backend="compiled-py", plan_cache=tmp_path
        ).run()
        assert again.plan_cache_state == "hit"
        assert again.codegen_cache_state == "hit"

    def test_gc_removes_superseded_tier_versions(self, tmp_path):
        digest = "e" * 64
        old_codegen = tmp_path / "codegen" / "v1"
        old_codegen.mkdir(parents=True)
        (old_codegen / f"{digest}.py").write_text("CODEGEN_VERSION = 1\n")
        (old_codegen / f"{digest}.pyc").write_bytes(b"old sidecar")
        old_plans = tmp_path / "plans" / "v1"
        old_plans.mkdir(parents=True)
        (old_plans / f"{digest}.plan").write_bytes(b"old plan")
        # A newer checkout sharing the root keeps its own tier.
        newer = tmp_path / "codegen" / f"v{CODEGEN_VERSION + 1}"
        newer.mkdir()
        (newer / f"{digest}.bind.py").write_text("newer layout")
        report = gc_caches(tmp_path)
        assert not old_codegen.exists()
        assert not old_plans.exists()
        assert report["codegen"]["removed_names"] == ["v1/"]
        assert report["plans"]["removed_names"] == ["v1/"]
        assert (newer / f"{digest}.bind.py").exists()

    def test_gc_on_empty_root_reports_zeros(self, tmp_path):
        report = gc_caches(tmp_path / "nothing-here")
        for kind in ("plans", "codegen"):
            assert report[kind] == {
                "scanned": 0, "kept": 0, "removed": 0, "removed_names": [],
            }


class TestMetricsExposition:
    def test_codegen_requests_recorded(self, tmp_path):
        from repro.observe import REGISTRY
        from repro.observe.metrics import parse_prometheus

        REGISTRY.reset()
        model = build_model()
        model.elaborate(backend="compiled-py", plan_cache=tmp_path).run()
        model.elaborate(backend="compiled-py", plan_cache=tmp_path).run()
        model.elaborate(backend="compiled-py").run()
        parsed = parse_prometheus(REGISTRY.to_prometheus())
        sources = {
            s["labels"]["source"]: s["value"]
            for s in parsed["repro_codegen_requests_total"]["samples"]
        }
        assert sources["miss"] == 1.0
        assert sources["hit"] == 1.0
        assert sources["off"] == 1.0
        assert (
            parsed["repro_codegen_build_ms_count"]["samples"][0]["value"]
            == 3.0
        )
        REGISTRY.reset()


class TestGeneratedSource:
    def test_source_is_digest_stamped_and_deterministic(self):
        model = build_model()
        plan = resolve_plan(model).plan
        arities = model_op_arities(model, plan)
        text = generate_source(plan, arities)
        assert f"CODEGEN_VERSION = {CODEGEN_VERSION}" in text
        assert f'PLAN_DIGEST = "{plan.digest}"' in text
        assert text == generate_source(plan, arities)

    def test_no_module_outside_codegen_builds_step_source(self):
        """Generated-source assembly is the codegen module's monopoly:
        nothing else may stitch step-function source text together
        (the markers below appear only in generated artifacts and the
        generator itself)."""
        offenders = []
        needles = (
            "PLAN_DIGEST =",           # artifact header stamp
            "CHUNK_STATS",             # per-chunk accounting constant
            "def bind(",               # generated entry points
            "def bind_batch(",
        )
        for path in sorted((REPO_SRC / "repro").rglob("*.py")):
            if path.name == "codegen.py" and path.parent.name == "engine":
                continue
            text = path.read_text(encoding="utf-8")
            for needle in needles:
                if needle in text:
                    offenders.append(f"{path}: {needle!r}")
        assert not offenders, (
            "step-function source text built outside repro.engine.codegen:\n"
            + "\n".join(offenders)
        )
