"""Tests for the on-disk content-addressed plan cache.

The cache is an accelerator, never a correctness hazard: a hit must
be byte-equivalent to lowering from scratch, and any damaged entry --
truncated write, stale format version, wrong payload -- is discarded
with a warning and silently re-lowered, never crashing a run.
"""

import pickle
import warnings

import pytest

from repro.core import ModuleSpec, RTModel
from repro.engine.plan import (
    PLAN_VERSION,
    PlanCache,
    as_plan_cache,
    default_cache_root,
    lower,
    model_digest,
    resolve_plan,
)


def build_model():
    model = RTModel("cached", cs_max=7)
    model.register("R1", init=2)
    model.register("R2", init=3)
    model.bus("B1")
    model.bus("B2")
    model.module(ModuleSpec("ADD", latency=1))
    model.add_transfer("(R1,B1,R2,B2,5,ADD,6,B1,R1)")
    return model


@pytest.fixture
def cache(tmp_path):
    return PlanCache(tmp_path / "plans")


class TestPlanCache:
    def test_put_then_get_roundtrips(self, cache):
        model = build_model()
        plan = lower(model, digest=model_digest(model))
        assert cache.put(plan)
        got = cache.get(plan.digest)
        assert got is not None
        assert pickle.dumps(got) == pickle.dumps(plan)

    def test_get_missing_is_none(self, cache):
        assert cache.get("0" * 64) is None

    def test_entries_are_version_namespaced(self, cache):
        model = build_model()
        plan = lower(model, digest=model_digest(model))
        cache.put(plan)
        path = cache.path_for(plan.digest)
        assert f"v{PLAN_VERSION}" in str(path)
        assert path.exists()

    def test_miss_then_hit_through_resolve(self, cache):
        first = resolve_plan(build_model(), plan_cache=cache)
        assert first.source == "miss"
        second = resolve_plan(build_model(), plan_cache=cache)
        assert second.source == "hit"
        assert second.plan.digest == first.plan.digest
        assert pickle.dumps(second.plan) == pickle.dumps(first.plan)

    def test_backend_elaboration_hits_the_cache(self, cache):
        model = build_model()
        miss = model.elaborate(backend="compiled", plan_cache=cache).run()
        assert miss.plan_cache_state == "miss"
        hit = model.elaborate(backend="compiled", plan_cache=cache).run()
        assert hit.plan_cache_state == "hit"
        assert hit.registers == miss.registers
        from repro.engine import run_metrics

        row = run_metrics(hit)
        assert row["plan_cache"] == "hit"
        assert row["plan_build_ms"] >= 0.0


class TestLeniency:
    """Damaged cache entries degrade to a re-lower, never a crash."""

    def _seed_entry(self, cache):
        model = build_model()
        plan = lower(model, digest=model_digest(model))
        assert cache.put(plan)
        return model, plan, cache.path_for(plan.digest)

    def test_truncated_entry_warns_and_relowers(self, cache):
        model, plan, path = self._seed_entry(cache)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.warns(RuntimeWarning, match="discard"):
            handle = resolve_plan(model, plan_cache=cache)
        assert handle.source == "miss"
        assert handle.plan.digest == plan.digest
        # The bad entry was replaced; the next resolve hits cleanly.
        assert resolve_plan(model, plan_cache=cache).source == "hit"

    def test_garbage_entry_warns_and_relowers(self, cache):
        model, plan, path = self._seed_entry(cache)
        path.write_bytes(b"not a pickle at all")
        with pytest.warns(RuntimeWarning, match="discard"):
            handle = resolve_plan(model, plan_cache=cache)
        assert handle.source == "miss"
        assert handle.plan.digest == plan.digest

    def test_stale_version_header_warns_and_relowers(self, cache):
        model, plan, path = self._seed_entry(cache)
        stale = pickle.dumps(("repro-plan", PLAN_VERSION - 1, plan))
        path.write_bytes(stale)
        with pytest.warns(RuntimeWarning, match="discard"):
            handle = resolve_plan(model, plan_cache=cache)
        assert handle.source == "miss"

    def test_wrong_payload_type_warns_and_relowers(self, cache):
        model, plan, path = self._seed_entry(cache)
        path.write_bytes(pickle.dumps(["wrong", "shape"]))
        with pytest.warns(RuntimeWarning, match="discard"):
            handle = resolve_plan(model, plan_cache=cache)
        assert handle.source == "miss"

    def test_damaged_entry_never_crashes_a_full_run(self, cache):
        model, _plan, path = self._seed_entry(cache)
        path.write_bytes(b"\x80")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            sim = model.elaborate(backend="compiled", plan_cache=cache).run()
        assert sim.registers["R1"] == 5


class TestCacheArg:
    def test_none_and_false_mean_off(self):
        assert as_plan_cache(None) is None
        assert as_plan_cache(False) is None

    def test_true_uses_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PLAN_CACHE", str(tmp_path / "env-cache"))
        assert default_cache_root() == tmp_path / "env-cache"
        cache = as_plan_cache(True)
        assert cache is not None
        assert str(tmp_path / "env-cache") in str(cache.path_for("ab" * 32))

    def test_path_builds_a_cache(self, tmp_path):
        cache = as_plan_cache(tmp_path / "here")
        assert cache is not None
        assert str(tmp_path / "here") in str(cache.path_for("ab" * 32))

    def test_cache_instance_passes_through(self, tmp_path):
        cache = PlanCache(tmp_path)
        assert as_plan_cache(cache) is cache
