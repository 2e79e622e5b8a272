"""The engine layer's protocol, registry and metrics surface."""

import pytest

from repro.cli import main
from repro.clocked import elaborate_clocked, translate
from repro.core import ModuleSpec, RTModel
from repro.core.serialize import dump
from repro.core.simulator import RTSimulation
from repro.engine import (
    Backend,
    BackendError,
    CompiledRTSimulation,
    backend_names,
    create_backend,
    register_backend,
    run_metrics,
)
from repro.handshake import HandshakeNetwork


def fig1_model(cs_max=7, r1=2, r2=3):
    model = RTModel("example", cs_max=cs_max)
    model.register("R1", init=r1)
    model.register("R2", init=r2)
    model.bus("B1")
    model.bus("B2")
    model.module(ModuleSpec("ADD", latency=1))
    model.add_transfer("(R1,B1,R2,B2,5,ADD,6,B1,R1)")
    return model


class TestRegistry:
    def test_builtin_backends_are_registered(self):
        names = backend_names()
        assert "event" in names
        assert "compiled" in names

    def test_unknown_backend_raises(self):
        with pytest.raises(BackendError, match="unknown backend"):
            create_backend("quantum", fig1_model())

    def test_unknown_backend_through_elaborate(self):
        with pytest.raises(BackendError, match="available"):
            fig1_model().elaborate(backend="quantum")

    def test_builtin_backends_are_exactly_four(self):
        # One table plane for wide sweeps, generated code for re-armed
        # scalar lanes; no generated batch plane.
        assert backend_names() == [
            "compiled", "compiled-batched", "compiled-py", "event",
        ]

    def test_generated_batch_plane_is_not_a_backend(self):
        with pytest.raises(BackendError) as excinfo:
            fig1_model().elaborate(backend="compiled-py-batched")
        assert str(excinfo.value).endswith(
            "available: compiled, compiled-batched, compiled-py, event"
        )

    def test_cli_refuses_the_generated_batch_plane(self, tmp_path, capsys):
        path = tmp_path / "fig1.json"
        dump(fig1_model(), path)
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", str(path), "--backend", "compiled-py-batched"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_create_backend_types(self):
        model = fig1_model()
        assert isinstance(create_backend("event", model), RTSimulation)
        assert isinstance(
            create_backend("compiled", model), CompiledRTSimulation
        )

    def test_custom_backend_registration(self):
        calls = []

        def factory(model, **kwargs):
            calls.append((model.name, kwargs))
            return RTSimulation(model, **kwargs)

        register_backend("custom-test", factory)
        try:
            sim = fig1_model().elaborate(backend="custom-test")
            assert sim.run()["R1"] == 5
            assert calls and calls[0][0] == "example"
        finally:
            from repro.engine.backend import _REGISTRY

            _REGISTRY.pop("custom-test", None)


class TestProtocolConformance:
    """Every execution style satisfies the one Backend surface."""

    def _check(self, backend):
        assert isinstance(backend, Backend)
        result = backend.run()
        assert result is backend
        assert isinstance(backend.registers, dict)
        assert isinstance(backend.conflicts, list)
        assert isinstance(backend.clean, bool)
        assert backend.stats.delta_cycles >= 0

    def test_event_backend(self):
        self._check(fig1_model().elaborate())

    def test_compiled_backend(self):
        self._check(fig1_model().elaborate(backend="compiled"))

    def test_clocked_backend(self):
        self._check(elaborate_clocked(translate(fig1_model())))

    def test_handshake_backend(self):
        net = HandshakeNetwork()
        net.source("a", [3])
        net.source("b", [4])
        net.op("sum", lambda a, b: a + b, "a", "b")
        net.sink("out", "sum")
        sim = net.elaborate()
        self._check(sim)
        assert sim.registers == {"out": 7}


class TestRunMetrics:
    def test_row_shape(self):
        sim = fig1_model().elaborate().run()
        row = run_metrics(sim, wall=0.25)
        assert set(row) == {
            "deltas", "events", "resumes", "transactions", "conflicts",
            "wall",
        }
        assert row["deltas"] == 42
        assert row["conflicts"] == 0
        assert row["wall"] == 0.25

    def test_wall_is_optional(self):
        sim = fig1_model().elaborate(backend="compiled").run()
        assert "wall" not in run_metrics(sim)

    def test_baseline_subtraction(self):
        sim = fig1_model().elaborate()
        snap = sim.stats.snapshot()
        sim.run()
        row = run_metrics(sim, baseline=snap)
        assert row["deltas"] == 42

    def test_rows_comparable_across_backends(self):
        model = fig1_model()
        ev = run_metrics(model.elaborate().run())
        co = run_metrics(model.elaborate(backend="compiled").run())
        assert ev["deltas"] == co["deltas"]
        assert ev["events"] == co["events"]
        assert ev["transactions"] == co["transactions"]
        assert co["resumes"] < ev["resumes"]

    def test_tolerates_trace_false_backends(self):
        # Regression: backends elaborated without tracing leave
        # ``tracer`` as None; the row must simply omit trace_samples.
        for backend in ("event", "compiled"):
            sim = fig1_model().elaborate(backend=backend).run()
            assert sim.tracer is None
            assert "trace_samples" not in run_metrics(sim)

    def test_tolerates_backends_without_trace_attribute(self):
        # The handshake backend has no ``tracer`` attribute at all.
        net = HandshakeNetwork()
        net.source("a", [3])
        net.source("b", [4])
        net.op("sum", lambda a, b: a + b, "a", "b")
        net.sink("out", "sum")
        sim = net.elaborate().run()
        assert not hasattr(sim, "tracer")
        row = run_metrics(sim)
        assert "trace_samples" not in row
        assert row["conflicts"] == 0

    def test_trace_samples_reported_when_traced(self):
        sim = fig1_model().elaborate(trace=True).run()
        row = run_metrics(sim)
        assert row["trace_samples"] == len(sim.tracer.samples) == 42
