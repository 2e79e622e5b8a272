"""Lane building over a batched sweep is linear in the batch size.

Every read of a batch view (``tracers``, ``conflicts``, ``registers``,
``clean_mask``) builds it for all N lanes, so a consumer that reads a
view inside its per-lane loop is quadratic in N.  These tests count
view builds through each offline batched consumer and require the
same count at N = 4 and N = 16: each view is read a fixed number of
times, never once per lane.
"""

from collections import Counter

import pytest

from repro.cli import main
from repro.core import ModuleSpec, RTModel
from repro.core.serialize import dump
from repro.engine import CompiledBatchedRTSimulation
from repro.observe import check_model, default_properties, measure_coverage

pytest.importorskip("numpy")

VIEWS = ("tracers", "conflicts", "registers", "clean_mask")


def fig1_model():
    model = RTModel("example", cs_max=7)
    model.register("R1", init=2)
    model.register("R2", init=3)
    model.bus("B1")
    model.bus("B2")
    model.module(ModuleSpec("ADD", latency=1))
    model.add_transfer("(R1,B1,R2,B2,5,ADD,6,B1,R1)")
    return model


def _vectors(count):
    return [{"R1": i, "R2": 3 * i + 1} for i in range(count)]


@pytest.fixture
def view_builds(monkeypatch):
    """Count every build of a batch view, by view name."""
    counts = Counter()
    for name in VIEWS:
        build = getattr(CompiledBatchedRTSimulation, name).fget

        def counted(sim, _name=name, _build=build):
            counts[_name] += 1
            return _build(sim)

        monkeypatch.setattr(
            CompiledBatchedRTSimulation, name, property(counted)
        )
    return counts


def _builds_at(counts, run, n):
    counts.clear()
    run(n)
    return dict(counts)


def test_check_model_reads_each_view_once(view_builds):
    model = fig1_model()
    properties = default_properties(model)

    def run(n):
        reports = check_model(
            model, properties, backend="compiled-batched",
            register_values=_vectors(n),
        )
        assert len(reports) == n

    assert _builds_at(view_builds, run, 4) == _builds_at(view_builds, run, 16)


def test_measure_coverage_reads_each_view_once(view_builds):
    model = fig1_model()

    def run(n):
        reports = measure_coverage(
            model, backend="compiled-batched",
            register_values=_vectors(n), per_lane=True,
        )
        assert len(reports) == n

    assert _builds_at(view_builds, run, 4) == _builds_at(view_builds, run, 16)


def test_simulate_batch_reads_each_view_once(view_builds, tmp_path, capsys):
    path = tmp_path / "fig1.json"
    dump(fig1_model(), path)

    def run(n):
        main([
            "simulate", str(path), "--backend", "compiled-batched",
            "--batch", str(n), "--seed", "5", "--monitor", "--cover",
        ])
        assert f"-- {n} vectors" in capsys.readouterr().out

    assert _builds_at(view_builds, run, 4) == _builds_at(view_builds, run, 16)
