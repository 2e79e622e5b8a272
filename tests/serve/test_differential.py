"""Differential suite: served results must be bit-identical to
sequential ``compiled`` runs -- registers, conflict records, monitor
violations and clean flags -- at every batch shape (K in {1, 2, 7})."""

import random
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.values import DISC
from repro.observe import recorder
from repro.observe.monitor import (
    default_properties,
    evaluate_trace,
    monitored_watch_list,
)
from repro.serve import ServeClient, serve_in_thread
from repro.serve.protocol import decode_registers

from .conftest import conflict_model, fig1_model

BATCH_SHAPES = (1, 2, 7)
MODELS = {"fig1": fig1_model, "conflict": conflict_model}


def _vectors(model, count, seed):
    rng = random.Random(seed)
    return [
        {name: rng.randrange(0, 1 << model.width) for name in model.registers}
        for _ in range(count)
    ]


def _expected_simulate(model, vector):
    sim = model.elaborate(register_values=vector, backend="compiled").run()
    return {
        "registers": sim.registers,
        "clean": sim.clean,
        "conflicts": [recorder.conflict_event(e) for e in sim.conflicts],
    }


def _expected_verify(model, vector):
    sim = model.elaborate(
        register_values=vector,
        backend="compiled",
        watch=monitored_watch_list(model),
    ).run()
    report = evaluate_trace(
        model, sim.tracer, default_properties(model), sim.conflicts
    )
    return {
        "registers": sim.registers,
        "clean": sim.clean and report.ok,
        "conflicts": [recorder.conflict_event(e) for e in sim.conflicts],
        "ok": report.ok,
        "violations": report.to_dict()["violations"],
    }


def _served(records):
    """Split one NDJSON response into comparable pieces (ids stripped:
    they are request echo, not verdict)."""
    conflicts, violations, result = [], [], None
    for record in records:
        record = {k: v for k, v in record.items() if k != "id"}
        if record["event"] == "conflict":
            conflicts.append(record)
        elif record["event"] == "violation":
            violations.append(record)
        elif record["event"] == "result":
            result = record
    assert result is not None, records
    return conflicts, violations, result


def _drive(handle, digest, vectors, verify=False):
    """Fire all vectors concurrently (one client each) so the window
    coalesces them into one sweep; returns responses in vector order."""

    def one(vector):
        with ServeClient(*handle.address) as client:
            if verify:
                return client.verify(digest, register_values=vector)
            return client.simulate(digest, register_values=vector)

    with ThreadPoolExecutor(max_workers=len(vectors)) as pool:
        return list(pool.map(one, vectors))


@pytest.mark.parametrize("model_name", sorted(MODELS))
@pytest.mark.parametrize("k", BATCH_SHAPES)
def test_simulate_identity(model_name, k):
    model = MODELS[model_name]()
    vectors = _vectors(model, k, seed=100 + k)
    with serve_in_thread(batch_window_ms=250.0) as handle:
        with ServeClient(*handle.address) as client:
            digest = client.submit(model)["digest"]
        responses = _drive(handle, digest, vectors)
        stats = handle.server.engine.stats()
    for vector, records in zip(vectors, responses):
        expected = _expected_simulate(model, vector)
        conflicts, violations, result = _served(records)
        assert decode_registers(result["registers"]) == expected["registers"]
        assert result["clean"] == expected["clean"]
        assert conflicts == expected["conflicts"]
        assert violations == []
        # Coalescing actually happened: K concurrent lanes, one sweep.
        assert result["batch"] == k
    assert stats["sweeps"] == 1
    assert stats["lanes_swept"] == k


@pytest.mark.parametrize("model_name", sorted(MODELS))
@pytest.mark.parametrize("k", BATCH_SHAPES)
def test_verify_identity(model_name, k):
    model = MODELS[model_name]()
    vectors = _vectors(model, k, seed=200 + k)
    with serve_in_thread(batch_window_ms=250.0) as handle:
        with ServeClient(*handle.address) as client:
            digest = client.submit(model)["digest"]
        responses = _drive(handle, digest, vectors, verify=True)
    for vector, records in zip(vectors, responses):
        expected = _expected_verify(model, vector)
        conflicts, violations, result = _served(records)
        assert decode_registers(result["registers"]) == expected["registers"]
        assert result["clean"] == expected["clean"]
        assert result["ok"] == expected["ok"]
        assert conflicts == expected["conflicts"]
        assert [
            {k_: v for k_, v in record.items() if k_ != "event"}
            for record in violations
        ] == expected["violations"]


def test_disconnected_register_values_travel_the_wire():
    model = fig1_model()
    expected = model.elaborate(
        register_values={"R1": DISC}, backend="compiled"
    ).run()
    with serve_in_thread() as handle:
        with ServeClient(*handle.address) as client:
            digest = client.submit(model)["digest"]
            result = client.simulate(
                digest, register_values={"R1": "z"}
            )[-1]
    assert decode_registers(result["registers"]) == expected.registers
