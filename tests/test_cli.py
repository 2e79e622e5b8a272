"""Tests for the command-line interface."""

import json
import threading
import time

import pytest

from repro.cli import main
from repro.core import ModuleSpec, RTModel
from repro.core.serialize import dump
from repro.core.values_np import have_numpy
from repro.engine import PLAN_VERSION
from repro.vhdl import EXAMPLE_FIG1

needs_numpy = pytest.mark.skipif(
    not have_numpy(),
    reason="compiled-batched sweeps need the repro[fast] extra",
)


@pytest.fixture
def fig1_json(tmp_path):
    model = RTModel("example", cs_max=7)
    model.register("R1", init=2)
    model.register("R2", init=3)
    model.bus("B1")
    model.bus("B2")
    model.module(ModuleSpec("ADD", latency=1))
    model.add_transfer("(R1,B1,R2,B2,5,ADD,6,B1,R1)")
    path = tmp_path / "fig1.json"
    dump(model, path)
    return path


@pytest.fixture
def fig1_vhd(tmp_path):
    path = tmp_path / "example.vhd"
    path.write_text(EXAMPLE_FIG1)
    return path


class TestCheckAndRun:
    def test_check_conformant_file(self, fig1_vhd, capsys):
        assert main(["check", str(fig1_vhd)]) == 0
        assert "conforms" in capsys.readouterr().out

    def test_check_nonconformant_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.vhd"
        bad.write_text(
            "entity e is end e;\n"
            "architecture a of e is\n"
            "  signal x: integer := 0;\n"
            "begin\n"
            "  p: process begin x <= 1; end process;\n"
            "end a;\n"
        )
        assert main(["check", str(bad)]) == 1
        assert "violation" in capsys.readouterr().out

    def test_run_paper_example(self, fig1_vhd, capsys):
        assert main(["run", str(fig1_vhd), "--top", "example",
                     "--signals", "r1_out,r2_out"]) == 0
        out = capsys.readouterr().out
        assert "r1_out = 5" in out
        assert "42 delta cycles" in out

    def test_run_missing_file_reports_error(self, capsys):
        assert main(["run", "nope.vhd", "--top", "x"]) == 1
        assert "error:" in capsys.readouterr().err


class TestModelCommands:
    def test_analyze_clean_model(self, fig1_json, capsys):
        assert main(["analyze", str(fig1_json)]) == 0
        out = capsys.readouterr().out
        assert "no conflicts predicted" in out

    def test_simulate_prints_registers(self, fig1_json, capsys):
        assert main(["simulate", str(fig1_json)]) == 0
        out = capsys.readouterr().out
        assert "R1 = 5" in out
        assert "42" in out

    def test_simulate_with_overrides(self, fig1_json, capsys):
        assert main([
            "simulate", str(fig1_json), "--set", "R1=10", "--set", "R2=20",
        ]) == 0
        assert "R1 = 30" in capsys.readouterr().out

    def test_simulate_writes_vcd(self, fig1_json, tmp_path, capsys):
        vcd = tmp_path / "wave.vcd"
        assert main(["simulate", str(fig1_json), "--vcd", str(vcd)]) == 0
        assert vcd.exists()
        assert "$enddefinitions" in vcd.read_text()

    def test_reschedule_verifies_and_saves(self, fig1_json, tmp_path, capsys):
        out = tmp_path / "compact.json"
        assert main(["reschedule", str(fig1_json), "-o", str(out)]) == 0
        output = capsys.readouterr().out
        assert "verified: identical register results" in output
        assert out.exists()

    def test_emit_writes_vhdl(self, fig1_json, tmp_path):
        out = tmp_path / "model.vhd"
        assert main(["emit", str(fig1_json), "-o", str(out)]) == 0
        assert "entity example is" in out.read_text()

    def test_clocked_with_verification(self, fig1_json, tmp_path):
        out = tmp_path / "clocked.vhd"
        assert main([
            "clocked", str(fig1_json), "-o", str(out), "--verify",
        ]) == 0
        assert "rising_edge(clk)" in out.read_text()

    def test_bad_set_syntax(self, fig1_json, capsys):
        assert main(["simulate", str(fig1_json), "--set", "R1"]) == 1
        assert "REG=VALUE" in capsys.readouterr().err


class TestSynthAndIks:
    def test_synth_verify_and_save(self, tmp_path, capsys):
        src = tmp_path / "prog.alg"
        src.write_text("t = (a + b) * (c - d)\nout = t + t\n")
        model_out = tmp_path / "model.json"
        assert main([
            "synth", str(src), "--resources", "ALU=1,MUL=1",
            "--verify", "-o", str(model_out),
        ]) == 0
        out = capsys.readouterr().out
        assert "operations scheduled" in out
        assert "EQUIVALENT" in out
        doc = json.loads(model_out.read_text())
        assert doc["format"] == "repro-rt-model"

    def test_iks_case_study(self, capsys):
        assert main(["iks", "--target", "2.5,1.0"]) == 0
        out = capsys.readouterr().out
        assert "bit-exact   : True" in out

    def test_iks_three_dof(self, capsys):
        assert main(["iks", "--target", "2.8,1.2", "--phi", "0.6"]) == 0
        out = capsys.readouterr().out
        assert "theta3" in out
        assert "bit-exact   : True" in out

    def test_no_subcommand_prints_help(self, capsys):
        assert main([]) == 2
        assert "subcommands" in capsys.readouterr().out


class TestBackendSelection:
    def test_run_compiled_backend(self, fig1_vhd, capsys):
        assert main([
            "run", str(fig1_vhd), "--top", "example",
            "--backend", "compiled",
        ]) == 0
        out = capsys.readouterr().out
        assert "r1_out = 5" in out
        assert "r2_out = 3" in out
        assert "42 delta cycles" in out

    def test_run_event_without_transfer_engine(self, fig1_vhd, capsys):
        assert main([
            "run", str(fig1_vhd), "--top", "example",
            "--no-transfer-engine", "--signals", "r1_out",
        ]) == 0
        out = capsys.readouterr().out
        assert "r1_out = 5" in out

    def test_run_compiled_unknown_signal(self, fig1_vhd, capsys):
        assert main([
            "run", str(fig1_vhd), "--top", "example",
            "--backend", "compiled", "--signals", "b1",
        ]) == 1
        assert "register outputs only" in capsys.readouterr().err

    def test_run_rejects_unknown_backend(self, fig1_vhd, capsys):
        with pytest.raises(SystemExit):
            main([
                "run", str(fig1_vhd), "--top", "example",
                "--backend", "quantum",
            ])

    def test_simulate_compiled_backend(self, fig1_json, capsys):
        assert main([
            "simulate", str(fig1_json), "--backend", "compiled",
        ]) == 0
        out = capsys.readouterr().out
        assert "R1 = 5" in out
        assert "42 delta cycles (= CS_MAX*6 = 42)" in out

    def test_simulate_backends_print_identically(self, fig1_json, capsys):
        assert main(["simulate", str(fig1_json)]) == 0
        event_out = capsys.readouterr().out
        assert main([
            "simulate", str(fig1_json), "--backend", "compiled",
        ]) == 0
        assert capsys.readouterr().out == event_out
        assert main([
            "simulate", str(fig1_json), "--no-transfer-engine",
        ]) == 0
        assert capsys.readouterr().out == event_out

    def test_iks_compiled_backend(self, capsys):
        assert main([
            "iks", "--target", "2.5,1.0", "--backend", "compiled",
        ]) == 0
        assert "bit-exact   : True" in capsys.readouterr().out


class TestObservabilityFlags:
    def test_simulate_observe_writes_jsonl(self, fig1_json, tmp_path, capsys):
        log = tmp_path / "run.jsonl"
        assert main([
            "simulate", str(fig1_json), "--observe", str(log),
        ]) == 0
        assert f"-- wrote {log}" in capsys.readouterr().out
        lines = [
            json.loads(line) for line in log.read_text().splitlines()
        ]
        assert lines[0]["event"] == "run_start"
        assert lines[0]["backend"] == "event"
        assert lines[-1]["event"] == "run_end"

    def test_simulate_profile_prints_table(self, fig1_json, capsys):
        assert main(["simulate", str(fig1_json), "--profile"]) == 0
        out = capsys.readouterr().out
        assert "profile:" in out
        assert "cr:" in out

    def test_simulate_profile_out_writes_json(
        self, fig1_json, tmp_path, capsys
    ):
        prof = tmp_path / "prof.json"
        assert main([
            "simulate", str(fig1_json), "--profile-out", str(prof),
        ]) == 0
        summary = json.loads(prof.read_text())
        assert summary["steps"] == 7
        assert set(summary["phases"]) == {"ra", "rb", "cm", "wa", "wb", "cr"}
        # --profile-out alone does not print the table.
        assert "profile:" not in capsys.readouterr().out.split("-- wrote")[0]

    def test_run_vcd_routes_via_model_path(self, fig1_vhd, tmp_path, capsys):
        vcd = tmp_path / "wave.vcd"
        assert main([
            "run", str(fig1_vhd), "--top", "example", "--vcd", str(vcd),
        ]) == 0
        assert "$enddefinitions" in vcd.read_text()
        assert "r1_out = 5" in capsys.readouterr().out

    def test_iks_observe_and_profile(self, tmp_path, capsys):
        log = tmp_path / "iks.jsonl"
        assert main([
            "iks", "--target", "2.5,1.0", "--backend", "compiled",
            "--observe", str(log), "--profile",
        ]) == 0
        out = capsys.readouterr().out
        assert "bit-exact   : True" in out
        assert "profile:" in out
        assert log.exists()

    def test_report_renders_recorded_run(self, fig1_json, tmp_path, capsys):
        log = tmp_path / "run.jsonl"
        assert main(["simulate", str(fig1_json), "--observe", str(log)]) == 0
        capsys.readouterr()
        assert main(["report", str(log)]) == 0
        out = capsys.readouterr().out
        assert "run report: example [event]" in out
        assert "final registers:" in out
        assert "R1 = 5" in out

    def test_report_json_mode(self, fig1_json, tmp_path, capsys):
        log = tmp_path / "run.jsonl"
        assert main(["simulate", str(fig1_json), "--observe", str(log)]) == 0
        capsys.readouterr()
        assert main(["report", str(log), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["registers"] == {"R1": 5, "R2": 3}
        assert doc["counts"]["phase"] == 42


class TestCliErrorPaths:
    def test_simulate_missing_file(self, capsys):
        assert main(["simulate", "no-such-model.json"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_report_missing_file(self, capsys):
        assert main(["report", "no-such-log.jsonl"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_report_malformed_log(self, tmp_path, capsys):
        # Mid-file corruption is still an error; only a malformed
        # *final* record (truncation) is skipped leniently.
        bad = tmp_path / "bad.jsonl"
        bad.write_text('this is not json\n{"event":"step"}\n')
        assert main(["report", str(bad)]) == 1
        assert "not a JSON event record" in capsys.readouterr().err

    def test_simulate_rejects_unknown_backend(self, fig1_json, capsys):
        # argparse rejects values outside the registered choices.
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", str(fig1_json), "--backend", "quantum"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_conflicting_backend_flags(self, fig1_json, capsys):
        assert main([
            "simulate", str(fig1_json),
            "--backend", "compiled", "--no-transfer-engine",
        ]) == 1
        err = capsys.readouterr().err
        assert "only applies to the event backend" in err

    def test_conflicting_backend_flags_on_run(self, fig1_vhd, capsys):
        assert main([
            "run", str(fig1_vhd), "--top", "example",
            "--backend", "compiled", "--no-transfer-engine",
        ]) == 1
        assert "only applies to the event backend" in capsys.readouterr().err

    def test_conflicting_backend_flags_on_iks(self, capsys):
        assert main([
            "iks", "--target", "2.5,1.0",
            "--backend", "compiled", "--no-transfer-engine",
        ]) == 1
        assert "only applies to the event backend" in capsys.readouterr().err

    def test_vcd_to_unwritable_path(self, fig1_json, capsys):
        assert main([
            "simulate", str(fig1_json),
            "--vcd", "/no/such/directory/wave.vcd",
        ]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [["--serve-backend", "compiled"], ["--workers", "2"]]
    )
    def test_serve_has_one_sweep_realization(self, argv, capsys):
        # The service has one sweep realization, run on its event
        # loop, so it takes no option that picks a realization or a
        # worker count.
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", *argv])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestBatchedCli:
    """`repro simulate --backend compiled-batched` and `repro bench`."""

    @needs_numpy
    def test_simulate_batched_single_vector(self, fig1_json, capsys):
        assert main([
            "simulate", str(fig1_json), "--backend", "compiled-batched",
        ]) == 0
        out = capsys.readouterr().out
        assert "vector 0: R1=5 R2=3" in out
        assert "-- 1 vectors, 1 clean" in out

    @needs_numpy
    def test_simulate_batched_random_sweep(self, fig1_json, capsys):
        assert main([
            "simulate", str(fig1_json), "--backend", "compiled-batched",
            "--batch", "5", "--seed", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "-- 5 vectors, 5 clean" in out
        # Per-vector rows are printed for small sweeps.
        assert "vector 4:" in out

    @needs_numpy
    def test_simulate_batched_seed_is_reproducible(self, fig1_json, capsys):
        args = [
            "simulate", str(fig1_json), "--backend", "compiled-batched",
            "--batch", "3", "--seed", "7",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    @needs_numpy
    def test_simulate_vectors_from_jsonl(self, fig1_json, tmp_path, capsys):
        vecs = tmp_path / "vecs.jsonl"
        vecs.write_text(
            '{"R1": 1, "R2": 2}\n'
            '\n'
            '{"R1": 10, "R2": 20}\n'
        )
        assert main([
            "simulate", str(fig1_json), "--backend", "compiled-batched",
            "--vectors-from", str(vecs),
        ]) == 0
        out = capsys.readouterr().out
        assert "vector 0: R1=3 R2=2" in out
        assert "vector 1: R1=30 R2=20" in out
        assert "-- 2 vectors, 2 clean" in out

    def test_batch_requires_batched_backend(self, fig1_json, capsys):
        assert main([
            "simulate", str(fig1_json), "--batch", "4",
        ]) == 1
        err = capsys.readouterr().err
        assert "require a batched backend" in err

    def test_batched_rejects_single_run_output_flags(
        self, fig1_json, tmp_path, capsys
    ):
        assert main([
            "simulate", str(fig1_json), "--backend", "compiled-batched",
            "--vcd", str(tmp_path / "wave.vcd"),
        ]) == 1
        assert "single-run output" in capsys.readouterr().err

    def test_run_rejects_batched_backend(self, fig1_vhd, capsys):
        assert main([
            "run", str(fig1_vhd), "--top", "example",
            "--backend", "compiled-batched",
        ]) == 1
        err = capsys.readouterr().err
        assert "batch-shaped results" in err

    @needs_numpy
    def test_bench_writes_record(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main([
            "bench", "--vectors", "40", "--seed", "3", "--out", str(out),
        ]) == 0
        record = json.loads(out.read_text())
        assert record["benchmark"] == "batched-vs-sequential"
        assert record["vectors"] == 40
        assert record["batched"]["metrics"]["vectors"] == 40
        assert record["sequential"]["backend"] == "compiled"
        assert record["speedup"] > 0
        assert "speedup" in capsys.readouterr().out

    @needs_numpy
    def test_bench_accepts_model_file(self, fig1_json, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main([
            "bench", "--model", str(fig1_json), "--vectors", "10",
            "--out", str(out),
        ]) == 0
        record = json.loads(out.read_text())
        assert record["model"]["name"] == "example"
        assert record["vectors"] == 10


@pytest.fixture
def clash_json(tmp_path):
    model = RTModel("clash", cs_max=4)
    model.register("R1", init=1)
    model.register("R2", init=2)
    model.register("R3")
    model.bus("B1")
    model.bus("B2")
    model.module(ModuleSpec("ADD", latency=1))
    model.add_transfer("(R1,B1,R2,B2,2,ADD,3,B1,R3)")
    model.add_transfer("(R2,B1,R1,B2,2,ADD,3,B2,R3)")
    path = tmp_path / "clash.json"
    dump(model, path)
    return path


class TestMonitorCli:
    def test_monitor_clean_run_passes(self, fig1_json, capsys):
        assert main(["simulate", str(fig1_json), "--monitor"]) == 0
        out = capsys.readouterr().out
        assert "PASS never_illegal" in out
        assert "PASS no_conflicts" in out

    def test_monitor_violations_fail_the_run(self, clash_json, capsys):
        assert main(["simulate", str(clash_json), "--monitor"]) == 1
        out = capsys.readouterr().out
        assert "FAIL never_illegal" in out
        assert "cs2.rb" in out

    def test_assert_out_writes_report_json(
        self, clash_json, tmp_path, capsys
    ):
        report = tmp_path / "report.json"
        assert main([
            "simulate", str(clash_json), "--monitor",
            "--backend", "compiled", "--assert-out", str(report),
        ]) == 1
        doc = json.loads(report.read_text())
        assert doc["ok"] is False
        assert doc["violations"][0]["cs"] == 2

    def test_assert_file_drives_the_monitor(
        self, fig1_json, tmp_path, capsys
    ):
        props = tmp_path / "props.json"
        props.write_text(json.dumps([
            {"type": "stable_between", "register": "R1",
             "from": 1, "to": 7, "label": "r1-frozen"},
        ]))
        assert main([
            "simulate", str(fig1_json), "--assert-file", str(props),
        ]) == 1  # R1 latches 5 at cs7.ra
        out = capsys.readouterr().out
        assert "FAIL r1-frozen" in out

    def test_monitor_on_run_subcommand(self, fig1_vhd, capsys):
        assert main([
            "run", str(fig1_vhd), "--top", "example", "--monitor",
        ]) == 0
        assert "PASS no_conflicts" in capsys.readouterr().out

    def test_monitor_on_iks(self, capsys):
        assert main([
            "iks", "--target", "2.5,1.0", "--backend", "compiled",
            "--monitor",
        ]) == 0
        out = capsys.readouterr().out
        assert "bit-exact   : True" in out
        assert "assertion report:" in out

    @needs_numpy
    def test_monitor_on_batched_sweep(self, clash_json, tmp_path, capsys):
        report = tmp_path / "lanes.json"
        assert main([
            "simulate", str(clash_json), "--backend", "compiled-batched",
            "--batch", "3", "--monitor", "--assert-out", str(report),
        ]) == 1
        out = capsys.readouterr().out
        assert "violations over 3 lanes" in out
        assert "lane 0:" in out
        docs = json.loads(report.read_text())
        assert len(docs) == 3
        assert all(not d["ok"] for d in docs)

    def test_assert_out_requires_monitoring(self, fig1_json, capsys):
        assert main([
            "simulate", str(fig1_json), "--assert-out", "r.json",
        ]) == 1
        assert "--assert-out needs" in capsys.readouterr().err

    def test_bad_assert_file_reports_error(
        self, fig1_json, tmp_path, capsys
    ):
        props = tmp_path / "bad.json"
        props.write_text('[{"type": "bogus"}]')
        assert main([
            "simulate", str(fig1_json), "--assert-file", str(props),
        ]) == 1
        assert "property #1" in capsys.readouterr().err

    def test_profile_sample_flag(self, fig1_json, capsys):
        assert main([
            "simulate", str(fig1_json), "--profile", "--profile-sample", "3",
        ]) == 0
        assert "every 3" in capsys.readouterr().out

    def test_profile_sample_requires_profile(self, fig1_json, capsys):
        assert main([
            "simulate", str(fig1_json), "--profile-sample", "3",
        ]) == 1
        assert "--profile-sample needs" in capsys.readouterr().err

    def test_interpreter_path_rejects_assert_out_alone(
        self, fig1_vhd, tmp_path, capsys
    ):
        report = tmp_path / "a.json"
        assert main([
            "run", str(fig1_vhd), "--top", "example",
            "--assert-out", str(report),
        ]) == 1
        assert "--assert-out needs" in capsys.readouterr().err
        assert not report.exists()

    def test_interpreter_path_rejects_profile_sample_alone(
        self, fig1_vhd, capsys
    ):
        assert main([
            "run", str(fig1_vhd), "--top", "example", "--profile-sample", "3",
        ]) == 1
        assert "--profile-sample needs" in capsys.readouterr().err

    def test_batched_sweep_rejects_profile_sample_alone(
        self, fig1_json, capsys
    ):
        assert main([
            "simulate", str(fig1_json), "--backend", "compiled-batched",
            "--batch", "2", "--profile-sample", "3",
        ]) == 1
        assert "--profile-sample needs" in capsys.readouterr().err


def _wait_for(condition, timeout=10.0):
    """Poll ``condition`` until it holds; False if ``timeout`` passes."""
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


class TestStreamCli:
    """`repro watch` as the live client of `repro serve`; a local run
    takes no stream flags."""

    def _free_port(self):
        import socket

        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()
        return port

    def _watch_a_conflicting_verify(self, capsys, clash_json, *flags):
        """Run `repro watch` against a served conflicting verify;
        returns (exit code, printed lines, the verify's result)."""
        from repro.core.serialize import load
        from repro.serve import ServeClient, serve_in_thread

        codes = {}
        with serve_in_thread() as handle:
            host, port = handle.address

            def watch():
                codes["rc"] = main([
                    "watch", f"{host}:{port}", "--timeout", "10", *flags,
                ])

            thread = threading.Thread(target=watch, daemon=True)
            thread.start()
            assert _wait_for(lambda: handle.server._watchers), \
                "repro watch never subscribed"
            with ServeClient(host, port) as client:
                result = client.verify(load(clash_json))[-1]
            thread.join(timeout=30.0)
        assert not thread.is_alive()
        return codes["rc"], capsys.readouterr().out.splitlines(), result

    def test_watch_renders_a_live_stream(self, clash_json, capsys):
        rc, lines, result = self._watch_a_conflicting_verify(
            capsys, clash_json, "--max-events", "2",
        )
        assert rc == 0
        assert result["ok"] is False
        assert len(lines) == 2
        assert all(line.startswith("CONFLICT   cs2.rb ") for line in lines)

    def test_watch_raw_prints_the_json_records(self, clash_json, capsys):
        rc, lines, result = self._watch_a_conflicting_verify(
            capsys, clash_json, "--raw", "--max-events", "1",
        )
        assert rc == 0
        (record,) = [json.loads(line) for line in lines]
        assert record["event"] == "conflict"
        assert (record["cs"], record["ph"]) == (2, "rb")
        assert record["digest"] == result["digest"]

    def test_watch_connection_refused(self, capsys):
        port = self._free_port()
        assert main([
            "watch", f"127.0.0.1:{port}", "--timeout", "0.5",
        ]) == 1
        assert "error:" in capsys.readouterr().err

    def test_watch_bad_endpoint(self, capsys):
        assert main(["watch", "not-a-port"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_stream_flags_are_gone(self, fig1_json):
        for flags in (["--stream", "127.0.0.1:0"], ["--stream-wait", "5"]):
            with pytest.raises(SystemExit) as exc:
                main(["simulate", str(fig1_json), *flags])
            assert exc.value.code == 2


class TestReportOnTruncatedLogs:
    def test_report_survives_a_truncated_recording(
        self, fig1_json, tmp_path, capsys
    ):
        log = tmp_path / "run.jsonl"
        assert main(["simulate", str(fig1_json), "--observe", str(log)]) == 0
        capsys.readouterr()
        lines = log.read_text().splitlines()
        log.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][:9])
        with pytest.warns(UserWarning, match="truncated"):
            assert main(["report", str(log)]) == 0
        out = capsys.readouterr().out
        assert "run report: example [event]" in out

    def test_report_on_empty_log(self, tmp_path, capsys):
        log = tmp_path / "empty.jsonl"
        log.write_text("")
        assert main(["report", str(log)]) == 0
        assert capsys.readouterr().out


class TestPlanCli:
    def test_plan_describes_the_model(self, fig1_json, capsys):
        assert main(["plan", str(fig1_json)]) == 0
        out = capsys.readouterr().out
        assert "plan: model 'example'" in out
        assert "digest" in out

    def test_plan_digest_is_stable(self, fig1_json, capsys):
        assert main(["plan", str(fig1_json), "--digest"]) == 0
        first = capsys.readouterr().out.strip()
        assert main(["plan", str(fig1_json), "--digest"]) == 0
        second = capsys.readouterr().out.strip()
        assert first == second
        assert len(first) == 64

    def test_plan_json_summary(self, fig1_json, capsys):
        assert main(["plan", str(fig1_json), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["model"] == "example"
        assert doc["buses"] == 2
        assert doc["registers"] == 2

    def test_plan_cache_flag_fills_and_hits(
        self, fig1_json, tmp_path, capsys
    ):
        cache_dir = str(tmp_path / "cache")
        assert main([
            "plan", str(fig1_json), "--plan-cache", cache_dir,
        ]) == 0
        assert "plan_cache: miss" in capsys.readouterr().out
        assert main([
            "plan", str(fig1_json), "--plan-cache", cache_dir,
        ]) == 0
        assert "plan_cache: hit" in capsys.readouterr().out

    def test_simulate_reports_cache_verdict(
        self, fig1_json, tmp_path, capsys
    ):
        cache_dir = str(tmp_path / "cache")
        assert main([
            "simulate", str(fig1_json), "--backend", "compiled",
            "--plan-cache", cache_dir,
        ]) == 0
        out = capsys.readouterr().out
        assert "plan_cache: miss" in out
        assert "R1 = 5" in out
        assert main([
            "simulate", str(fig1_json), "--backend", "compiled",
            "--plan-cache", cache_dir,
        ]) == 0
        out = capsys.readouterr().out
        assert "plan_cache: hit" in out
        assert "R1 = 5" in out

    def test_plan_cache_rejects_event_backend(self, fig1_json, capsys):
        assert main([
            "simulate", str(fig1_json), "--plan-cache",
        ]) == 1
        assert "compiled backends only" in capsys.readouterr().err

    def test_plan_cache_conflicting_flags(self, fig1_json, capsys):
        assert main([
            "simulate", str(fig1_json), "--backend", "compiled",
            "--plan-cache", "--no-plan-cache",
        ]) == 1
        assert "exclusive" in capsys.readouterr().err


class TestCoverCli:
    def test_cover_prints_the_report(self, fig1_json, capsys):
        assert main(["cover", str(fig1_json)]) == 0
        out = capsys.readouterr().out
        assert "coverage: model 'example'" in out
        assert "transfers" in out
        assert "conflict pairs" in out

    def test_cover_json_output(self, fig1_json, capsys):
        assert main(["cover", str(fig1_json), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["model"] == "example"
        assert payload["totals"]["transfers"] == len(
            payload["hits"]["transfers"]
        )

    def test_cover_is_backend_identical(self, clash_json, capsys):
        assert main(["cover", str(clash_json), "--json",
                     "--backend", "event"]) in (0, 1)
        event = json.loads(capsys.readouterr().out)
        assert main(["cover", str(clash_json), "--json",
                     "--backend", "compiled"]) in (0, 1)
        compiled = json.loads(capsys.readouterr().out)
        assert event == compiled

    def test_cover_out_writes_json(self, fig1_json, tmp_path, capsys):
        out = tmp_path / "cov.json"
        assert main(["cover", str(fig1_json), "--cover-out", str(out)]) == 0
        assert json.loads(out.read_text())["model"] == "example"
        assert f"-- wrote {out}" in capsys.readouterr().out

    def test_cover_min_gates_the_exit_status(self, fig1_json, capsys):
        assert main(["cover", str(fig1_json), "--cover-min", "1"]) == 0
        capsys.readouterr()
        assert main(["cover", str(fig1_json), "--cover-min", "99"]) == 1
        assert "below --cover-min" in capsys.readouterr().out

    def test_cover_db_accumulates_across_processes(
        self, fig1_json, tmp_path, capsys
    ):
        db = tmp_path / "covdb"
        assert main(["cover", str(fig1_json), "--cover-db", str(db)]) == 0
        first = capsys.readouterr().out
        assert "coverage db:" in first
        assert main(["cover", str(fig1_json), "--cover-db", str(db)]) == 0
        second = capsys.readouterr().out
        # Idempotent: the cumulative count does not change on a rerun.
        assert first.splitlines()[-1] == second.splitlines()[-1]
        entries = list((db / "coverage" / "v1").glob("*.json"))
        assert len(entries) == 1

    @needs_numpy
    def test_cover_batched_sweep_with_lanes(self, fig1_json, capsys):
        assert main([
            "cover", str(fig1_json), "--backend", "compiled-batched",
            "--batch", "4", "--seed", "9", "--per-lane",
        ]) == 0
        out = capsys.readouterr().out
        assert "lane 0:" in out
        assert "lane 3:" in out
        assert "coverage: model 'example'" in out

    def test_batch_requires_batched_backend(self, fig1_json, capsys):
        assert main(["cover", str(fig1_json), "--batch", "3"]) == 1
        assert "compiled-batched" in capsys.readouterr().err

    def test_simulate_cover_flag(self, fig1_json, capsys):
        assert main(["simulate", str(fig1_json), "--cover",
                     "--backend", "compiled"]) == 0
        out = capsys.readouterr().out
        assert "coverage: model 'example'" in out
        assert "R1 = 5" in out

    @needs_numpy
    def test_simulate_batched_cover_merges_lanes(
        self, fig1_json, capsys
    ):
        assert main([
            "simulate", str(fig1_json), "--backend", "compiled-batched",
            "--batch", "3", "--cover",
        ]) == 0
        assert "coverage: model 'example'" in capsys.readouterr().out

    def test_run_subcommand_cover_via_model_path(self, fig1_vhd, capsys):
        assert main(["run", str(fig1_vhd), "--top", "example",
                     "--cover"]) == 0
        assert "coverage: model 'example'" in capsys.readouterr().out


class TestMetricsCli:
    def test_metrics_exports_prometheus_text(self, fig1_json, capsys):
        from repro.observe import parse_prometheus

        assert main(["metrics", str(fig1_json), "--backend",
                     "compiled"]) == 0
        parsed = parse_prometheus(capsys.readouterr().out)
        samples = {
            s["labels"]["backend"]: s["value"]
            for s in parsed["repro_runs_total"]["samples"]
        }
        assert samples["compiled"] >= 1.0

    def test_metrics_json_and_out_file(self, fig1_json, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        assert main(["metrics", str(fig1_json), "--json",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert "repro_runs_total" in payload
        assert f"-- wrote {out}" in capsys.readouterr().out

    def test_metrics_without_a_model_file(self, capsys):
        assert main(["metrics", "--json"]) == 0
        assert isinstance(json.loads(capsys.readouterr().out), dict)

    def test_metrics_out_flag_on_simulate(self, fig1_json, tmp_path, capsys):
        from repro.observe import parse_prometheus

        prom = tmp_path / "run.prom"
        assert main(["simulate", str(fig1_json), "--backend", "compiled",
                     "--metrics-out", str(prom)]) == 0
        parsed = parse_prometheus(prom.read_text())
        assert "repro_runs_total" in parsed

    def test_metrics_out_json_by_extension(
        self, fig1_json, tmp_path, capsys
    ):
        path = tmp_path / "run-metrics.json"
        assert main(["simulate", str(fig1_json),
                     "--metrics-out", str(path)]) == 0
        assert "repro_runs_total" in json.loads(path.read_text())


class TestTraceCli:
    def test_trace_out_writes_chrome_json(self, fig1_json, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(["simulate", str(fig1_json), "--backend", "compiled",
                     "--trace-out", str(out)]) == 0
        payload = json.loads(out.read_text())
        names = {e["name"] for e in payload["traceEvents"]}
        assert "elaborate" in names
        assert "run" in names
        assert "cs1" in names

    def test_trace_out_carries_plan_span(self, fig1_json, tmp_path, capsys):
        out = tmp_path / "trace.json"
        cache = tmp_path / "plans"
        assert main(["simulate", str(fig1_json), "--backend", "compiled",
                     "--plan-cache", str(cache),
                     "--trace-out", str(out)]) == 0
        names = {e["name"] for e in json.loads(out.read_text())["traceEvents"]}
        assert "plan:miss" in names

    @needs_numpy
    def test_batched_rejects_trace_out(self, fig1_json, tmp_path, capsys):
        assert main([
            "simulate", str(fig1_json), "--backend", "compiled-batched",
            "--batch", "2", "--trace-out", str(tmp_path / "t.json"),
        ]) == 1
        assert "single-run output" in capsys.readouterr().err


class TestCodegenCli:
    def test_simulate_compiled_py_prints_verdict_line(
        self, fig1_json, capsys
    ):
        assert main([
            "simulate", str(fig1_json), "--backend", "compiled-py",
        ]) == 0
        out = capsys.readouterr().out
        assert "-- codegen: off mode=" in out
        assert "R1 = 5" in out

    def test_simulate_compiled_py_cache_miss_then_hit(
        self, fig1_json, tmp_path, capsys
    ):
        cache = tmp_path / "cache"
        assert main([
            "simulate", str(fig1_json), "--backend", "compiled-py",
            "--plan-cache", str(cache),
        ]) == 0
        assert "-- codegen: miss mode=" in capsys.readouterr().out
        assert main([
            "simulate", str(fig1_json), "--backend", "compiled-py",
            "--plan-cache", str(cache),
        ]) == 0
        out = capsys.readouterr().out
        assert "-- plan_cache: hit" in out
        assert "-- codegen: hit mode=" in out

    def test_plan_emit_code_prints_artifact_source(
        self, fig1_json, capsys
    ):
        assert main(["plan", str(fig1_json), "--emit-code"]) == 0
        out = capsys.readouterr().out
        assert "CODEGEN_VERSION = " in out
        assert 'PLAN_DIGEST = "' in out
        assert "def bind(" in out
        assert "def bind_batch(" not in out

    def test_plan_gc_prunes_and_reports(self, fig1_json, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main([
            "simulate", str(fig1_json), "--backend", "compiled-py",
            "--plan-cache", str(cache),
        ]) == 0
        capsys.readouterr()
        (cache / "plans" / f"v{PLAN_VERSION}" / "junk.plan").write_text("junk")
        assert main(["plan", "--gc", "--plan-cache", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "plans: kept 1, removed 1" in out
        assert "codegen: kept 2, removed 0" in out

    def test_plan_gc_rejects_inspection_flags(self, fig1_json, capsys):
        assert main(["plan", str(fig1_json), "--gc"]) == 1
        assert "no model file" in capsys.readouterr().err

    def test_plan_requires_file_or_gc(self, capsys):
        assert main(["plan"]) == 1
        assert "model JSON file is required" in capsys.readouterr().err

    def test_bench_codegen_writes_record(self, fig1_json, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main([
            "bench", "--codegen", "--model", str(fig1_json),
            "--repeat", "1", "--out", str(out),
        ]) == 0
        record = json.loads(out.read_text())
        assert record["benchmark"] == "codegen-vs-compiled"
        assert record["speedup"] > 0
        case = record["cases"][0]
        assert case["codegen"]["mode"] == "exec"
        assert case["codegen"]["warm_build_ms"] >= 0.0
        assert case["compiled"]["metrics"]["deltas"] == 42
        text = capsys.readouterr().out
        assert "speedup" in text
