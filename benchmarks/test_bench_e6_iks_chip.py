"""E6 (Fig. 3): the IKS chip at the abstract register-transfer level.

Reproduces: the §3 case study -- the Fig.-3 RT structure (register
files R/J/M, accumulators P/X/Y/Z, r/zang, BusA/BusB plus direct
links desugared per the paper, non-pipelined adders, the 2-stage
pipelined multiplier, the CORDIC core), driven by a microprogram and
verified bottom-up against the algorithmic level: the RT simulation
must agree *bit-exactly* with the fixed-point IK reference.
Measures: chip build+translate time and full-program simulation time.
"""

import math
import time

import pytest

from repro.core import analyze
from repro.iks import (
    IKSConfig,
    crosscheck,
    forward_kinematics,
    run_ik_chip,
)
from repro.iks.flow import build_ik_model
from repro.observe import JsonlRecorder

TARGETS = [(2.5, 1.0), (1.0, 2.0), (-1.5, 2.0), (0.8, -1.2)]


class TestIKSReproduction:
    @pytest.mark.parametrize("px,py", TARGETS)
    def test_bit_exact_against_algorithmic_level(self, px, py):
        run, ref = crosscheck(px, py)
        assert run.clean
        assert (run.theta1, run.theta2) == (ref.theta1, ref.theta2)

    def test_angles_are_kinematically_correct(self, report_lines):
        for px, py in TARGETS:
            run = run_ik_chip(px, py)
            fx, fy = forward_kinematics(run.theta1_rad, run.theta2_rad)
            err = math.hypot(fx - px, fy - py)
            report_lines.append(
                f"target ({px:+.2f},{py:+.2f}) -> theta1={run.theta1_rad:+.4f} "
                f"theta2={run.theta2_rad:+.4f}  FK error {err:.5f}"
            )
            assert err < 0.02

    def test_schedule_is_statically_clean(self):
        model, _ = build_ik_model(2.5, 1.0)
        assert analyze(model).clean

    def test_resource_inventory_matches_fig3(self, report_lines):
        model, translation = build_ik_model(2.5, 1.0)
        units = set(model.modules) - {
            m for m in model.modules if m.startswith("CP_")
        }
        assert units == {"MULT", "X_ADD", "Y_ADD", "Z_ADD", "CORDIC"}
        direct = [b for b in model.buses.values() if b.direct_link]
        shared = [b for b in model.buses.values() if not b.direct_link]
        assert {b.name for b in shared} == {"BusA", "BusB"}
        assert direct  # the paper's direct links exist as extra buses
        report_lines.append(
            f"{len(model.registers)} registers, 2 shared buses, "
            f"{len(direct)} direct-link buses, "
            f"{len(units)} functional units, "
            f"{len(model.transfers)} transfers"
        )

    def test_delta_budget_matches_cost_model(self):
        cfg = IKSConfig()
        run = run_ik_chip(2.5, 1.0, cfg)
        assert run.simulation.stats.delta_cycles == cfg.cs_max * 6

    def test_fk_of_ik_closes_on_chip(self, report_lines):
        """Extension: the FK microprogram (CORDIC SIN/COS) feeds the
        IK result back through the chip and lands on the target."""
        from repro.iks import fk_of_ik

        for px, py in [(2.5, 1.0), (1.0, 2.0)]:
            ik, fk = fk_of_ik(px, py)
            err = math.hypot(fk.x_real - px, fk.y_real - py)
            report_lines.append(
                f"FK(IK({px},{py})) = ({fk.x_real:.4f},{fk.y_real:.4f}) "
                f"err={err:.4f}"
            )
            assert err < 0.02

    def test_three_dof_composition(self, report_lines):
        """Extension: position + orientation via prologue + unmodified
        IK body + epilogue, bit-exact against its reference."""
        from repro.iks import forward_kinematics3, run_ik3_chip, solve_ik3

        px, py, phi = 2.8, 1.2, 0.6
        run = run_ik3_chip(px, py, phi)
        ref = solve_ik3(px, py, phi)
        assert run.clean
        assert (run.theta1, run.theta2, run.theta3) == (
            ref.theta1, ref.theta2, ref.theta3,
        )
        fx, fy, fphi = forward_kinematics3(
            run.theta1_rad, run.theta2_rad, run.theta3_rad
        )
        report_lines.append(
            f"3-DOF ({px},{py})@{phi}: theta=({run.theta1_rad:.4f},"
            f"{run.theta2_rad:.4f},{run.theta3_rad:.4f}), "
            f"FK3 -> ({fx:.4f},{fy:.4f})@{fphi:.4f}, bit-exact"
        )


class TestCompiledBackendOnChip:
    """The compiled control-step backend on the paper's big model: same
    observable run as the event kernel, a fraction of the scheduler
    work (one fused dispatch per phase instead of one process wakeup
    per active component)."""

    @pytest.mark.parametrize("px,py", TARGETS)
    def test_bit_identical_to_event_kernel(self, px, py):
        run_ev = run_ik_chip(px, py, backend="event")
        run_co = run_ik_chip(px, py, backend="compiled")
        assert run_co.simulation.registers == run_ev.simulation.registers
        assert [
            (e.signal, e.at, e.sources) for e in run_co.simulation.conflicts
        ] == [
            (e.signal, e.at, e.sources) for e in run_ev.simulation.conflicts
        ]
        assert (
            run_co.simulation.stats.delta_cycles
            == run_ev.simulation.stats.delta_cycles
        )
        assert (run_co.theta1, run_co.theta2) == (run_ev.theta1, run_ev.theta2)

    def test_compiled_reduces_wakeups(self, report_lines):
        model, _ = build_ik_model(2.5, 1.0)
        ev = model.elaborate()
        t0 = time.perf_counter()
        ev.run()
        ev_wall = time.perf_counter() - t0
        co = model.elaborate(backend="compiled")
        t0 = time.perf_counter()
        co.run()
        co_wall = time.perf_counter() - t0
        assert co.registers == ev.registers
        assert co.stats.delta_cycles == ev.stats.delta_cycles
        ratio = ev.stats.process_resumes / co.stats.process_resumes
        report_lines.append(
            f"IKS chip: event {ev.stats.process_resumes} wakeups / "
            f"{ev_wall * 1e3:.1f} ms, compiled "
            f"{co.stats.process_resumes} dispatches / "
            f"{co_wall * 1e3:.1f} ms ({ratio:.1f}x fewer wakeups, "
            f"{ev_wall / co_wall:.1f}x wall)"
        )
        assert ratio >= 3.0


class TestObserverOverhead:
    """The observe= seam on the chip-scale model: free when absent,
    measured (not hidden) when recording."""

    REPEATS = 7

    @classmethod
    def _min_wall_pair(cls, elaborate_a, elaborate_b):
        """Interleaved min-of-N for two variants, so slow machine
        phases (GC, frequency scaling) hit both sides equally."""
        best_a = best_b = float("inf")
        for _ in range(cls.REPEATS):
            for which, elaborate in ((0, elaborate_a), (1, elaborate_b)):
                sim = elaborate()
                t0 = time.perf_counter()
                sim.run()
                wall = time.perf_counter() - t0
                if which == 0:
                    best_a = min(best_a, wall)
                else:
                    best_b = min(best_b, wall)
        return best_a, best_b

    @pytest.mark.parametrize("backend", ["event", "compiled"])
    @pytest.mark.parametrize("loaded", ["nothing", "monitor", "coverage"])
    def test_disabled_path_is_structurally_free(self, backend, loaded):
        """observe=None must install nothing: the run is identical,
        kernel counter for kernel counter, to an elaboration that never
        mentioned the probe seam -- also with an AssertionMonitor's
        property set compiled, or a CoverageModel derived for the chip,
        beforehand.  Any probe machinery leaking onto the disabled path
        would change process_resumes or events.  Metrics hooks fire
        after run() returns, so they cannot perturb the counters
        either.  Deterministic where a wall-clock ratio between two
        runs of the same code could only measure noise."""
        from repro.engine.plan import lower
        from repro.observe import (
            AssertionMonitor,
            CoverageModel,
            default_properties,
        )

        model, _ = build_ik_model(2.5, 1.0)
        if loaded == "monitor":
            AssertionMonitor(default_properties(model))
        elif loaded == "coverage":
            CoverageModel.from_plan(lower(model))
        plain = model.elaborate(backend=backend).run()
        off = model.elaborate(backend=backend, observe=None).run()
        assert off._probe is None
        assert off.registers == plain.registers
        assert off.stats.delta_cycles == plain.stats.delta_cycles
        assert off.stats.process_resumes == plain.stats.process_resumes
        assert off.stats.events == plain.stats.events

    def test_jsonl_probe_cost_measured(self, report_lines, tmp_path):
        """Recording is allowed to cost -- the point is to know how
        much.  Full JSONL capture of the IKS run, per backend."""
        model, _ = build_ik_model(2.5, 1.0)
        for backend in ("event", "compiled"):
            path = tmp_path / f"e6-{backend}.jsonl"
            base, probed = self._min_wall_pair(
                lambda: model.elaborate(backend=backend),
                lambda: model.elaborate(
                    backend=backend, observe=JsonlRecorder(str(path))
                ),
            )
            report_lines.append(
                f"{backend}: bare {base * 1e3:.2f} ms, JSONL probe "
                f"{probed * 1e3:.2f} ms ({probed / base:.2f}x)"
            )
            assert path.exists()

    def test_coverage_probe_cost_measured(self, report_lines):
        """Enabling structural coverage is allowed to cost -- measure
        it.  Full-universe collection over the IKS run, per backend,
        against the bare run; the report itself is sanity-checked so
        the measured run did real work."""
        from repro.observe import CoverageProbe

        model, _ = build_ik_model(2.5, 1.0)
        for backend in ("event", "compiled"):
            probe = CoverageProbe()
            base, covered = self._min_wall_pair(
                lambda: model.elaborate(backend=backend),
                lambda: model.elaborate(backend=backend, observe=probe),
            )
            report = probe.report
            assert report is not None and report.hit_count > 0
            report_lines.append(
                f"{backend}: bare {base * 1e3:.2f} ms, coverage probe "
                f"{covered * 1e3:.2f} ms ({covered / base:.2f}x, "
                f"{report.hit_count}/{report.point_count} points)"
            )

    def test_span_tracer_cost_measured(self, report_lines):
        """Span tracing cost on the chip, per backend: one step span
        per control step plus six phase spans each."""
        from repro.observe import SpanTracer

        model, _ = build_ik_model(2.5, 1.0)
        for backend in ("event", "compiled"):
            tracer = SpanTracer()
            base, traced = self._min_wall_pair(
                lambda: model.elaborate(backend=backend),
                lambda: model.elaborate(backend=backend, observe=tracer),
            )
            spans = len(tracer.spans)
            assert spans > 0
            report_lines.append(
                f"{backend}: bare {base * 1e3:.2f} ms, span tracer "
                f"{traced * 1e3:.2f} ms ({traced / base:.2f}x, "
                f"{spans} spans)"
            )

    def test_monitor_cost_measured(self, report_lines):
        """Enabling the monitor is allowed to cost -- measure it.  The
        default property set (never_illegal + no_conflicts) over the
        full IKS run, per backend, against the bare run."""
        from repro.observe import AssertionMonitor, default_properties

        model, _ = build_ik_model(2.5, 1.0)
        for backend in ("event", "compiled"):
            monitor = AssertionMonitor(default_properties(model))
            base, monitored = self._min_wall_pair(
                lambda: model.elaborate(backend=backend),
                lambda: model.elaborate(backend=backend, observe=monitor),
            )
            assert monitor.report is not None and monitor.report.ok
            report_lines.append(
                f"{backend}: bare {base * 1e3:.2f} ms, monitored "
                f"{monitored * 1e3:.2f} ms ({monitored / base:.2f}x, "
                f"{monitor.report.cycles} cycles checked)"
            )


class TestIKSBenchmarks:
    def test_bench_full_chip_run(self, benchmark):
        def run():
            return run_ik_chip(2.5, 1.0)

        result = benchmark(run)
        benchmark.extra_info["delta_cycles"] = (
            result.simulation.stats.delta_cycles
        )
        assert result.clean

    def test_bench_build_and_translate(self, benchmark):
        def build():
            return build_ik_model(2.5, 1.0)

        model, translation = benchmark(build)
        benchmark.extra_info["transfers"] = len(model.transfers)

    @pytest.mark.parametrize("backend", ["event", "compiled"])
    def test_bench_simulation_only(self, benchmark, backend):
        model, _ = build_ik_model(2.5, 1.0)

        def run():
            return model.elaborate(backend=backend).run()

        sim = benchmark(run)
        benchmark.extra_info["resumes"] = sim.stats.process_resumes
        assert sim.clean

    @pytest.mark.parametrize(
        "probe", ["none", "jsonl", "monitor", "coverage", "tracer"]
    )
    def test_bench_observer_overhead(self, benchmark, tmp_path, probe):
        """Satellite of the observability PRs: no-probe, JSONL-probe,
        assertion-monitor, coverage-probe and span-tracer runs side by
        side in the benchmark table."""
        from repro.observe import (
            AssertionMonitor,
            CoverageProbe,
            SpanTracer,
            default_properties,
        )

        model, _ = build_ik_model(2.5, 1.0)
        path = tmp_path / "bench.jsonl"

        def make_probe():
            if probe == "jsonl":
                return JsonlRecorder(str(path))
            if probe == "monitor":
                return AssertionMonitor(default_properties(model))
            if probe == "coverage":
                return CoverageProbe()
            if probe == "tracer":
                return SpanTracer()
            return None

        def run():
            return model.elaborate(
                backend="compiled", observe=make_probe()
            ).run()

        sim = benchmark(run)
        assert sim.clean
