#!/usr/bin/env python3
"""The repository benchmark: three seeded workloads, checked results.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-fig1-http --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --self-test

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` runs an untraced and then a traced window and reports the
per-layer metrics with the median-request budget.  Report lines come
first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Each run is its own process, pinned to one CPU, with a fresh cache root
under ``.perfbench_tmp/`` in the checkout (removed at exit), so the
in-process codegen memo and both on-disk tiers start empty, no cache
outside the checkout is read and nothing outside it is written.  See
``perfbench/README.md``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve-fig1-http", "serve-fir16-ws", "iks-e6-designs")
#: Set-ups measured per untraced run: this process's own plus fresh
#: processes that set up and exit; ``setup_s`` is their median.
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="timed seconds (default: run_seconds of "
                        "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that a deliberately wrong result is "
                        "counted as failed on every workload")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--corrupt", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    return args


def child(*extra) -> dict:
    """Run this script in a fresh process; returns its JSON last line
    and the report lines before it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), *extra]
    proc = subprocess.run(
        cmd, cwd=str(ROOT), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{' '.join(extra)} exited {proc.returncode}: {proc.stderr[-2000:]}"
        )
    return {"result": json.loads(lines[-1]), "lines": lines[:-1]}


def fresh_root() -> Path:
    root = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    return root


def run_workload(args, spec: dict) -> int:
    from perfbench.host import pin_to_one_cpu

    placement = pin_to_one_cpu()
    placement["server_in_process"] = args.workload != "iks-e6-designs"
    root = fresh_root()
    # Nothing may fall back to ~/.cache/repro or an inherited cache.
    os.environ["REPRO_PLAN_CACHE"] = str(root / "default")
    os.environ["TMPDIR"] = str(root)
    try:
        from perfbench import measure

        if args.setup_only:
            if args.workload == "iks-e6-designs":
                measure.iks_setup(args.seed, str(root / "cache"))
                setup_s = time.perf_counter() - T_START
            else:
                workload, _warmup = measure.serve_setup(args.workload, args.seed)
                setup_s = time.perf_counter() - T_START
                workload.close()
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.workload == "iks-e6-designs":
            outcome = measure.iks_run(
                args.seed, args.seconds, bool(args.trace), args.corrupt,
                T_START, str(root / "cache"),
            )
        else:
            outcome = measure.serve_run(
                args.workload, args.seed, args.seconds, bool(args.trace),
                args.corrupt, T_START,
            )
    finally:
        shutil.rmtree(root, ignore_errors=True)
        try:
            root.parent.rmdir()
        except OSError:
            pass

    if not args.trace:
        setups = [outcome.metrics["setup_s"]]
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(child(
                "--workload", args.workload, "--seed", str(args.seed),
                "--setup-only",
            )["result"]["setup_s"])
        outcome.metrics["setup_s"] = statistics.median(setups)
        outcome.lines.append(
            "setup_s samples: " + ", ".join(f"{s:.4f}" for s in setups)
        )
        outcome.metrics["ok_share"] = 1.0 - outcome.error_share

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {
        row["name"]: {"value": outcome.metrics[row["name"]], "unit": row["unit"]}
        for row in wanted
    }
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("placement: " + ", ".join(f"{k}={v}" for k, v in placement.items()))
    for line in outcome.lines:
        print(line)
    for line in outcome.delta_errors:
        print(f"delta-cycle mismatch: {line}")
    print(f"error_share = {outcome.error_share:.6f} ratio "
          f"({outcome.failed} failed of {outcome.attempted} attempted)")
    for name, row in metrics.items():
        print(f"{name} = {row['value']:.6g} {row['unit']}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one table."""
    results = {}
    for workload in WORKLOADS:
        run = child("--workload", workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace))
        for line in run["lines"]:
            print(f"[{workload}] {line}")
        results[workload] = run["result"]
    print()
    print(f"{'workload':<17} {'metric':<34} {'value':>14} unit")
    merged = {}
    for workload, result in results.items():
        share = result["failed"] / result["attempted"]
        rows = [("error_share", {"value": share, "unit": "ratio"})]
        rows += list(result["metrics"].items())
        for name, row in rows:
            print(f"{workload:<17} {name:<34} {row['value']:>14.6g} {row['unit']}")
            merged[f"{workload}.{name}"] = row
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": merged,
    }))
    return 0


def self_test(args) -> int:
    """A corrupted result must make every workload's run incorrect with
    a non-zero error share."""
    ok = True
    for workload in WORKLOADS:
        result = child("--workload", workload, "--seed", str(args.seed),
                       "--seconds", "2", "--corrupt")["result"]
        share = result["failed"] / result["attempted"]
        passed = not result["correct"] and result["failed"] >= 1 and share > 0
        ok = ok and passed
        print(f"self-test {workload}: corrupted result -> correct="
              f"{result['correct']}, error_share={share:.6f}: "
              f"{'pass' if passed else 'FAIL'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program's source (src/repro) is not in {ROOT}",
              file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"error: {spec_path} is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    # Import the benchmark as a package and the program from source.
    if sys.path and Path(sys.path[0]).resolve() == HERE:
        sys.path.pop(0)
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    if args.self_test:
        return self_test(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
