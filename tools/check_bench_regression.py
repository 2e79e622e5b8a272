#!/usr/bin/env python3
"""Gate recorded benchmark speedups against the committed baseline.

Usage::

    python tools/check_bench_regression.py BASELINE.json NEW.json [--floor 0.5]

Both files are ``repro bench`` records of the same kind --
``batched-vs-sequential`` or ``codegen-vs-compiled``.
The gate fails (exit 1) when the new speedup drops below ``floor``
times the committed baseline speedup.  A *relative* floor keeps the
gate robust to runner hardware: absolute walls vary wildly across CI
machines, but each record's speedup is a ratio measured on the same
machine in the same job, so a halving of that ratio is a genuine
regression, not noise.

A missing baseline file is not a failure: a newly introduced benchmark
artifact has no committed baseline on older branches, so the gate
prints a note and passes until one lands.

Exit codes: 0 pass (or no baseline yet), 1 regression, 2 unusable input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

KNOWN_BENCHMARKS = (
    "batched-vs-sequential",
    "codegen-vs-compiled",
)


def load_record(path: Path) -> tuple[str, float]:
    """Return ``(benchmark_kind, speedup)`` for a bench record."""
    try:
        record = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: cannot read {path}: {exc}")
    kind = record.get("benchmark")
    if kind not in KNOWN_BENCHMARKS:
        raise SystemExit(
            f"error: {path} is a {kind!r} record, expected one of "
            f"{', '.join(KNOWN_BENCHMARKS)}"
        )
    speedup = record.get("speedup")
    if not isinstance(speedup, (int, float)) or speedup <= 0:
        raise SystemExit(f"error: {path} has no usable 'speedup' field")
    return kind, float(speedup)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path, help="committed bench record")
    parser.add_argument("new", type=Path, help="freshly measured bench record")
    parser.add_argument(
        "--floor",
        type=float,
        default=0.5,
        help="minimum allowed fraction of the baseline speedup "
        "(default: 0.5)",
    )
    args = parser.parse_args(argv)

    new_kind, new = load_record(args.new)
    if not args.baseline.exists():
        print(
            f"no baseline at {args.baseline}; measured {new_kind} "
            f"speedup {new:.2f}x accepted (nothing to compare against)"
        )
        return 0
    base_kind, baseline = load_record(args.baseline)
    if base_kind != new_kind:
        raise SystemExit(
            f"error: benchmark kinds differ: baseline {args.baseline} is "
            f"{base_kind!r}, new {args.new} is {new_kind!r}"
        )
    threshold = args.floor * baseline
    ratio = new / baseline

    print(f"benchmark        : {new_kind}")
    print(f"baseline speedup : {baseline:8.2f}x  ({args.baseline})")
    print(f"measured speedup : {new:8.2f}x  ({args.new})")
    print(f"floor            : {threshold:8.2f}x  ({args.floor:.0%} of baseline)")
    if new < threshold:
        print(
            f"FAIL: {new_kind} speedup regressed to {ratio:.0%} of the "
            f"baseline (floor {args.floor:.0%})"
        )
        return 1
    print(f"OK: measured speedup is {ratio:.0%} of the baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
