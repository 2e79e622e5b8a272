"""``iks-e6-designs``: the paper's section 3 IKS chip on ``compiled-py``.

Library calls on one thread.  Each target bakes its presets into the
chip model, so each target is a new digest: the cold pass pays
lowering and code generation for every target, then the warm pass
replays the same targets from the ``plans/v1`` and ``codegen/v1``
tiers the cold pass wrote under a fresh cache root.  This is the
miss-then-hit sequence of ``repro iks --backend compiled-py
--plan-cache``.  The chip cannot go through the service: its
non-standard operations (``FXMUL``, the CORDIC ops, the ``ADD_SHR*``
adders) do not serialize.
"""

from __future__ import annotations

import math
import random
import time
from typing import Iterator, List, Tuple

from repro.iks import IKSConfig, build_ik_model, run_ik_chip, solve_ik

from .results import Outcome

#: Targets generated at set-up; far more than a run can use.
TARGETS = 256


def ik_targets(seed: int, geometry, fmt) -> Iterator[Tuple[float, float]]:
    """Seeded reachable targets with pairwise distinct fixed-point
    encodings, so no two share a chip model."""
    rng = random.Random(seed)
    seen = set()
    while True:
        r = rng.uniform(0.8, 3.2)
        phi = rng.uniform(-math.pi, math.pi)
        px, py = r * math.cos(phi), r * math.sin(phi)
        key = (fmt.encode(px), fmt.encode(py))
        if key in seen or not geometry.reachable(px, py):
            continue
        seen.add(key)
        yield px, py


class IksWorkload:
    """Cold then warm designs against one fresh cache root."""

    def __init__(self, seed: int, cache_root: str, corrupt: bool = False) -> None:
        self.cache_root = cache_root
        self.corrupt = corrupt
        self.config = IKSConfig()
        stream = ik_targets(seed, self.config.geometry, self.config.fmt)
        self.targets = [next(stream) for _ in range(TARGETS)]
        self.used = 0

    def solve(self, px: float, py: float) -> dict:
        run = run_ik_chip(
            px, py, backend="compiled-py", plan_cache=self.cache_root
        )
        return {
            "theta1": run.theta1,
            "theta2": run.theta2,
            "clean": run.clean,
            "deltas": run.simulation.stats.delta_cycles,
        }

    def window(self, seconds: float, segments: int = 1) -> dict:
        """``segments`` times: cold designs on unused targets for
        ``seconds / segments`` (at least one), then the warm pass over
        the same targets, so both kinds are sampled across the window."""
        clock = time.perf_counter
        out: dict = {"targets": [], "cold": [], "cold_ms": [],
                     "warm": [], "warm_ms": []}
        for _ in range(segments):
            targets: List[Tuple[float, float]] = []
            started = clock()
            while self.used < len(self.targets) and (
                not targets or clock() - started < seconds / segments
            ):
                target = self.targets[self.used]
                self.used += 1
                t0 = clock()
                out["cold"].append(self.solve(*target))
                out["cold_ms"].append((clock() - t0) * 1000.0)
                targets.append(target)
            for target in targets:
                t0 = clock()
                out["warm"].append(self.solve(*target))
                out["warm_ms"].append((clock() - t0) * 1000.0)
            out["targets"] += targets
        return out

    def check(self, window: dict, outcome: Outcome) -> int:
        """Angles bit-exact against ``solve_ik``, clean runs, and every
        run's delta cycles equal to the ``event`` kernel's on the same
        chip model.  Returns the reference delta-cycle count."""
        if self.corrupt and window["cold"]:
            window["cold"][0]["theta1"] += 1
        cfg = self.config
        failed = 0
        deltas = 0
        for (px, py), pair in zip(
            window["targets"], zip(window["cold"], window["warm"])
        ):
            ref = solve_ik(px, py, cfg.geometry, cfg.fmt, cfg.cordic_spec)
            model, _translation = build_ik_model(px, py, cfg)
            deltas = model.elaborate(backend="event").run().stats.delta_cycles
            for result in pair:
                if (
                    result["theta1"] != ref.theta1
                    or result["theta2"] != ref.theta2
                    or not result["clean"]
                ):
                    failed += 1
                if result["deltas"] != deltas:
                    outcome.delta_errors.append(
                        f"target ({px:.4f}, {py:.4f}): compiled-py ran "
                        f"{result['deltas']} delta cycles, the event "
                        f"kernel {deltas}"
                    )
        outcome.count(len(window["cold"]) + len(window["warm"]), failed)
        return deltas
