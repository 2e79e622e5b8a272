"""What one workload run produced, and the percentile helper."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class Outcome:
    """Counts, metrics and report lines of one workload run."""

    attempted: int = 0
    failed: int = 0
    #: metric name -> value (units come from BENCHMARK.json)
    metrics: Dict[str, float] = field(default_factory=dict)
    #: human-readable report lines (placement, budget, reconciliation)
    lines: List[str] = field(default_factory=list)
    #: delta-cycle counts that differ from the reference kernel's
    delta_errors: List[str] = field(default_factory=list)

    def count(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.delta_errors

    @property
    def error_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def quantile(values: List[float], q: int) -> float:
    """The ``q``-th percentile, interpolated inclusively."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0
