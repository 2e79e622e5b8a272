"""Process and host counters: CPU placement, rusage, steal time, RSS."""

from __future__ import annotations

import os
import resource
from typing import Dict, Optional, Tuple


def pin_to_one_cpu() -> Dict[str, object]:
    """Pin this process (and every thread it starts) to the highest CPU
    it may use.  Server and client then share one CPU, which removes
    the cross-CPU wakeups that made unpinned runs spread widely.
    Returns the placement record printed with every run."""
    allowed = sorted(os.sched_getaffinity(0))
    cpu = allowed[-1]
    os.sched_setaffinity(0, {cpu})
    return {
        "nproc": os.cpu_count(),
        "allowed_cpus": allowed,
        "pinned_cpu": cpu,
    }


def cpu_times() -> Optional[Tuple[int, int]]:
    """(steal, total) jiffies of all CPUs from ``/proc/stat``."""
    try:
        with open("/proc/stat", "r", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu":
        return None
    ticks = [int(v) for v in fields[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice];
    # guest time is already counted in user/nice.
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks[:8])


class Usage:
    """rusage and steal deltas over one window."""

    def __init__(self) -> None:
        self.start = resource.getrusage(resource.RUSAGE_SELF)
        self.cpu = cpu_times()
        self.end = self.start
        self.cpu_end = self.cpu

    def stop(self) -> "Usage":
        self.end = resource.getrusage(resource.RUSAGE_SELF)
        self.cpu_end = cpu_times()
        return self

    @property
    def cpu_s(self) -> float:
        return (self.end.ru_utime - self.start.ru_utime) + (
            self.end.ru_stime - self.start.ru_stime
        )

    @property
    def voluntary_switches(self) -> int:
        return self.end.ru_nvcsw - self.start.ru_nvcsw

    @property
    def steal_share(self) -> float:
        if self.cpu is None or self.cpu_end is None:
            return 0.0
        steal = self.cpu_end[0] - self.cpu[0]
        total = self.cpu_end[1] - self.cpu[1]
        return steal / total if total > 0 else 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
