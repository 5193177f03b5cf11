"""Host-noise record: CPU steal and a short fsync probe.

Both are reported on every run and nothing is discarded because of
them; they say how noisy the machine was while the numbers were taken.
"""

from __future__ import annotations

import os
import statistics
import time
from pathlib import Path
from typing import List, Tuple


def cpu_times() -> Tuple[int, int]:
    """``(steal, total)`` jiffies of the aggregate ``cpu`` line."""
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    values = [int(v) for v in fields[1:]]
    steal = values[7] if len(values) > 7 else 0
    # guest time is already counted inside user/nice.
    return steal, sum(values[:8])


def steal_frac(before: Tuple[int, int], after: Tuple[int, int]) -> float:
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


def fsync_probe_us(directory: Path, count: int = 16) -> float:
    """Median microseconds of a 4 KiB append + fsync in ``directory``."""
    path = directory / "fsync-probe.bin"
    samples: List[float] = []
    block = b"\0" * 4096
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        for _ in range(count):
            os.write(fd, block)
            started = time.perf_counter()
            os.fsync(fd)
            samples.append((time.perf_counter() - started) * 1e6)
    finally:
        os.close(fd)
        path.unlink()
    return statistics.median(samples)
