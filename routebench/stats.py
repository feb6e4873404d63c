"""Percentiles, the environment block, and the compare rule."""

from __future__ import annotations

import math
import os
import platform
import statistics
import subprocess
from pathlib import Path

#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
#: Samples a tail percentile must have beyond it.  Ten put fresh-longhaul's
#: tail (p95 of 300) in the gap between ~200 ms searches and ~500 ms ones,
#: where four identical runs read 405-562 ms; with 30 beyond (p90) they
#: read 202-218 ms.
TAIL_BEYOND = 30


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail_percentile(count: int) -> float:
    """The highest ladder percentile with ``TAIL_BEYOND`` of ``count`` samples beyond it."""
    for q in TAIL_LADDER:
        if count * (100.0 - q) >= 100.0 * TAIL_BEYOND:
            return q
    return 50.0


def environment(root: Path) -> dict:
    """Cores, interpreter, numpy, commit and load at the start of a run."""
    import numpy

    sha = "unknown (not a git checkout)"
    if (root / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = "unknown (git failed)"
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "loadavg_at_start": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], change: list[float], pairs: list[tuple[float, float]],
            bound: float, lower_is_better: bool) -> str:
    """improved / no worse / worse / unresolved, by the paired-runs rule.

    Improved: the change wins at least 9 of 10 pairs and the medians differ
    by more than the base runs' quartile distance.  Unresolved: either side's
    quartile spread exceeds the bound, unless every change run beats every
    base run.  Worse: the change's median is worse by more than the bound.
    """
    sign = -1.0 if lower_is_better else 1.0
    b1, b_med, b3 = quartiles(base)
    c1, c_med, c3 = quartiles(change)
    better = sign * (c_med - b_med) > 0
    every_better = (
        max(change) < min(base) if lower_is_better else min(change) > max(base)
    )
    spread = max((b3 - b1) / abs(b_med) if b_med else 0.0, (c3 - c1) / abs(c_med) if c_med else 0.0)
    if spread > bound and not every_better:
        return "unresolved"
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    if better and pairs and wins >= 0.9 * len(pairs) and abs(c_med - b_med) > (b3 - b1):
        return "improved"
    worse_by = sign * (b_med - c_med) / abs(b_med) if b_med else 0.0
    return "worse" if worse_by > bound else "no worse"
