"""Order statistics for the benchmark's repeated samples.

Self-contained on purpose: the benchmark must not borrow its statistics
from the program it measures, so a change under ``src/`` cannot change
how that change is judged.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence

#: Tail percentiles considered, highest first.
TAIL_POINTS = (99.9, 99.0, 95.0, 90.0)

#: A tail percentile is reported only with at least this many samples
#: beyond it; below that it is one or two outliers, not a tail.
MIN_BEYOND = 10


def nearest_rank(values: Sequence[float], percent: float) -> float:
    """The nearest-rank ``percent``-th percentile of ``values``.

    The smallest sample with at least ``percent`` % of the samples at or
    below it: rank ``ceil(percent / 100 * n)``, clamped to ``1..n``.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= percent <= 100.0:
        raise ValueError(f"percent must be in [0, 100], got {percent}")
    ordered = sorted(values)
    rank = max(1, math.ceil(percent / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_point(count: int) -> Optional[float]:
    """The highest tail percentile with ``MIN_BEYOND`` samples beyond it
    in a sample of ``count``, or None when the sample is too small."""
    for percent in TAIL_POINTS:
        if count * (100.0 - percent) / 100.0 >= MIN_BEYOND:
            return percent
    return None


def summary(values: Sequence[float]) -> Dict[str, object]:
    """Median, sample count, and the reportable tail of ``values``."""
    point = tail_point(len(values))
    return {
        "median": statistics.median(values),
        "n": len(values),
        "tail": None if point is None else [point, nearest_rank(values, point)],
    }
