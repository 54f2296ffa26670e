"""Summary statistics shared by the benchmark's reports."""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Optional, Sequence

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# candidate tail percentiles, highest first
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def valid_metric_name(name: str) -> bool:
    return METRIC_NAME.fullmatch(name) is not None


def _rank(p: float, n: int) -> int:
    """1-based nearest rank, computed exactly (99.9% of 10,000 is 9,990)."""
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(samples)
    return ordered[_rank(p, len(ordered)) - 1]


def tail(samples: Sequence[float]) -> Optional[tuple[float, float]]:
    """(percentile, value) for the highest candidate percentile that has at
    least ten samples beyond it; None when the sample is too small for any."""
    n = len(samples)
    for p in TAIL_PERCENTILES:
        if n - _rank(p, n) >= TAIL_MIN_BEYOND:
            return p, percentile(samples, p)
    return None
