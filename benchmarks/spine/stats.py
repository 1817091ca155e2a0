"""Sample statistics for the bench spine: medians, the percentile rule,
and the inter-quartile spread every reported metric carries.

A timing is reported as a median and the highest percentile that still
has at least ten samples beyond it — a p99 over 300 samples is three
samples' worth of noise, not a tail.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence

#: percentiles the rule may pick, highest first
CANDIDATE_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)

#: samples that must lie beyond a percentile before it is reported
MIN_SAMPLES_BEYOND = 10


def median(values: Sequence[float]) -> float:
    """The median; 0.0 for an empty sample (a layer that did no work)."""
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0–100) by linear interpolation between
    closest ranks; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (rank - low))


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly above percentile ``q``."""
    return int(math.floor(count * (100.0 - q) / 100.0 + 1e-9))


def highest_supported_percentile(count: int) -> Optional[float]:
    """The highest candidate percentile with at least
    :data:`MIN_SAMPLES_BEYOND` samples beyond it, or ``None`` when even
    the lowest candidate is unsupported."""
    for q in CANDIDATE_PERCENTILES:
        if samples_beyond(count, q) >= MIN_SAMPLES_BEYOND:
            return q
    return None


def iqr_share(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median — the spread the driver compares against a metric's bound."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return abs(q3 - q1) / abs(mid) if mid else 0.0


def summarize(values: Sequence[float]) -> Dict[str, object]:
    """Median, every value, and the inter-quartile spread of a metric
    measured once per pass."""
    return {
        "value": median(values),
        "per_pass": [float(v) for v in values],
        "iqr_share": iqr_share(values),
    }
