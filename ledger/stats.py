"""The two statistics every ledger number goes through.

A latency distribution is reported as its median plus the highest
percentile the sample can support: a percentile is only as trustworthy as
the number of samples that lie beyond it, so :func:`percentile` refuses
(returns ``None``) when fewer than :data:`MIN_BEYOND` do.  The maximum of
20 samples is not a p99.
"""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

#: Samples that must lie beyond a percentile for it to be reported.
MIN_BEYOND = 10


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples)


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q``-quantile (``0 < q < 1``) of ``samples``, or
    ``None`` when fewer than :data:`MIN_BEYOND` samples lie beyond its
    rank."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q}")
    ordered = sorted(samples)
    rank = math.ceil(q * len(ordered))
    if rank < 1 or len(ordered) - rank < MIN_BEYOND:
        return None
    return ordered[rank - 1]

