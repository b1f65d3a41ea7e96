"""Sample statistics shared by the runner, the comparison and the tests.

Every rule the benchmark applies to a sample lives here, so the runner
and :mod:`bench.compare` cannot disagree about it:

* a percentile is reported only when at least :data:`MIN_BEYOND`
  samples lie beyond it (nearest-rank, no interpolation);
* an open-loop request is timed from when it was *due*, and a request
  that was shed, rejected or failed counts as an infinite latency, so it
  misses every limit;
* spread is the interquartile range over the median, with the quartiles
  of :func:`statistics.quantiles`.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10


def min_samples_for(q: float) -> int:
    """Smallest sample count at which percentile ``q`` has
    :data:`MIN_BEYOND` samples beyond it."""
    if not 0.0 < q < 1.0:
        raise ValueError("q must be in (0, 1)")
    return math.ceil(MIN_BEYOND / (1.0 - q) - 1e-9)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` of ``values``.

    Raises :class:`ValueError` when fewer than :data:`MIN_BEYOND` samples
    lie beyond it: a tail the sample cannot support is not reported.
    """
    n = len(values)
    if n < min_samples_for(q):
        raise ValueError(
            f"p{q * 100:g} needs {min_samples_for(q)} samples "
            f"({MIN_BEYOND} beyond it); got {n}"
        )
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * n)) - 1]


def latency_from_due(
    due_s: float, submitted_s: float, latency_s: float, served: bool
) -> float:
    """Open-loop latency of one request, measured from its due time.

    ``submitted_s - due_s`` is how late the load generator sent it (a
    stall in the system delays later submissions, and that wait counts);
    ``latency_s`` is the scheduler's own submit-to-response time.  A
    request that was not served is a miss: infinite latency.
    """
    if not served:
        return math.inf
    return (submitted_s - due_s) + latency_s


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as :func:`statistics.quantiles` gives them."""
    if len(values) < 2:
        only = float(values[0]) if values else math.nan
        return (only, only, only)
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q1, median, q3)


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 for one value)."""
    q1, median, q3 = quartiles(values)
    if median == 0.0:
        return math.inf if q3 != q1 else 0.0
    return (q3 - q1) / abs(median)
