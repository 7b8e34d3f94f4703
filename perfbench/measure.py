"""Summary statistics shared by the workloads and the spread tool.

The rules here are how the benchmark reports what it measures:

* a tail percentile is only as good as the samples beyond it, so a
  requested percentile is lowered to the highest one that still has at
  least ``MIN_TAIL`` samples beyond it, counted on a reference sample
  count fixed by the workload so that every commit reports the same
  percentile (:func:`tail_percentile`);
* run-to-run spread is the interquartile range as a share of the median,
  with quartiles exactly as ``statistics.quantiles(values, n=4)`` gives
  them (:func:`spread`);
* a failure is any operation that errored, was refused or failed a
  correctness check, counted against the operations attempted
  (:func:`failed_share`).
"""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence, Tuple

__all__ = ["MIN_TAIL", "failed_share", "quartiles", "spread",
           "tail_percentile"]

#: Samples a reported percentile must have beyond it.
MIN_TAIL = 10


def tail_percentile(values: Sequence[float], q: float,
                    reference_n: Optional[int] = None) -> Tuple[float, float]:
    """``(value, q_used)``: the nearest-rank ``q_used`` percentile of
    ``values``, where ``q`` is lowered until at least :data:`MIN_TAIL` of
    ``reference_n`` samples lie beyond it.

    With ``reference_n`` samples the highest usable percentile is ``1 -
    10/reference_n``; fewer than ``2 * MIN_TAIL`` cannot carry any tail,
    and the median is used instead.  ``reference_n`` defaults to
    ``len(values)``, and the rank is ``ceil(q_used * len(values))``, so
    with as many samples as the reference exactly ten lie beyond it.  A
    run bounded by time passes the count it plans for rather than the
    count it reached: a faster commit then reports the same percentile,
    not a higher point of its own tail.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"percentile must lie in (0, 1), got {q}")
    n = len(values)
    if n == 0:
        raise ValueError("percentile of no values")
    ref = n if reference_n is None else reference_n
    if ref < 1:
        raise ValueError(f"reference count must be >= 1, got {ref}")
    q_used = max(0.5, min(q, (ref - MIN_TAIL) / ref))
    rank = max(1, math.ceil(round(q_used * n, 9)))
    return float(sorted(values)[rank - 1]), q_used


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two values")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 for constant
    values); raises when the median is 0, where a share means nothing."""
    q1, _, q3 = quartiles(values)
    mid = statistics.median(values)
    if mid == 0:
        raise ValueError("spread is undefined for a zero median")
    return (q3 - q1) / abs(mid)


def failed_share(attempted: int, failed: int) -> float:
    """Failed operations over attempted ones."""
    if attempted < 1:
        raise ValueError(f"attempted must be >= 1, got {attempted}")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed must lie in [0, {attempted}], got {failed}")
    return failed / attempted
