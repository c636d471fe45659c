"""Small statistics helpers shared by benches, the connectivity code
and the query engine's execution counters.

Kept free of numpy so the core library has no hard third-party
dependency; benchmarks may still use numpy for reporting.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence


def empirical_cdf_at(samples: Sequence[float], threshold: float) -> float:
    """Fraction of samples ``<= threshold`` (0.0 on empty input).

    >>> empirical_cdf_at([0.5, 1.5, 4.0, 9.0], 5.0)
    0.75
    """
    if not samples:
        return 0.0
    return sum(1 for s in samples if s <= threshold) / len(samples)


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0 <= q <= 100), linear interpolation.

    >>> percentile([1.0, 2.0, 3.0, 4.0], 50)
    2.5
    """
    if not samples:
        raise ValueError("percentile of empty sequence")
    if not 0 <= q <= 100:
        raise ValueError("q must be in [0, 100]")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return ordered[lo]
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def percentile_or_none(samples: Sequence[float],
                       q: float) -> float | None:
    """:func:`percentile`, but ``None`` on empty input.

    Report paths use this so a run that measured nothing (e.g. a
    churn scenario where zero queries completed) reports ``None``
    latencies instead of crashing.

    >>> percentile_or_none([], 50) is None
    True
    >>> percentile_or_none([1.0, 3.0], 50)
    2.0
    """
    if not samples:
        return None
    return percentile(samples, q)


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, defined as 0.0 on a zero denominator.

    The safe division used for rate reporting (cache hit rates,
    pattern-dedup rates) where an empty measurement window is a valid
    "nothing happened yet" state rather than an error.

    >>> ratio(3, 4)
    0.75
    >>> ratio(0, 0)
    0.0
    """
    if denominator == 0:
        return 0.0
    return numerator / denominator


def mean(samples: Iterable[float]) -> float:
    """Arithmetic mean (raises on empty input)."""
    values = list(samples)
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def joint_distribution(
    pairs: Iterable[tuple[int, int]],
) -> dict[tuple[int, int], float]:
    """Empirical joint probability of (in-degree, out-degree) pairs.

    This is the ``p_jk`` of the paper's connectivity indicator.
    """
    counts: dict[tuple[int, int], int] = {}
    total = 0
    for pair in pairs:
        counts[pair] = counts.get(pair, 0) + 1
        total += 1
    if total == 0:
        return {}
    return {pair: count / total for pair, count in counts.items()}
