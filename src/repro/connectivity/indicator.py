"""The connectivity indicator ``ci = sum_jk (jk - k) p_jk``.

This is the quantity of §3.1: ``p_jk`` is the probability for a schema
to have in-degree ``j`` and out-degree ``k``.  The criterion is the
directed-graph generalization of the Molloy–Reed condition [Cudré-
Mauroux & Aberer, ODBASE 2004]: in a random directed graph with the
given joint degree distribution, a giant (strongly) connected component
exists exactly when the expected number of second neighbours exceeds
the expected number of first neighbours, i.e. ``E[jk] >= E[k]`` (note
``E[j] = E[k]`` since every edge contributes one in- and one
out-stub).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.util.stats import joint_distribution


def indicator_from_degrees(degree_pairs: Iterable[tuple[int, int]]) -> float:
    """Compute ``ci`` from raw ``(in_degree, out_degree)`` pairs.

    >>> indicator_from_degrees([(1, 1), (1, 1)])  # a 2-cycle
    0.0
    >>> indicator_from_degrees([(0, 1), (1, 0)])  # a single edge
    -0.5
    """
    distribution = joint_distribution(degree_pairs)
    return connectivity_indicator(distribution)


def connectivity_indicator(p_jk: Mapping[tuple[int, int], float]) -> float:
    """``ci`` from a joint degree distribution ``{(j, k): probability}``.

    Returns 0.0 for an empty distribution (an empty mediation layer is
    vacuously connected — no creation pressure).
    """
    return sum((j * k - k) * p for (j, k), p in p_jk.items())


