"""String and set similarity measures for automatic schema matching.

§4 of the paper: automatic mappings are created "using a combination of
lexicographical measures and set distance measures between the
predicates defined in both schemas".  This module supplies both
families:

*Lexicographic* (on attribute names):
    :func:`ngram_similarity`, :func:`jaro_winkler`.

*Set distance* (on the sets of instance values observed under each
attribute):
    :func:`jaccard_similarity`.

All similarity functions return a value in ``[0, 1]`` where 1 means
identical.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Collection, Set


# ---------------------------------------------------------------------------
# Lexicographic measures
# ---------------------------------------------------------------------------

def _bigrams(text: str) -> list[str]:
    """Character bigrams of ``text`` with boundary padding."""
    padded = "#" + text + "#"
    return [padded[i:i + 2] for i in range(len(padded) - 1)]


def ngram_similarity(a: str, b: str) -> float:
    """Dice coefficient over character bigrams.

    Robust to small rearrangements (``SeqLength`` vs ``LengthSeq``)
    where plain edit distance over-penalizes.
    """
    if a == b:
        return 1.0
    if not a or not b:
        return 0.0
    grams_a = _bigrams(a.lower())
    grams_b = _bigrams(b.lower())
    counts_a = Counter(grams_a)
    counts_b = Counter(grams_b)
    overlap = sum((counts_a & counts_b).values())
    return 2.0 * overlap / (len(grams_a) + len(grams_b))


#: Winkler's bonus per shared leading character (of at most four)
WINKLER_PREFIX_SCALE = 0.1


def jaro_winkler(a: str, b: str) -> float:
    """Jaro–Winkler similarity, favouring shared prefixes.

    Attribute names in related bioinformatic schemas tend to share
    prefixes (``Seq``, ``Organism``...), which is exactly the bias
    Winkler's prefix bonus encodes.
    """
    if a == b:
        return 1.0
    if not a or not b:
        return 0.0
    match_window = max(len(a), len(b)) // 2 - 1
    match_window = max(match_window, 0)
    a_matched = [False] * len(a)
    b_matched = [False] * len(b)
    matches = 0
    for i, ca in enumerate(a):
        lo = max(0, i - match_window)
        hi = min(len(b), i + match_window + 1)
        for j in range(lo, hi):
            if not b_matched[j] and b[j] == ca:
                a_matched[i] = True
                b_matched[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    transpositions = 0
    j = 0
    for i, matched in enumerate(a_matched):
        if not matched:
            continue
        while not b_matched[j]:
            j += 1
        if a[i] != b[j]:
            transpositions += 1
        j += 1
    transpositions //= 2
    jaro = (
        matches / len(a)
        + matches / len(b)
        + (matches - transpositions) / matches
    ) / 3.0
    # Winkler prefix bonus (common prefix up to 4 chars).
    prefix_len = 0
    for ca, cb in zip(a, b):
        if ca != cb or prefix_len == 4:
            break
        prefix_len += 1
    return jaro + prefix_len * WINKLER_PREFIX_SCALE * (1.0 - jaro)


# ---------------------------------------------------------------------------
# Set distance
# ---------------------------------------------------------------------------

def jaccard_similarity(a: Collection, b: Collection) -> float:
    """|A ∩ B| / |A ∪ B| (1.0 when both sets are empty).

    >>> jaccard_similarity({1, 2}, {2, 3})
    0.3333333333333333
    """
    set_a = a if isinstance(a, Set) else set(a)
    set_b = b if isinstance(b, Set) else set(b)
    if not set_a and not set_b:
        return 1.0
    union = len(set_a | set_b)
    return len(set_a & set_b) / union
