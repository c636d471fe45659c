"""Automatic attribute matching between two schemas.

§4: "we ... create the automatic mappings using a combination of
lexicographical measures and set distance measures between the
predicates defined in both schemas."

For every attribute pair ``(a, b)`` the matcher scores:

* ``lexical(a, b)`` — the max of Jaro–Winkler and character-bigram
  similarity on the attribute names (two measures with complementary
  failure modes: JW favours shared prefixes, n-grams survive word
  reordering);
* ``extensional(a, b)`` — the Jaccard similarity of the value sets
  observed under the two predicates in the shared data.

The combined score is a weighted sum; pairs above ``threshold`` enter
a greedy one-to-one assignment (best score first), so each attribute
matches at most once.  A pair whose value sets overlap asymmetrically
(containment in one direction far above the other) is emitted as a
*subsumption* correspondence instead of an equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mapping.model import (
    MappingKind,
    PredicateCorrespondence,
)
from repro.schema.model import Schema
from repro.util.keys import MemoCache
from repro.util.similarity import (
    jaccard_similarity,
    jaro_winkler,
    ngram_similarity,
)

#: value sets keyed by attribute name
ValueSets = dict[str, set[str]]

#: how much one-directional containment must exceed the other
#: direction's to call a pair a subsumption
SUBSUMPTION_MARGIN = 0.4
#: the fewest observed values on each side for the extensional
#: measure to count
MIN_VALUES_FOR_EXTENSION = 2

#: memo for :func:`lexical_similarity` — ordered name pair -> score.
#: A round scores every attribute pair of its top candidate schema
#: pairs, and the same names meet again in later pairs and rounds;
#: the entries are bounded by the schemas' attribute vocabulary.
LEXICAL_CACHE = MemoCache(maxsize=1 << 16)


@dataclass(frozen=True)
class MatcherConfig:
    """Tuning knobs of the automatic matcher.

    ``lexical_weight + extensional_weight`` should be 1; ``threshold``
    is the minimum combined score for a correspondence.
    """

    lexical_weight: float = 0.5
    extensional_weight: float = 0.5
    threshold: float = 0.55
    #: a lexical score this high is accepted on its own (near-identical
    #: attribute names, e.g. "Organism" vs "OrganismName")
    strong_lexical: float = 0.85
    #: an extensional score this high is accepted on its own (almost
    #: identical value sets, e.g. "OS" vs "SystematicName" both holding
    #: organism names)
    strong_extensional: float = 0.7

    def __post_init__(self) -> None:
        if not 0 <= self.threshold <= 1:
            raise ValueError("threshold must be in [0, 1]")
        if self.lexical_weight < 0 or self.extensional_weight < 0:
            raise ValueError("weights must be non-negative")
        if self.lexical_weight + self.extensional_weight == 0:
            raise ValueError("at least one weight must be positive")


def lexical_similarity(a: str, b: str) -> float:
    """Name similarity: max of Jaro–Winkler and bigram Dice.

    Memoized per ordered pair (:data:`LEXICAL_CACHE`); a score is a
    float, so the shared cached value is safe to return.
    """
    key = (a, b)
    score = LEXICAL_CACHE.get(key)
    if score is None:
        score = max(jaro_winkler(a.lower(), b.lower()), ngram_similarity(a, b))
        LEXICAL_CACHE.put(key, score)
    return score


def _containment(a: set[str], b: set[str]) -> float:
    """|a ∩ b| / |a| (how much of ``a`` lies inside ``b``)."""
    if not a:
        return 0.0
    return len(a & b) / len(a)


def score_pair(
    attr_a: str,
    attr_b: str,
    values_a: set[str],
    values_b: set[str],
    config: MatcherConfig,
) -> float:
    """Combined matching score for one attribute pair.

    When either side has too few observed values for the extensional
    measure to be meaningful, the lexical score is used alone (with
    full weight) rather than diluting it with noise.  A sufficiently
    *strong* single signal (``strong_lexical`` / ``strong_extensional``)
    is accepted on its own: synonym pairs like ``OS`` vs
    ``SystematicName`` have no lexical similarity but near-identical
    value sets, and vice versa for key-like attributes whose value
    sets barely overlap across sources.
    """
    lexical = lexical_similarity(attr_a, attr_b)
    enough_values = (
        len(values_a) >= MIN_VALUES_FOR_EXTENSION
        and len(values_b) >= MIN_VALUES_FOR_EXTENSION
    )
    if not enough_values:
        return lexical
    extensional = jaccard_similarity(values_a, values_b)
    total_weight = config.lexical_weight + config.extensional_weight
    combined = (config.lexical_weight * lexical
                + config.extensional_weight * extensional) / total_weight
    if lexical >= config.strong_lexical:
        combined = max(combined, lexical)
    if extensional >= config.strong_extensional:
        combined = max(combined, extensional)
    return combined


def match_attributes(
    source: Schema,
    target: Schema,
    source_values: ValueSets,
    target_values: ValueSets,
    config: MatcherConfig | None = None,
) -> list[PredicateCorrespondence]:
    """Induce correspondences from ``source`` to ``target``.

    Returns a greedy one-to-one assignment of attribute pairs scoring
    above the threshold, as :class:`PredicateCorrespondence` objects
    whose ``score`` records the matcher's combined score.
    """
    config = config if config is not None else MatcherConfig()
    scored: list[tuple[float, str, str]] = []
    for attr_a in source.attributes:
        values_a = source_values.get(attr_a, set())
        for attr_b in target.attributes:
            values_b = target_values.get(attr_b, set())
            score = score_pair(attr_a, attr_b, values_a, values_b, config)
            if score >= config.threshold:
                scored.append((score, attr_a, attr_b))
    # Greedy best-first one-to-one assignment; ties broken by name for
    # determinism.
    scored.sort(key=lambda t: (-t[0], t[1], t[2]))
    used_a: set[str] = set()
    used_b: set[str] = set()
    correspondences: list[PredicateCorrespondence] = []
    for score, attr_a, attr_b in scored:
        if attr_a in used_a or attr_b in used_b:
            continue
        used_a.add(attr_a)
        used_b.add(attr_b)
        kind = _classify_kind(
            source_values.get(attr_a, set()),
            target_values.get(attr_b, set()),
        )
        correspondences.append(PredicateCorrespondence(
            source.predicate(attr_a),
            target.predicate(attr_b),
            kind=kind,
            score=min(1.0, score),
        ))
    return correspondences


def _classify_kind(values_a: set[str], values_b: set[str]) -> MappingKind:
    """Equivalence unless containment is strongly one-directional.

    If the target's values sit inside the source's but not vice versa
    (``b ⊆ a``), the target predicate is *subsumed* by the source —
    rewriting source-queries to it is sound but partial.
    """
    if (len(values_a) < MIN_VALUES_FOR_EXTENSION
            or len(values_b) < MIN_VALUES_FOR_EXTENSION):
        return MappingKind.EQUIVALENCE
    b_in_a = _containment(values_b, values_a)
    a_in_b = _containment(values_a, values_b)
    if b_in_a - a_in_b >= SUBSUMPTION_MARGIN:
        return MappingKind.SUBSUMPTION
    return MappingKind.EQUIVALENCE
