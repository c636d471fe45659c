"""Bayesian mapping-quality assessment via cycle analysis (§3.2).

"GridVine uses a Bayesian analysis comparing transitive closures of
mappings to assess the quality of the mappings [Cudré-Mauroux, Aberer
& Feher, ICDE 2006].  The mappings manually created by the users are
always considered as correct in this analysis, while probabilistic
correctness values are inferred for mappings that were created
automatically."

The analysis works on *cycles* in the mapping graph: composing the
correspondences around a cycle should map every attribute back to
itself.  Each cycle is an observation:

* ``consistent`` (composition is the identity on the attributes that
  survive it) — evidence that every mapping on the cycle is correct;
* ``inconsistent`` — evidence that at least one mapping on the cycle
  is wrong.

Generative model, following the ICDE'06 formulation: each mapping
``m`` has a latent correctness ``theta_m ∈ {0, 1}`` with prior
``P(theta_m = 1) = prior`` (pinned to 1 for user mappings).  A cycle
whose mappings are all correct is consistent with probability
``1 - epsilon`` (epsilon absorbs sampling noise in the consistency
check); a cycle containing at least one incorrect mapping is
*accidentally* consistent only with small probability ``delta``
(two errors compensating exactly).

Exact inference is exponential in the number of mappings, so we use
the standard mean-field / loopy iteration: each mapping's belief is
updated from the cycle likelihoods, with the other mappings' beliefs
held at their current values, damped and repeated for a fixed number
of rounds.  This converges quickly on the sparse cycle structures the
demo produces and reproduces the qualitative behaviour the paper
demonstrates: wrong automatic mappings sitting on inconsistent cycles
are driven below the deprecation threshold while correct ones recover
toward 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.mapping.graph import MappingGraph
from repro.mapping.model import SchemaMapping


@dataclass(frozen=True)
class DeprecationConfig:
    """Parameters of the Bayesian cycle analysis."""

    #: prior correctness of an automatic mapping
    prior: float = 0.7
    #: P(cycle observed inconsistent | all mappings correct)
    epsilon: float = 0.05
    #: P(cycle observed consistent | >= 1 mapping incorrect)
    delta: float = 0.05
    #: posterior below which a mapping is deprecated
    threshold: float = 0.35
    #: longest cycles enumerated
    max_cycle_length: int = 4
    #: mean-field iterations
    iterations: int = 20
    #: damping factor for belief updates (0 = no damping)
    damping: float = 0.3


def cycle_is_consistent(cycle: list[SchemaMapping]) -> bool | None:
    """Check one cycle by composing its correspondences.

    Returns ``True``/``False`` for consistent/inconsistent, or ``None``
    when no attribute survives the whole composition (the cycle gives
    no evidence either way).
    """
    composed = MappingGraph.compose_correspondences(cycle)
    if not composed:
        return None
    return all(c.source == c.target for c in composed)


def _cycle_likelihood(consistent: bool, others_correct: float,
                      config: DeprecationConfig,
                      this_correct: bool) -> float:
    """P(cycle outcome | this mapping's correctness, others' belief)."""
    if this_correct:
        p_all_correct = others_correct
    else:
        p_all_correct = 0.0
    if consistent:
        return (p_all_correct * (1.0 - config.epsilon)
                + (1.0 - p_all_correct) * config.delta)
    return (p_all_correct * config.epsilon
            + (1.0 - p_all_correct) * (1.0 - config.delta))


def assess_mapping_quality(
    graph: MappingGraph,
    config: DeprecationConfig | None = None,
) -> dict[str, float]:
    """Posterior correctness probability for every active mapping.

    User-defined mappings are pinned at 1.0; automatic mappings start
    at the prior and are updated from the cycle evidence.  Mappings on
    no informative cycle keep their prior (no evidence, no change) —
    exactly the paper's behaviour where deprecation only kicks in once
    alternative mapping paths exist to compare against.
    """
    config = config if config is not None else DeprecationConfig()
    mappings = graph.mappings(include_deprecated=False)
    beliefs: dict[str, float] = {}
    for mapping in mappings:
        if mapping.is_user_defined:
            beliefs[mapping.mapping_id] = 1.0
        else:
            beliefs[mapping.mapping_id] = config.prior
    # Collect informative cycle observations once.
    observations: list[tuple[list[str], bool]] = []
    for cycle in graph.find_cycles(max_length=config.max_cycle_length):
        verdict = cycle_is_consistent(cycle)
        if verdict is None:
            continue
        observations.append(([m.mapping_id for m in cycle], verdict))
    if not observations:
        return beliefs

    by_mapping: dict[str, list[int]] = {}
    for index, (ids, _verdict) in enumerate(observations):
        for mapping_id in ids:
            by_mapping.setdefault(mapping_id, []).append(index)

    user_ids = {m.mapping_id for m in mappings if m.is_user_defined}
    for _round in range(config.iterations):
        updated: dict[str, float] = {}
        for mapping in mappings:
            mid = mapping.mapping_id
            if mid in user_ids:
                updated[mid] = 1.0
                continue
            log_odds = math.log(config.prior / (1.0 - config.prior))
            for index in by_mapping.get(mid, ()):
                ids, verdict = observations[index]
                others = 1.0
                for other_id in ids:
                    if other_id != mid:
                        others *= beliefs[other_id]
                p_if_correct = _cycle_likelihood(verdict, others, config, True)
                p_if_wrong = _cycle_likelihood(verdict, others, config, False)
                # Guard against log(0) when likelihoods saturate.
                p_if_correct = min(max(p_if_correct, 1e-9), 1.0 - 1e-9)
                p_if_wrong = min(max(p_if_wrong, 1e-9), 1.0 - 1e-9)
                log_odds += math.log(p_if_correct / p_if_wrong)
            posterior = 1.0 / (1.0 + math.exp(-log_odds))
            updated[mid] = (config.damping * beliefs[mid]
                            + (1.0 - config.damping) * posterior)
        beliefs = updated
    return beliefs


def mappings_to_deprecate(
    graph: MappingGraph,
    config: DeprecationConfig | None = None,
    beliefs: dict[str, float] | None = None,
) -> list[SchemaMapping]:
    """The active automatic mappings whose posterior falls below the
    deprecation threshold, sorted by id (``beliefs``: the posteriors,
    when the caller already ran :func:`assess_mapping_quality`)."""
    config = config if config is not None else DeprecationConfig()
    if beliefs is None:
        beliefs = assess_mapping_quality(graph, config)
    return [
        mapping for mapping in graph.mappings()  # sorted by id
        if not mapping.is_user_defined
        and beliefs[mapping.mapping_id] < config.threshold
    ]
