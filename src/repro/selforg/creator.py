"""The mapping-creation step of the self-organization loop.

Pure logic: given the current state (schemas, their instance value
sets, reference sets and the mapping graph), propose new automatic
mappings.  The distributed I/O — fetching value sets through the
overlay and inserting the created mappings — lives in
:mod:`repro.selforg.controller`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.mapping.graph import MappingGraph
from repro.mapping.model import SchemaMapping
from repro.schema.model import Schema
from repro.selforg.candidates import rank_candidate_pairs
from repro.selforg.matcher import MatcherConfig, ValueSets, match_attributes


@dataclass(frozen=True)
class CreationPolicy:
    """Policy knobs of the creation step.

    ``mappings_per_round`` bounds how aggressively a round densifies
    the graph (the paper creates mappings incrementally and re-checks
    ci, rather than saturating at once).  ``initial_confidence`` seeds
    the Bayesian analysis's prior belief in automatic mappings.
    """

    mappings_per_round: int = 3
    min_shared_references: int = 1
    min_correspondences: int = 1
    initial_confidence: float = 0.7
    #: insert pure-equivalence proposals in both directions ("at the
    #: key spaces corresponding to both schemas", §3) — densifies the
    #: graph twice as fast; set False for gradual directed growth
    bidirectional: bool = True
    matcher: MatcherConfig = field(default_factory=MatcherConfig)

    def __post_init__(self) -> None:
        if self.mappings_per_round < 1:
            raise ValueError("mappings_per_round must be at least 1")
        # A mapping needs at least one correspondence.
        if self.min_correspondences < 1:
            raise ValueError("min_correspondences must be at least 1")
        if not 0 <= self.initial_confidence <= 1:
            raise ValueError("initial_confidence must be in [0, 1]")


def propose_mappings(
    schemas: dict[str, Schema],
    value_sets: dict[str, ValueSets],
    references: dict[str, set[str]],
    graph: MappingGraph,
    policy: CreationPolicy | None = None,
    id_prefix: str = "auto",
) -> list[SchemaMapping]:
    """Propose up to ``mappings_per_round`` new automatic mappings.

    Candidate pairs come from shared references; each pair is matched
    attribute-by-attribute, and pairs yielding at least
    ``min_correspondences`` survive.  Mapping ids are deterministic
    (``{id_prefix}:{source}->{target}``) so repeated proposals of the
    same pair collide instead of accumulating.
    """
    policy = policy if policy is not None else CreationPolicy()
    pairs = rank_candidate_pairs(
        references, graph, min_shared=policy.min_shared_references
    )
    proposals: list[SchemaMapping] = []
    for schema_a, schema_b, _shared in pairs:
        if len(proposals) >= policy.mappings_per_round:
            break
        source = schemas.get(schema_a)
        target = schemas.get(schema_b)
        if source is None or target is None:
            continue
        correspondences = match_attributes(
            source, target,
            value_sets.get(schema_a, {}),
            value_sets.get(schema_b, {}),
            policy.matcher,
        )
        if len(correspondences) < policy.min_correspondences:
            continue
        proposals.append(SchemaMapping(
            f"{id_prefix}:{schema_a}->{schema_b}",
            schema_a,
            schema_b,
            correspondences,
            provenance="auto",
            confidence=policy.initial_confidence,
        ))
    return proposals
