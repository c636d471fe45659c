"""The mapping-creation step of the self-organization loop.

Pure logic: given the current state (schemas, their instance value
sets, reference sets and the mapping graph), propose new automatic
mappings.  The distributed I/O — fetching value sets through the
overlay and inserting the created mappings — lives in
:mod:`repro.selforg.controller`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mapping.graph import MappingGraph
from repro.mapping.model import SchemaMapping
from repro.schema.model import Schema
from repro.selforg.candidates import rank_candidate_pairs
from repro.selforg.deprecation import PRIOR
from repro.selforg.matcher import ValueSets, match_attributes


@dataclass(frozen=True)
class CreationPolicy:
    """Policy knobs of the creation step.

    ``mappings_per_round`` bounds how aggressively a round densifies
    the graph (the paper creates mappings incrementally and re-checks
    ci, rather than saturating at once).  A candidate pair needs one
    shared reference, and a proposal one correspondence found by the
    default :class:`~repro.selforg.matcher.MatcherConfig`.  Every created mapping's confidence
    is :data:`~repro.selforg.deprecation.PRIOR`, the prior belief the
    Bayesian analysis starts from, so the two are one number.
    """

    mappings_per_round: int = 3
    #: insert pure-equivalence proposals in both directions ("at the
    #: key spaces corresponding to both schemas", §3) — densifies the
    #: graph twice as fast; set False for gradual directed growth
    bidirectional: bool = True

    def __post_init__(self) -> None:
        if self.mappings_per_round < 1:
            raise ValueError("mappings_per_round must be at least 1")


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
    attribute-by-attribute, and pairs yielding a correspondence
    survive.  Mapping ids are deterministic
    (``{id_prefix}:{source}->{target}``) so repeated proposals of the
    same pair collide instead of accumulating.
    """
    policy = policy if policy is not None else CreationPolicy()
    pairs = rank_candidate_pairs(references, graph)
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
        )
        if not correspondences:
            continue
        proposals.append(SchemaMapping(
            f"{id_prefix}:{schema_a}->{schema_b}",
            schema_a,
            schema_b,
            correspondences,
            provenance="auto",
            confidence=PRIOR,
        ))
    return proposals
