"""Candidate schema-pair selection for automatic mapping creation.

§4: "We take advantage of shared references to the same protein
sequence to select pairs of candidate schemas."  Two schemas that
describe many of the same entities (same accession numbers appearing
as object values) are good mapping candidates: their attribute value
sets will overlap, giving the extensional matcher signal to work with.

The selector ranks unordered schema pairs by the number of shared
reference values, skipping pairs already joined by an active mapping
(in either direction) — creating a parallel mapping there would not
improve connectivity.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.mapping.graph import MappingGraph

#: per-schema reference sets: schema name -> set of reference values
ReferenceSets = Mapping[str, set[str]]


def rank_candidate_pairs(
    references: ReferenceSets,
    graph: MappingGraph | None = None,
    min_shared: int = 1,
) -> list[tuple[str, str, int]]:
    """Rank schema pairs by shared references, best first.

    The count is pair *support* on a vertical bit representation: each
    distinct reference value gets one bit, each schema one ``int`` mask
    of its values' bits, and a pair shares ``(mask_a & mask_b)
    .bit_count()`` references.  Bits follow set iteration order, which
    may differ between processes; the count, the ``min_shared`` filter
    and the sort key do not depend on it, so neither does the result.

    Parameters
    ----------
    references:
        Reference value sets per schema (typically the accession
        numbers observed among the schema's triple objects).
    graph:
        Current mapping graph; pairs already connected by an active
        mapping in either direction are skipped.
    min_shared:
        Minimum number of shared references for a pair to qualify.

    Returns ``(schema_a, schema_b, shared_count)`` triples sorted by
    descending count then names.
    """
    # Active mappings' endpoints, as name-sorted pairs.
    connected: set[tuple[str, str]] = set()
    if graph is not None:
        for mapping in graph.mappings():
            ends = (mapping.source_schema, mapping.target_schema)
            connected.add(ends if ends[0] <= ends[1] else ends[::-1])
    schemas = sorted(references)
    bits: dict[str, int] = {}
    masks: list[int] = []
    for schema in schemas:
        mask = 0
        for value in references[schema]:
            bit = bits.get(value)
            if bit is None:
                bit = bits[value] = 1 << len(bits)
            mask |= bit
        masks.append(mask)
    ranked: list[tuple[str, str, int]] = []
    for i, schema_a in enumerate(schemas):
        mask_a = masks[i]
        for j in range(i + 1, len(schemas)):
            shared = (mask_a & masks[j]).bit_count()
            if (shared >= min_shared
                    and (schema_a, schemas[j]) not in connected):
                ranked.append((schema_a, schemas[j], shared))
    ranked.sort(key=lambda t: (-t[2], t[0], t[1]))
    return ranked
