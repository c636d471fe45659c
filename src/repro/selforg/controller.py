"""The self-organization controller: the ci → create → assess loop.

§3.2: "Peers responsible for a schema periodically inquire about the
connectivity of the mediation layer by issuing a query to the
corresponding key space.  ci < 0 ... triggers the automatic creation of
additional schema mappings ...  The quality of the mappings created in
this way is periodically assessed ... A mapping detected as incorrect
is marked as deprecated."

In the real system every schema peer runs this loop for its own
schema; the controller here drives the identical sequence of overlay
operations from one vantage peer per round, which produces the same
record-level state evolution while keeping experiments deterministic
and debuggable.  All state the controller uses is obtained through the
overlay (``Retrieve``); nothing is read out-of-band.  A round reads
its state set at a time, in a fixed number of reads whatever the
number of schemas and attributes: the domain's connectivity records,
one split read of every schema's key space (definitions and the
mapping graph, deprecated mappings included), one of every predicate's
key space (the instance data the matcher mines), and after the
mutations the active mapping graph and the records again.  Each read
is an attributed peer operation (:meth:`GridVineNetwork.call
<repro.pgrid.overlay.PGridOverlay.call>`) from an origin drawn from
the harness rng, so a round runs on whichever engine the network does
and leaves one ``op:<ref>`` trace per read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.connectivity.indicator import indicator_from_degrees
from repro.mapping.graph import MappingGraph
from repro.mapping.model import MappingKind
from repro.mediation.keys import term_key
from repro.mediation.network import GridVineNetwork, graph_of_spaces
from repro.mediation.records import ConnectivityRecord
from repro.rdf.terms import URI
from repro.rdf.triples import Triple
from repro.schema.model import Schema
from repro.selforg.creator import CreationPolicy, propose_mappings
from repro.selforg.deprecation import (
    assess_mapping_quality,
    mappings_to_deprecate,
)
from repro.util.keys import Key


@dataclass
class RoundReport:
    """What one controller round observed and did."""

    round_index: int
    ci_before: float
    ci_after: float
    schemas_seen: int
    created: list[str] = field(default_factory=list)
    deprecated: list[str] = field(default_factory=list)
    posteriors: dict[str, float] = field(default_factory=dict)
    #: cached reformulation plans invalidated by this round's mapping
    #: mutations (0 unless the controller watches a query engine)
    plans_invalidated: int = 0

    @property
    def connected(self) -> bool:
        """Whether the layer looked connected when the round started."""
        return self.ci_before >= 0.0


class SelfOrganizationController:
    """Drives creation and deprecation rounds on a live network."""

    def __init__(
        self,
        network: GridVineNetwork,
        domain: str = "default",
        policy: CreationPolicy | None = None,
        reference_attribute_hint: str | None = None,
        engine=None,
    ) -> None:
        self.network = network
        self.domain = domain
        self.policy = policy if policy is not None else CreationPolicy()
        #: substring selecting "reference" attributes (e.g. "Acc");
        #: None means every object value counts as a reference
        self.reference_attribute_hint = reference_attribute_hint
        #: optional :class:`~repro.engine.core.QueryEngine` whose
        #: plan-cache invalidations each round reports — the mapping
        #: mutations this loop issues flow through the peers'
        #: mapping-event hooks, so affected cached plans are dropped
        #: the moment a mapping is created or deprecated
        self.engine = engine
        self.rounds_run = 0

    # ------------------------------------------------------------------
    # State collection (all through the overlay)
    # ------------------------------------------------------------------

    def _fetch_schemas(
        self, records: list[ConnectivityRecord],
    ) -> tuple[dict[str, Schema], MappingGraph]:
        """Schema definitions for every schema with a connectivity
        record, and the mapping graph (deprecated mappings included),
        from one read of their key spaces."""
        spaces = self.network.schema_spaces(r.schema_name for r in records)
        schemas: dict[str, Schema] = {}
        for record in records:
            for item in spaces[record.schema_name]:
                if isinstance(item, Schema):
                    schemas[item.name] = item
                    break
        return schemas, graph_of_spaces(spaces, include_deprecated=True)

    def _collect_instance_state(
        self, schemas: dict[str, Schema],
    ) -> tuple[dict[str, dict[str, set[str]]], dict[str, set[str]]]:
        """Per-schema value sets and reference sets, from one read of
        every predicate's key space.

        Predicates may share a key, and a key space also holds triples
        indexed there by subject or object: each key space is walked
        once, and a triple's object value counts for its predicate only
        when that predicate was read under that key.
        """
        predicates = {name: schema.predicates()
                      for name, schema in schemas.items()}
        keys = {predicate: term_key(predicate)
                for names in predicates.values() for predicate in names}
        spaces, _ = self.network.call("retrieve_many", list(keys.values()))
        read_under: dict[Key, set[URI]] = {}
        for predicate, key in keys.items():
            read_under.setdefault(key, set()).add(predicate)
        values_of: dict[URI, set[str]] = {predicate: set()
                                          for predicate in keys}
        for key, wanted in read_under.items():
            for item in spaces[key]:
                if isinstance(item, Triple) and item.predicate in wanted:
                    values_of[item.predicate].add(item.object.value)
        value_sets: dict[str, dict[str, set[str]]] = {}
        references: dict[str, set[str]] = {}
        hint = (self.reference_attribute_hint.lower()
                if self.reference_attribute_hint is not None else None)
        for name, schema in schemas.items():
            per_attr: dict[str, set[str]] = {}
            refs: set[str] = set()
            for attribute, predicate in zip(schema.attributes,
                                            predicates[name]):
                values = values_of[predicate]
                per_attr[attribute] = values
                if hint is None or hint in attribute.lower():
                    refs |= values
            value_sets[name] = per_attr
            references[name] = refs
        return value_sets, references

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------

    def step(self) -> RoundReport:
        """One round: check ci, create if fragmented, assess, deprecate."""
        round_index = self.rounds_run
        self.rounds_run += 1
        invalidations_before = (
            self.engine.cache.stats.invalidations
            if self.engine is not None else 0
        )
        records = self.network.connectivity_records(self.domain)
        ci_before = indicator_from_degrees([r.degree_pair for r in records])
        created: list[str] = []
        if ci_before < 0.0:
            schemas, graph = self._fetch_schemas(records)
            value_sets, references = self._collect_instance_state(schemas)
            proposals = propose_mappings(
                schemas, value_sets, references, graph,
                policy=self.policy,
                id_prefix=f"auto:r{round_index}",
            )
            for mapping in proposals:
                # Pure-equivalence mappings are sound in both
                # directions; when the policy allows, insert them
                # bidirectionally ("at the key spaces corresponding to
                # both schemas", §3).
                bidirectional = self.policy.bidirectional and all(
                    c.kind is MappingKind.EQUIVALENCE
                    for c in mapping.correspondences
                )
                self.network.insert_mapping(mapping,
                                            bidirectional=bidirectional)
                created.append(mapping.mapping_id)
            self.network.settle()
        # Quality assessment over the (possibly grown) active graph.
        graph = self.network.mapping_graph(self.domain)
        posteriors = assess_mapping_quality(graph)
        deprecated: list[str] = []
        for mapping in mappings_to_deprecate(graph, posteriors):
            self.network.deprecate_mapping(mapping)
            deprecated.append(mapping.mapping_id)
        if deprecated:
            self.network.settle()
        records = self.network.connectivity_records(self.domain)
        ci_after = indicator_from_degrees([r.degree_pair for r in records])
        plans_invalidated = 0
        if self.engine is not None:
            plans_invalidated = (self.engine.cache.stats.invalidations
                                 - invalidations_before)
        return RoundReport(
            round_index=round_index,
            ci_before=ci_before,
            ci_after=ci_after,
            schemas_seen=len(records),
            created=created,
            deprecated=deprecated,
            posteriors=posteriors,
            plans_invalidated=plans_invalidated,
        )

    def run(self, max_rounds: int = 10) -> list[RoundReport]:
        """Run rounds until connected (ci >= 0) with nothing created
        or deprecated, or until the budget runs out."""
        reports: list[RoundReport] = []
        for _ in range(max_rounds):
            report = self.step()
            reports.append(report)
            if (report.ci_after >= 0.0
                    and not report.created and not report.deprecated):
                break
        return reports
