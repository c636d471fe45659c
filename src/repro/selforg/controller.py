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
overlay (``Retrieve``); nothing is read out-of-band: each fetch is an
attributed peer operation (:meth:`GridVineNetwork.call
<repro.pgrid.overlay.PGridOverlay.call>`) from an origin drawn from
the harness rng, so a round runs on whichever engine the network does
and leaves one ``op:<ref>`` trace per fetch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.connectivity.indicator import indicator_from_degrees
from repro.mapping.model import MappingKind
from repro.mediation.keys import term_key
from repro.mediation.network import GridVineNetwork
from repro.rdf.triples import Triple
from repro.schema.model import Schema
from repro.selforg.creator import CreationPolicy, propose_mappings
from repro.selforg.deprecation import (
    DeprecationConfig,
    assess_mapping_quality,
    mappings_to_deprecate,
)


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
        deprecation: DeprecationConfig | None = None,
        reference_attribute_hint: str | None = None,
        engine=None,
    ) -> None:
        self.network = network
        self.domain = domain
        self.policy = policy if policy is not None else CreationPolicy()
        self.deprecation = (deprecation if deprecation is not None
                            else DeprecationConfig())
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

    def _fetch_schemas(self) -> dict[str, Schema]:
        """Schema definitions for every schema with a connectivity record."""
        schemas: dict[str, Schema] = {}
        for record in self.network.connectivity_records(self.domain):
            space, _ = self.network.call("fetch_schema_space",
                                         record.schema_name)
            for item in space:
                if isinstance(item, Schema):
                    schemas[item.name] = item
                    break
        return schemas

    def _fetch_predicate_values(self, schema: Schema,
                                attribute: str) -> set[str]:
        """Object values observed under one predicate, via the overlay."""
        predicate = schema.predicate(attribute)
        result, _ = self.network.call("retrieve", term_key(predicate))
        values: set[str] = set()
        for item in result.values or ():
            if isinstance(item, Triple) and item.predicate == predicate:
                values.add(item.object.value)
        return values

    def _collect_instance_state(
        self, schemas: dict[str, Schema],
    ) -> tuple[dict[str, dict[str, set[str]]], dict[str, set[str]]]:
        """Per-schema value sets and reference sets."""
        value_sets: dict[str, dict[str, set[str]]] = {}
        references: dict[str, set[str]] = {}
        hint = self.reference_attribute_hint
        for name, schema in schemas.items():
            per_attr: dict[str, set[str]] = {}
            refs: set[str] = set()
            for attribute in schema.attributes:
                values = self._fetch_predicate_values(schema, attribute)
                per_attr[attribute] = values
                if hint is None or hint.lower() in attribute.lower():
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
            schemas = self._fetch_schemas()
            value_sets, references = self._collect_instance_state(schemas)
            graph = self.network.mapping_graph(
                self.domain, include_deprecated=True
            )
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
        posteriors = assess_mapping_quality(graph, self.deprecation)
        deprecated: list[str] = []
        for mapping in mappings_to_deprecate(graph, self.deprecation,
                                             posteriors):
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

    def run(self, max_rounds: int = 10,
            stop_when_connected: bool = True) -> list[RoundReport]:
        """Run rounds until connected (ci >= 0) or the budget runs out."""
        reports: list[RoundReport] = []
        for _ in range(max_rounds):
            report = self.step()
            reports.append(report)
            if (stop_when_connected and report.ci_after >= 0.0
                    and not report.created and not report.deprecated):
                break
        return reports
