"""Scripted churn scenarios with ground-truth recall accounting.

A *scenario* is one reproducible composition of everything the
simulator can throw at the mediation layer:

1. build a deployment and load the generated bioinformatic corpus
   (schemas, triples, ground-truth mappings);
2. optionally run self-organization rounds while the overlay is still
   healthy;
3. start :class:`~repro.pgrid.maintenance.MaintenanceProcess` and
   :class:`~repro.simnet.churn.ChurnProcess` as background processes;
4. issue a query workload from a churn-protected origin peer, pacing
   queries in virtual time so outages, repairs and queries genuinely
   interleave;
5. report recall against the generator's ground truth, latency
   percentiles, exact per-query messages (per-operation attribution —
   background traffic is never billed to a query) and failover
   activity.

Everything derives from ``spec.seed``, so a scenario is a fixed point:
the same spec always produces the same report.  Benchmarks compare
specs differing in exactly one knob (E14 flips ``failover``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.datagen.generator import BioDataset, BioDatasetGenerator
from repro.datagen.workload import QueryWorkloadGenerator
from repro.exec.plans import STRATEGIES
from repro.obs.registry import FailoverCounters, MetricsRegistry
from repro.pgrid.maintenance import MaintenanceProcess
from repro.rdf.patterns import ConjunctiveQuery
from repro.simnet.churn import ChurnProcess
from repro.stats.gossip import StatsAntiEntropy
from repro.util.stats import percentile_or_none

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a cycle
    from repro.faultlab.plan import FaultPlan
    from repro.mediation.network import GridVineNetwork

#: what :attr:`ScenarioSpec.strategy` accepts: the facade's strategies
#: plus the plan-caching engine
SCENARIO_STRATEGIES = STRATEGIES + ("engine",)

#: panel item: (query, set of expected ``Schema:Accession`` subjects)
Panel = list[tuple[ConjunctiveQuery, set[str]]]

#: organism needles the recall panel queries from the first schema's
#: vocabulary
NEEDLES = ("Aspergillus", "Saccharomyces", "Escherichia")


@dataclass(frozen=True)
class ScenarioSpec:
    """One scripted scenario, fully determined by its fields."""

    # -- deployment (used by :meth:`ScenarioRunner.from_spec`) ---------
    num_peers: int = 48
    replication: int = 2
    refs_per_level: int = 2
    seed: int = 0
    #: replica-aware retry steering (the E14 A/B knob)
    failover: bool = True
    # -- corpus --------------------------------------------------------
    num_schemas: int = 6
    num_entities: int = 60
    #: self-organization rounds run while the overlay is still healthy
    #: (0 = rely on the pre-inserted ground-truth mapping chain)
    selforg_rounds: int = 0
    # -- background processes ------------------------------------------
    churn: bool = True
    mean_uptime: float = 120.0
    mean_downtime: float = 45.0
    maintenance: bool = True
    maintenance_interval: float = 20.0
    # -- query workload ------------------------------------------------
    #: virtual seconds of churn before the first query
    warmup: float = 60.0
    num_queries: int = 18
    #: virtual seconds between consecutive queries
    query_interval: float = 30.0
    #: ``"local"`` / ``"iterative"`` / ``"recursive"`` / ``"engine"``
    #: / ``"auto"`` (cost-based per-query choice from synopses; the
    #: origin then also runs periodic synopsis anti-entropy pulls,
    #: since piggybacked gossip alone converges slowly under churn)
    strategy: str = "iterative"
    max_hops: int = 8
    #: per-query distinct-result cap pushed into the streaming
    #: pipeline (``None`` = unlimited); a satisfied limit
    #: cooperatively cancels the query's remaining fan-out even while
    #: failover retries are in flight
    limit: int | None = None
    # -- fault injection ----------------------------------------------
    #: deterministic fault schedule applied for the duration of the
    #: run (:class:`~repro.faultlab.plan.FaultPlan`): message drops /
    #: duplicates / jitter / reordering, partitions with scheduled
    #: heals, crash-restarts.  ``None`` (or an empty plan) keeps the
    #: run bit-identical to the pre-fault-lab behaviour.  Composes
    #: with ``churn``: the injector never crashes a node churn took
    #: down and vice versa.
    faults: "FaultPlan | None" = None

    def __post_init__(self) -> None:
        """Reject a malformed script before anything is built."""
        def reject(name: str, accepted: str) -> None:
            raise ValueError(f"ScenarioSpec.{name} must be {accepted}, "
                             f"got {getattr(self, name)!r}")

        if self.strategy not in SCENARIO_STRATEGIES:
            reject("strategy", f"one of {SCENARIO_STRATEGIES}")
        # every schema covers max(5, entities // 5) of the entities
        for name, least in (("num_peers", 1), ("replication", 1),
                            ("refs_per_level", 1), ("num_schemas", 1),
                            ("num_entities", 5), ("selforg_rounds", 0),
                            ("num_queries", 0), ("max_hops", 0),
                            ("warmup", 0)):
            if getattr(self, name) < least:
                reject(name, f">= {least}")
        for name in ("mean_uptime", "mean_downtime", "maintenance_interval",
                     "query_interval"):
            if getattr(self, name) <= 0:
                reject(name, "> 0")
        if self.limit is not None and self.limit < 1:
            reject("limit", "None or >= 1")


@dataclass
class ScenarioReport:
    """What one scenario run measured."""

    spec: ScenarioSpec
    queries_issued: int = 0
    #: queries whose protocol completed (no query-level timeout)
    queries_complete: int = 0
    #: mean per-query recall against ground truth
    recall: float = 0.0
    per_query_recall: list[float] = field(default_factory=list)
    #: latency percentiles; ``None`` only when the scenario issued
    #: zero queries — issued-but-incomplete queries still record
    #: their (timeout) latency, so any run with ``num_queries > 0``
    #: reports floats
    latency_p50: float | None = None
    latency_p90: float | None = None
    latency_p99: float | None = None
    #: messages attributed to the query workload (exact, per-operation)
    query_messages: int = 0
    #: all messages on the network, background traffic included
    total_messages: int = 0
    messages_dropped: int = 0
    #: drop counts by cause (``"offline"`` for churn's silent
    #: offline-destination drops, ``"in_flight"``, ``"fault"``,
    #: ``"partition"``) — run delta, see
    #: :attr:`repro.simnet.metrics.NetworkMetrics.drops_by_reason`
    drops_by_reason: dict = field(default_factory=dict)
    #: injected-fault counts by action (``spec.faults`` runs only)
    faults_injected: dict = field(default_factory=dict)
    failures: int = 0
    recoveries: int = 0
    #: retries that steered away from a dead first hop
    failovers: int = 0
    #: overlay operations that exhausted every retry
    ops_gave_up: int = 0
    # -- streaming statistics (limit pushdown) -------------------------
    #: median virtual seconds from issue to a query's first result
    #: (``None`` when no query returned any row)
    first_result_p50: float | None = None
    #: queries whose result limit was reached (cooperative cancel)
    limit_hits: int = 0
    #: overlay fetches skipped across all queries thanks to early stop
    fetches_skipped: int = 0
    #: result rows received after a query's limit had cancelled it
    rows_after_cancel: int = 0
    #: overlay operations torn down mid-flight by cancellation
    ops_cancelled: int = 0
    #: engine statistics snapshot (``strategy == "engine"`` only)
    engine_stats: dict | None = None
    # -- statistics / optimizer (strategy == "auto") -------------------
    #: synopsis digests the origin knew when the workload ended
    synopses_known: int = 0
    #: anti-entropy pull messages the origin sent
    stats_pulls: int = 0
    #: executed-strategy histogram of the optimizer's auto decisions
    auto_strategies: dict = field(default_factory=dict)
    #: reformulations pruned by expected yield across all queries
    reformulations_pruned: int = 0

    def summary(self) -> list[str]:
        """Human-readable report lines (CLI / bench output)."""

        def _sec(value: float | None) -> str:
            return "n/a" if value is None else f"{value:.2f}s"

        lines = [
            f"queries  : {self.queries_complete}/{self.queries_issued} "
            f"complete, mean recall {self.recall:.3f}",
            f"latency  : p50 {_sec(self.latency_p50)}  "
            f"p90 {_sec(self.latency_p90)}  p99 {_sec(self.latency_p99)} "
            f"(simulated)",
            f"messages : {self.query_messages} attributed to queries, "
            f"{self.total_messages} total on the wire, "
            f"{self.messages_dropped} dropped",
            f"churn    : {self.failures} failures, "
            f"{self.recoveries} recoveries",
            f"failover : {self.failovers} replica failovers, "
            f"{self.ops_gave_up} operations gave up",
        ]
        if self.drops_by_reason:
            breakdown = ", ".join(
                f"{count} {reason}"
                for reason, count in sorted(self.drops_by_reason.items())
            )
            lines.append(f"drops    : {breakdown}")
        if self.faults_injected:
            injected = ", ".join(
                f"{count} {action}"
                for action, count in sorted(self.faults_injected.items())
            )
            lines.append(f"faults   : {injected}")
        if self.spec.limit is not None:
            first = ("n/a" if self.first_result_p50 is None
                     else f"{self.first_result_p50:.2f}s")
            lines.append(
                f"limit    : {self.limit_hits}/{self.queries_issued} "
                f"queries hit limit {self.spec.limit}, first result "
                f"p50 {first}, "
                f"{self.fetches_skipped} fetches skipped, "
                f"{self.ops_cancelled} in-flight ops cancelled, "
                f"{self.rows_after_cancel} late rows discarded"
            )
        if self.spec.strategy == "auto":
            picks = ", ".join(
                f"{count}x {name}"
                for name, count in sorted(self.auto_strategies.items())
            ) or "none"
            lines.append(
                f"optimizer: picks {picks}; "
                f"{self.reformulations_pruned} reformulation(s) pruned; "
                f"origin knew {self.synopses_known} synopsis digest(s) "
                f"({self.stats_pulls} anti-entropy pulls)"
            )
        if self.engine_stats is not None:
            cache = self.engine_stats["cache"]
            lines.append(
                f"engine   : {cache['hits']}/{cache['lookups']} plan-cache "
                f"hits, {self.engine_stats['planner_invocations']} "
                f"planner run(s)"
            )
        return lines


def recall_hits(outcome) -> set[str]:
    """The ``Schema:Accession`` subjects a query outcome recalled.

    Result rows render subjects as bracketed URIs (``<EMBL:X1>``);
    ground-truth sets use the bare ``Schema:Accession`` form — this is
    the one place that strips the brackets, shared by scenario
    reporting, the fault lab's recall invariant and the recall
    benchmarks.
    """
    return {str(row[0]).strip("<>") for row in outcome.results}


def ground_truth_panel(dataset: BioDataset,
                       needles: tuple[str, ...]) -> Panel:
    """Recall panel: semantic queries in the first schema's vocabulary
    with full-corpus ground truth per query.

    A query's truth set contains every ``Schema:Accession`` subject
    whose organism value contains the needle — answers scattered
    across *all* schemas, reachable only through reformulation."""
    workload = QueryWorkloadGenerator(dataset, seed=7)
    panel: Panel = []
    for needle in needles:
        query = workload.concept_query(dataset.schemas[0].name,
                                       "organism", needle)
        truth = {
            f"{schema.name}:{entity.accession}"
            for schema in dataset.schemas
            for entity in dataset.coverage[schema.name]
            if needle in entity.value("organism")
        }
        panel.append((query, truth))
    return panel


class ScenarioRunner:
    """Executes one :class:`ScenarioSpec` against a deployment.

    Parameters
    ----------
    network:
        The deployment to exercise (build one with :meth:`from_spec`
        to get the corpus and recall panel set up automatically).
    panel:
        ``(query, ground-truth subjects)`` pairs; queries are issued
        round-robin.
    spec:
        The scenario script (deployment fields are ignored when the
        network is supplied ready-made).
    domain:
        Mapping domain, needed for the ``"engine"`` strategy's mirror
        backfill.
    """

    def __init__(self, network: "GridVineNetwork", panel: Panel,
                 spec: ScenarioSpec | None = None,
                 domain: str = "default") -> None:
        if not panel:
            raise ValueError("scenario needs a non-empty query panel")
        self.network = network
        self.panel = panel
        self.spec = spec if spec is not None else ScenarioSpec()
        #: the node issuing every query, protected from churn: the
        #: first peer id
        self.origin = network.peer_ids()[0]
        self.domain = domain
        self.dataset: BioDataset | None = None
        #: the engine the last ``strategy == "engine"`` run executed
        #: through (``None`` otherwise) — exposed so post-run audits
        #: (the fault lab's cache-coherence invariant) can inspect the
        #: very cache the workload exercised
        self.engine = None

    # ------------------------------------------------------------------
    # Construction from a spec
    # ------------------------------------------------------------------

    @classmethod
    def from_spec(cls, spec: ScenarioSpec) -> "ScenarioRunner":
        """Build corpus + deployment + recall panel from ``spec``.

        Ground-truth mappings form a bidirectional chain
        ``S0 <-> S1 <-> ... `` (unless ``selforg_rounds`` asks the
        self-organization loop to densify a sparse pairing instead),
        so a healthy network can answer the whole panel and any recall
        shortfall is attributable to churn.
        """
        from repro.mediation.network import GridVineNetwork

        dataset = BioDatasetGenerator(
            num_schemas=spec.num_schemas,
            num_entities=spec.num_entities,
            entities_per_schema=max(5, spec.num_entities // 5),
            seed=spec.seed,
        ).generate()
        network = GridVineNetwork.build(
            num_peers=spec.num_peers,
            replication=spec.replication,
            refs_per_level=spec.refs_per_level,
            seed=spec.seed,
            failover=spec.failover,
        )
        for schema in dataset.schemas:
            network.insert_schema(schema)
        network.insert_triples(dataset.triples)
        names = [s.name for s in dataset.schemas]
        if spec.selforg_rounds > 0:
            # Sparse pairing; self-organization will densify it.
            for i in range(0, len(names) - 1, 2):
                network.insert_mapping(
                    dataset.ground_truth_mapping(names[i], names[i + 1]))
        else:
            for a, b in zip(names, names[1:]):
                network.insert_mapping(dataset.ground_truth_mapping(a, b),
                                       bidirectional=True)
        network.settle()
        runner = cls(network, ground_truth_panel(dataset, NEEDLES),
                     spec, domain=dataset.domain)
        runner.dataset = dataset
        return runner

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def self_organize(self, rounds: int) -> list:
        """Run up to ``rounds`` self-organization rounds (three
        mappings a round) on the deployment; returns their reports."""
        from repro.selforg import CreationPolicy, SelfOrganizationController

        return SelfOrganizationController(
            self.network, domain=self.domain,
            policy=CreationPolicy(mappings_per_round=3),
        ).run(max_rounds=rounds)

    def _failover_snapshot(self) -> dict:
        """Every peer's :class:`FailoverCounters`, summed."""
        return FailoverCounters.total(
            peer.failover_stats
            for peer in self.network.peers.values()).snapshot()

    def run(self) -> ScenarioReport:
        """Run the scripted scenario; returns its report.

        Time, the fault plan and the network counters go through the
        deployment's engine surface (``run_until``,
        ``install_fault_plan``, ``metrics_snapshot``).  The three
        background processes stay bound to the single loop: churn,
        maintenance and anti-entropy each draw from one shared
        ``random.Random`` in event order, so replaying them per shard
        would change every pinned count.
        """
        spec = self.spec
        net = self.network
        sim = net.engine
        # Baselines, so repeated runs on the same deployment report
        # per-run deltas instead of lifetime cumulative counters.
        metrics_before = sim.metrics_snapshot()
        failover_before = self._failover_snapshot()
        self.self_organize(spec.selforg_rounds)
        engine = None
        if spec.strategy == "engine":
            engine = net.create_engine(domain=self.domain,
                                       max_hops=spec.max_hops)
            self.engine = engine
        has_faults = (spec.faults is not None
                      and len(spec.faults.faults) > 0)
        maintenance = None
        if spec.maintenance:
            maintenance = MaintenanceProcess(
                net.peers,
                interval=spec.maintenance_interval,
                # Repair toward the deployment's own redundancy target
                # (spec.refs_per_level only shapes from_spec builds).
                refs_per_level=getattr(net, "refs_per_level",
                                       spec.refs_per_level),
                rng=random.Random(spec.seed + 101),
                # Partitions can empty whole routing levels; only the
                # thin-level repair mode can refill those, so faulted
                # runs enable it (fault-free runs keep the historical
                # bit-identical accounting).
                repair_thin_levels=has_faults,
            )
            maintenance.start()
        churn = None
        if spec.churn:
            churn = ChurnProcess(
                net.network,
                mean_uptime=spec.mean_uptime,
                mean_downtime=spec.mean_downtime,
                rng=random.Random(spec.seed + 202),
                protected={self.origin},
            )
            churn.start()
        anti_entropy = None
        if spec.strategy == "auto":
            # Piggybacked gossip alone converges slowly while peers
            # blink in and out; the origin pulls digests directly so
            # its optimizer keeps estimating through the churn.
            anti_entropy = StatsAntiEntropy(
                net.peers, self.origin, rng=random.Random(spec.seed + 303))
            anti_entropy.start()
        injector = None
        if has_faults:
            # One injector per transport of the engine (on_send veto +
            # dispatch), all driven by the same plan.
            injector = sim.install_fault_plan(spec.faults)
        sim.run_until(sim.now + spec.warmup)

        report = ScenarioReport(spec=spec)
        latencies: list[float] = []
        first_result_latencies: list[float] = []
        for index in range(spec.num_queries):
            query, truth = self.panel[index % len(self.panel)]
            if engine is not None:
                outcome = engine.search_for(query, origin=self.origin,
                                            limit=spec.limit)
            else:
                outcome = net.search_for(query, strategy=spec.strategy,
                                         max_hops=spec.max_hops,
                                         origin=self.origin,
                                         limit=spec.limit)
            report.queries_issued += 1
            if outcome.complete:
                report.queries_complete += 1
            hits = recall_hits(outcome)
            if truth:
                # Under a limit a query *by design* returns at most
                # ``limit`` rows, so recall is measured against what
                # it was asked for, not the full truth set — otherwise
                # every limited scenario would report collapsed recall
                # on a perfectly healthy network.
                denominator = (len(truth) if spec.limit is None
                               else min(len(truth), spec.limit))
                report.per_query_recall.append(len(hits & truth)
                                               / denominator)
            latencies.append(outcome.latency)
            report.query_messages += outcome.messages
            if outcome.first_result_latency is not None:
                first_result_latencies.append(
                    outcome.first_result_latency)
            if outcome.limit_hit:
                report.limit_hits += 1
            report.fetches_skipped += outcome.fetches_skipped
            report.rows_after_cancel += outcome.rows_after_cancel
            if outcome.decision is not None:
                executed = outcome.decision.strategy
                report.auto_strategies[executed] = (
                    report.auto_strategies.get(executed, 0) + 1)
                report.reformulations_pruned += (
                    outcome.decision.reformulations_pruned)
            sim.run_until(sim.now + spec.query_interval)
        if injector is not None:
            # Uninstalling heals everything the plan still holds
            # broken (releases reordered messages, restarts
            # injector-crashed nodes), so the post-run accounting and
            # any caller-side convergence checks see a fault-free net.
            injector.uninstall()
            report.faults_injected = dict(injector.injected)
        if churn is not None:
            churn.stop()
        if maintenance is not None:
            maintenance.stop()
        if anti_entropy is not None:
            anti_entropy.stop()
            report.stats_pulls = anti_entropy.pulls_sent
        report.synopses_known = len(net.peers[self.origin].synopses)

        if report.per_query_recall:
            report.recall = (sum(report.per_query_recall)
                             / len(report.per_query_recall))
        report.latency_p50 = percentile_or_none(latencies, 50)
        report.latency_p90 = percentile_or_none(latencies, 90)
        report.latency_p99 = percentile_or_none(latencies, 99)
        report.first_result_p50 = percentile_or_none(
            first_result_latencies, 50)
        delta = MetricsRegistry.diff(metrics_before, sim.metrics_snapshot())
        report.total_messages = delta.get("messages_sent", 0)
        report.messages_dropped = delta.get("messages_dropped", 0)
        report.drops_by_reason = dict(
            sorted(delta.get("drops_by_reason", {}).items()))
        if churn is not None:
            report.failures = churn.failures
            report.recoveries = churn.recoveries
            churn.assert_consistent()
        failover = MetricsRegistry.diff(failover_before,
                                        self._failover_snapshot())
        report.failovers = failover.get("failovers", 0)
        report.ops_gave_up = failover.get("gave_up", 0)
        report.ops_cancelled = failover.get("cancelled", 0)
        if engine is not None:
            report.engine_stats = engine.stats.snapshot()
        return report
