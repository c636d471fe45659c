"""Scale-out harness: one P-Grid deployment, one driver, two clocks.

The paper's deployment argument (§2.3) is about *scale*: GridVine's
overlay work is logarithmic in network size, so the interesting regime
starts where a single-loop simulation stops being practical.  This
module builds one deterministic deployment — trie assignment, sampled
routing tables, preloaded replica groups, query waves, churn trace —
and one wave driver (:func:`_drive`) runs it on the engine it is given:

- :func:`run_inprocess` picks the single event loop
  (:class:`~repro.simnet.shard.SingleLoopEngine`, the ``shards=1``
  baseline in bench E18);
- :func:`run_sharded` picks the windowed
  :class:`~repro.simnet.shard.ShardedTransport`, with the trie key
  space partitioned into contiguous leaf runs so replica groups and
  prefix-local traffic stay intra-shard.

Neither has wave, tracer, fault-plan or report code of its own, and
every message on either passes the one send/deliver gate
(``simnet/network.py``): the two runs differ by the window barrier and
nothing else.  Everything the workload consumes is derived from the
spec seed and node ids only (per-peer rng streams, per-wave query
draws, per-node churn schedules), never from engine interleaving.

Equal across engines *by construction*: the submissions (same refs,
``op:<ref>`` attribution scopes and trace roots — one ``Shard._issue``),
the gate's accounting, and the report.  Equal only where the workload
allows: the event order.  Within the sharded engine results are
bit-identical across worker modes and repeated runs (the window
protocol fixes the order).  Between engines a peer consumes its private
rng in message-arrival order, which the two clocks interleave
differently — so retrieve workloads are statistically equivalent
(identical successes all-online, close recall under churn), and
mediation workloads are bit-identical in the rng-free regime
(``refs_per_level=1, replication=1``).
"""

from __future__ import annotations

import random
import time
import zlib
from bisect import bisect_right
from dataclasses import dataclass, field

from repro.exec.plans import STRATEGIES
from repro.faultlab.injector import install_plan
from repro.mediation.keys import schema_key, triple_keys
from repro.mediation.network import GridVineNetwork
from repro.mediation.peer import GridVinePeer
from repro.mediation.records import (
    ConnectivityRecord,
    IncomingMappingRecord,
    MappingRecord,
)
from repro.obs.tracer import export_records_jsonl
from repro.pgrid.construction import (
    assign_paths,
    replica_groups,
    sample_routing_tables,
)
from repro.pgrid.peer import PGridPeer
from repro.simnet.churn import exponential_schedule
from repro.simnet.latency import ConstantLatency
from repro.simnet.shard import (
    ShardedTransport,
    SingleLoopEngine,
    partition_paths,
)
from repro.util.keys import Key


@dataclass
class ScaleoutSpec:
    """One scale-out experiment: deployment + workload + engine knobs."""

    num_peers: int = 10_000
    replication: int = 4
    refs_per_level: int = 2
    seed: int = 0
    #: shard count for :func:`run_sharded` (ignored by the baseline)
    num_shards: int = 4
    #: sharded worker mode: ``"inline"`` or ``"process"``
    mode: str = "inline"
    #: constant one-way delay — also the conservative lookahead window
    latency_delay: float = 0.05
    #: distinct stored needles (each replicated to its full group)
    num_keys: int = 1000
    #: retrieve operations per wave / number of waves
    ops_per_wave: int = 200
    num_waves: int = 5
    #: churn scenario: toggle trace over ``duration`` with waves every
    #: ``wave_interval`` (> peer timeout, so waves cannot overlap)
    churn: bool = False
    duration: float = 120.0
    mean_uptime: float = 90.0
    mean_downtime: float = 30.0
    wave_interval: float = 20.0
    #: peer protocol knobs
    timeout: float = 15.0
    max_retries: int = 1
    failover: bool = True
    #: workload kind: ``"retrieve"`` (raw P-Grid lookups) or
    #: ``"mediation"`` (GridVine peers with schemas, mappings and
    #: SearchFor / engine-batch query waves).  For *bit-identical*
    #: cross-engine mediation outcomes use ``refs_per_level=1`` and
    #: ``replication=1``: :meth:`PGridPeer._pick_reference` is the only
    #: rng draw on the query path, and pools of size one make routing
    #: independent of the engines' differing same-window delivery
    #: orders.
    workload: str = "retrieve"
    #: mediation corpus shape (BioDatasetGenerator knobs)
    num_schemas: int = 6
    num_entities: int = 120
    entities_per_schema: int = 30
    #: mediation query knobs: strategy / reformulation depth / result
    #: cap for the per-wave ``SearchFor`` operations
    strategy: str = "iterative"
    query_max_hops: int = 4
    query_limit: int | None = None
    #: per wave, how many extra queries run as ONE engine batch
    #: through ``GridVineNetwork.run_batch`` (0 = no batches)
    batch_queries: int = 0
    #: optional :class:`~repro.faultlab.plan.FaultPlan` installed on the
    #: transport before traffic starts — one injector on the single-loop
    #: engine, per-shard injectors from the same plan on the sharded
    #: engine (see :meth:`ShardedTransport.install_fault_plan` for the
    #: cross-shard semantics).  Plans whose clauses draw rng (drops,
    #: delays) consume it in per-shard order, so their counters are only
    #: comparable across engines statistically; pure time-window clauses
    #: (:class:`~repro.faultlab.plan.Partition`) account identically.
    faults: object | None = None
    #: write a merged causal trace (one ``op:<ref>`` root per submitted
    #: operation plus hop/drop spans) to this JSONL path after the run.
    #: Trace ids follow the controller's global submit order, so traces
    #: are comparable across engines, shard counts and worker modes.
    trace_path: str | None = None

    def __post_init__(self) -> None:
        for name, accepted in (("mode", ("inline", "process")),
                               ("workload", ("retrieve", "mediation")),
                               ("strategy", STRATEGIES)):
            if getattr(self, name) not in accepted:
                raise ValueError(
                    f"ScaleoutSpec.{name} must be one of {accepted}, "
                    f"got {getattr(self, name)!r}")
        for name, least in (("num_peers", 1), ("num_shards", 1),
                            ("num_keys", 1), ("num_waves", 0),
                            ("ops_per_wave", 0)):
            if getattr(self, name) < least:
                raise ValueError(
                    f"ScaleoutSpec.{name} must be >= {least}, "
                    f"got {getattr(self, name)!r}")


@dataclass
class ScaleoutReport:
    """What one engine run produced (plain data, bench-serializable)."""

    engine: str
    num_peers: int
    num_shards: int
    ops_issued: int = 0
    ops_completed: int = 0
    successes: int = 0
    total_hops: int = 0
    total_attempts: int = 0
    #: mediation-workload counters (zero on retrieve workloads)
    rows_returned: int = 0
    reformulations: int = 0
    query_messages: int = 0
    #: injected-fault accounting (empty when no plan is installed)
    faults_by_kind: dict[str, int] = field(default_factory=dict)
    messages_sent: int = 0
    messages_dropped: int = 0
    values_shipped: int = 0
    messages_by_kind: dict[str, int] = field(default_factory=dict)
    drops_by_reason: dict[str, int] = field(default_factory=dict)
    events_processed: int = 0
    virtual_time: float = 0.0
    wall_clock_s: float = 0.0
    peak_rss_kb: int = 0
    per_shard_peak_rss_kb: list[int] = field(default_factory=list)
    #: op ref -> (success, hops, latency, attempts, n_values), the
    #: engine-comparable observable trace
    outcomes: dict[int, tuple] = field(default_factory=dict)

    @property
    def success_rate(self) -> float:
        return self.successes / self.ops_completed if self.ops_completed else 0.0

    @property
    def mean_hops(self) -> float:
        # Retrieve summaries only — mediation summaries are tagged
        # tuples (see ``summarize_query_outcome``) with no hop count.
        wins = [o for o in self.outcomes.values()
                if not isinstance(o[0], str) and o[0]]
        return (sum(o[1] for o in wins) / len(wins)) if wins else 0.0

    def summary(self) -> dict:
        """Plain-dict digest for benchmark recording: simulation counts
        only, so equal runs give equal digests on any host (wall time
        and RSS stay attributes)."""
        return {
            "engine": self.engine,
            "num_peers": self.num_peers,
            "num_shards": self.num_shards,
            "ops_issued": self.ops_issued,
            "ops_completed": self.ops_completed,
            "successes": self.successes,
            "success_rate": round(self.success_rate, 6),
            "mean_hops": round(self.mean_hops, 6),
            "rows_returned": self.rows_returned,
            "reformulations": self.reformulations,
            "query_messages": self.query_messages,
            "faults_by_kind": dict(self.faults_by_kind),
            "messages_sent": self.messages_sent,
            "messages_dropped": self.messages_dropped,
            "drops_by_reason": dict(self.drops_by_reason),
            "events_processed": self.events_processed,
            "virtual_time": round(self.virtual_time, 6),
        }


# ----------------------------------------------------------------------
# Deterministic deployment (shared by both engines)
# ----------------------------------------------------------------------

@dataclass
class MediationDeployment:
    """The GridVine layer of a mediation-workload deployment.

    Pure data derived from the spec seed: the corpus, the ground-truth
    mapping chain (both directions of every edge, exactly what
    ``insert_mapping`` would have published), and the query waves.
    """

    #: the generated corpus's schemas, in chain order
    schemas: list
    #: every mapping record the overlay holds (chain edges, both
    #: directions) — also the engine mirror's backfill
    mappings: list
    #: schema name -> data triples
    triples_by_schema: dict[str, list]
    #: wave index -> list of (origin node id, ConjunctiveQuery)
    query_waves: list[list[tuple[str, object]]]
    #: wave index -> (origin node id, [queries]) engine batch, or None
    batch_waves: list[tuple[str, list] | None]


@dataclass
class Deployment:
    """Everything both engines build identically from the spec."""

    assignment: dict[str, Key]
    tables: dict[str, tuple[tuple[str, ...], tuple[tuple[str, ...], ...]]]
    #: needle key -> stored value
    needles: dict[Key, str]
    #: sorted leaf bits (for responsible-leaf lookup)
    leaf_bits: list[str]
    #: leaf bits -> replica-group member node ids
    groups: dict[str, list[str]]
    #: (time, node_id, online) churn toggles, empty when churn is off
    toggles: list[tuple[float, str, bool]]
    #: wave index -> list of (origin node id, needle key)
    waves: list[list[tuple[str, Key]]]
    #: GridVine corpus + query workload (mediation workloads only)
    mediation: MediationDeployment | None = None


def _responsible_leaf(leaf_bits: list[str], key: Key) -> str:
    """The leaf whose prefix covers ``key`` (leaves partition the space)."""
    index = bisect_right(leaf_bits, key.bits) - 1
    if index < 0 or not key.bits.startswith(leaf_bits[index]):
        raise ValueError(f"no leaf covers key {key.bits[:16]}...")
    return leaf_bits[index]


def build_deployment(spec: ScaleoutSpec) -> Deployment:
    """Build the engine-independent deployment for ``spec``.

    Every random draw comes from a stream keyed by the seed and a
    purpose tag, so the deployment is a pure function of the spec.
    """
    from repro.util.hashing import uniform_hash

    assignment = assign_paths(
        spec.num_peers, replication=spec.replication,
        rng=random.Random(f"{spec.seed}/paths"))
    tables = sample_routing_tables(
        assignment, refs_per_level=spec.refs_per_level,
        rng=random.Random(f"{spec.seed}/tables"))
    needles = {uniform_hash(f"needle-{i}"): f"value-{i}"
               for i in range(spec.num_keys)}
    groups_by_key = replica_groups(assignment)
    groups = {path.bits: sorted(members)
              for path, members in groups_by_key.items()}
    leaf_bits = sorted(groups)
    node_ids = sorted(assignment)
    mediation = None
    waves: list[list[tuple[str, object]]] = []
    if spec.workload == "mediation":
        mediation = _build_mediation(spec, node_ids)
    else:
        needle_keys = list(needles)
        for wave in range(spec.num_waves):
            rng = random.Random(f"{spec.seed}/wave/{wave}")
            waves.append([
                (node_ids[rng.randrange(len(node_ids))],
                 needle_keys[rng.randrange(len(needle_keys))])
                for _ in range(spec.ops_per_wave)
            ])
    toggles = (
        exponential_schedule(node_ids, spec.mean_uptime,
                             spec.mean_downtime, spec.duration,
                             seed=spec.seed)
        if spec.churn else [])
    return Deployment(assignment=assignment, tables=tables,
                      needles=needles, leaf_bits=leaf_bits, groups=groups,
                      toggles=toggles, waves=waves, mediation=mediation)


def _build_mediation(spec: ScaleoutSpec,
                     node_ids: list[str]) -> MediationDeployment:
    """Corpus, mapping chain and query waves for a mediation workload.

    The dataset's schemas are chained with bidirectional ground-truth
    mappings (schema i <-> schema i+1), so iterative reformulation can
    walk the chain in both directions up to ``query_max_hops``.
    """
    from repro.datagen.generator import BioDatasetGenerator
    from repro.datagen.workload import QueryWorkloadGenerator

    dataset = BioDatasetGenerator(
        num_schemas=spec.num_schemas,
        num_entities=spec.num_entities,
        entities_per_schema=spec.entities_per_schema,
        seed=spec.seed,
    ).generate()
    names = [schema.name for schema in dataset.schemas]
    mappings = []
    for source, target in zip(names, names[1:]):
        forward = dataset.ground_truth_mapping(source, target)
        mappings.extend([forward, forward.reversed()])
    workload = QueryWorkloadGenerator(dataset,
                                      seed=f"{spec.seed}/queries")
    query_waves = []
    batch_waves: list[tuple[str, list] | None] = []
    for wave in range(spec.num_waves):
        rng = random.Random(f"{spec.seed}/qwave/{wave}")
        query_waves.append([
            (node_ids[rng.randrange(len(node_ids))], workload.next_query())
            for _ in range(spec.ops_per_wave)
        ])
        if spec.batch_queries > 0:
            batch_waves.append((
                node_ids[rng.randrange(len(node_ids))],
                [workload.next_query() for _ in range(spec.batch_queries)],
            ))
        else:
            batch_waves.append(None)
    return MediationDeployment(
        schemas=list(dataset.schemas), mappings=mappings,
        triples_by_schema=dict(dataset.triples_by_schema),
        query_waves=query_waves, batch_waves=batch_waves)


def _stream_seed(*parts: object) -> int:
    """The seed of a private rng stream keyed by plain values (the
    peer creates the stream on its first draw).

    Seeding with a small int takes a fast path in CPython (string
    seeds are hashed through SHA-512); at 10k peers the difference is
    a tenth of a second of pure setup per engine run.
    """
    return zlib.crc32("/".join(map(str, parts)).encode())


def _make_peer(spec: ScaleoutSpec, deployment: Deployment,
               node_id: str) -> PGridPeer:
    """One peer with its private rng stream and prebuilt tables."""
    peer_class = GridVinePeer if spec.workload == "mediation" else PGridPeer
    peer = peer_class(
        node_id, deployment.assignment[node_id],
        rng=_stream_seed(spec.seed, "peer", node_id),
        timeout=spec.timeout, max_retries=spec.max_retries,
        failover=spec.failover)
    peer.replicas, peer.routing_table = deployment.tables[node_id]
    return peer


def _preload(deployment: Deployment, peers: dict[str, PGridPeer]) -> None:
    """Store every needle directly into its full replica group.

    Both engines preload identically (no update traffic), so recall
    differences between engines can only come from routing behavior.
    """
    for key, value in deployment.needles.items():
        leaf = _responsible_leaf(deployment.leaf_bits, key)
        for node_id in deployment.groups[leaf]:
            peers[node_id].local_insert(key, value)


def _preload_mediation(deployment: Deployment,
                       peers: dict[str, PGridPeer]) -> None:
    """Install the GridVine corpus directly at its responsible leaves.

    Mirrors what ``insert_schema`` / ``insert_triple`` /
    ``insert_mapping`` traffic would have stored, with zero messages on
    either engine — so the query waves start from identical overlay
    state everywhere.  Ordering matters: mapping records land while
    schema definitions are still absent (the connectivity republish
    hook no-ops), and each schema holder's published-connectivity
    cache is pre-set to the final degrees immediately before its
    schema definition lands, so the schema-insert republish compares
    equal and never issues an overlay update.
    """
    med = deployment.mediation
    assert med is not None

    def place(key: Key, value: object, preset: str | None = None) -> None:
        leaf = _responsible_leaf(deployment.leaf_bits, key)
        for node_id in deployment.groups[leaf]:
            peer = peers[node_id]
            if preset is not None:
                peer._published_connectivity[preset] = ConnectivityRecord(
                    preset, *peer._local_degree(preset))
            peer.local_insert(key, value)

    for mapping in med.mappings:
        place(schema_key(mapping.source_schema), MappingRecord(mapping))
        place(schema_key(mapping.target_schema),
              IncomingMappingRecord(mapping))
    for triples in med.triples_by_schema.values():
        for triple in triples:
            for key in triple_keys(triple):
                place(key, triple)
    for schema in med.schemas:
        place(schema_key(schema.name), schema, preset=schema.name)


# ----------------------------------------------------------------------
# Outcome summaries (module-level: process workers pickle by reference)
# ----------------------------------------------------------------------

def _result_rows(outcome) -> tuple:
    """An outcome's result rows as a sorted tuple of string tuples."""
    return tuple(sorted(tuple(str(term) for term in row)
                        for row in outcome.results))


def summarize_query_outcome(outcome) -> tuple:
    """Engine-comparable digest of one ``SearchFor`` outcome.

    Deliberately excludes ``latency`` / ``issued_at``: the sharded
    engine issues ops at window boundaries, so absolute times differ
    legitimately between engines.  The controller appends the exact
    attributed message count, making the stored summary
    ``("q", complete, rows, reformulations, messages)``.
    """
    return ("q", outcome.complete, _result_rows(outcome),
            outcome.reformulations_explored)


def summarize_batch_result(result) -> tuple:
    """Engine-comparable digest of one engine-batch execution."""
    per_query = tuple(summarize_query_outcome(o) for o in result.outcomes)
    return ("b", per_query, result.messages, result.patterns_fetched,
            result.patterns_total, result.scans_issued,
            result.scans_skipped)


# ----------------------------------------------------------------------
# The one wave driver, and the two engines it runs on
# ----------------------------------------------------------------------

def run_inprocess(spec: ScaleoutSpec,
                  deployment: Deployment | None = None) -> ScaleoutReport:
    """Run the deployment on the single event loop."""
    engine = SingleLoopEngine(latency=ConstantLatency(spec.latency_delay),
                              seed=spec.seed)
    return _drive(spec, deployment, engine, "inprocess")


def run_sharded(spec: ScaleoutSpec,
                deployment: Deployment | None = None) -> ScaleoutReport:
    """Run the identical deployment on the windowed sharded transport."""
    engine = ShardedTransport(
        spec.num_shards, latency=ConstantLatency(spec.latency_delay),
        seed=spec.seed, mode=spec.mode)
    return _drive(spec, deployment, engine, f"sharded/{spec.mode}")


def _drive(spec: ScaleoutSpec, deployment: Deployment | None,
           engine: SingleLoopEngine | ShardedTransport,
           label: str) -> ScaleoutReport:
    """Build, attach, run the waves, collect — on whichever ``engine``.

    Written against the engine surface only (see
    :class:`repro.simnet.shard._Engine`).  The two workloads differ in
    three things: how peers are preloaded, which peer method a wave
    entry submits, and how its result is summarised.  Mediation queries
    are attributed submissions, and each wave's engine batch goes
    through :class:`~repro.mediation.network.GridVineNetwork` — one
    attributed ``execute_planned_batch`` submission, run to quiescence
    together with the wave's queries.
    """
    deployment = deployment or build_deployment(spec)
    med = deployment.mediation
    started = time.perf_counter()
    peers = {node_id: _make_peer(spec, deployment, node_id)
             for node_id in sorted(deployment.assignment)}
    if med is None:
        _preload(deployment, peers)
        waves, method, extra = deployment.waves, "retrieve", ()
        summarize = None
    else:
        _preload_mediation(deployment, peers)
        waves, method = med.query_waves, "search_for"
        extra = (spec.strategy, spec.query_max_hops, spec.query_limit)
        summarize = summarize_query_outcome
    owner = partition_paths(deployment.assignment, engine.num_shards)
    for node_id, peer in peers.items():
        engine.add_peer(peer, owner[node_id])
    for at, node_id, online in deployment.toggles:
        engine.set_online_at(at, node_id, online)
    if spec.trace_path is not None:
        engine.install_tracer()
    if spec.faults is not None:
        install_plan(engine, spec.faults)
    batch_engine = None
    if med is not None and spec.batch_queries > 0:
        batch_engine = GridVineNetwork(
            engine, peers, mappings=med.mappings,
        ).create_engine(max_hops=spec.query_max_hops)

    report = ScaleoutReport(engine=label, num_peers=spec.num_peers,
                            num_shards=engine.num_shards)
    with engine:  # forked workers are joined however the waves end
        for wave_index, wave in enumerate(waves):
            if spec.churn:
                engine.run_until(wave_index * spec.wave_interval)
            for origin, target in wave:
                engine.submit(origin, method, target, *extra,
                              summarize=summarize, attribute=med is not None)
                report.ops_issued += 1
            if batch_engine is not None:
                # The facade's one submission takes the next ref — every
                # issued op takes exactly one — and waits for it; the
                # wave's queries run alongside it.
                origin, queries = med.batch_waves[wave_index]
                result = batch_engine.execute_batch(list(queries),
                                                    origin=origin)
                report.outcomes[report.ops_issued] = \
                    summarize_batch_result(result)
                report.ops_issued += 1
            if batch_engine is not None or not spec.churn:
                engine.run_until_quiescent()
        if spec.churn:
            engine.run_until(spec.duration)
        engine.run_until_quiescent()

    if spec.trace_path is not None:
        export_records_jsonl(engine.trace_records(), spec.trace_path)
    # (``result`` already took the batches out of ``completed``)
    for ref, summary in engine.completed.items():
        report.outcomes[ref] = summary if med is None else \
            summary + (engine.attributed_messages(ref),)
    _fill_outcome_counts(report)
    merged = engine.metrics_snapshot()
    for name in ("messages_sent", "messages_dropped", "values_shipped",
                 "messages_by_kind", "drops_by_reason", "faults_by_kind"):
        setattr(report, name, merged[name])
    # Host numbers are per shard, not part of the summed metrics.
    shards = engine.shard_stats()
    report.events_processed = sum(s["events_processed"] for s in shards)
    report.per_shard_peak_rss_kb = [s["peak_rss_kb"] for s in shards]
    report.peak_rss_kb = max(report.per_shard_peak_rss_kb)
    report.virtual_time = engine.now
    report.wall_clock_s = time.perf_counter() - started
    return report


def _fill_outcome_counts(report: ScaleoutReport) -> None:
    report.ops_completed = len(report.outcomes)
    for summary in report.outcomes.values():
        tag = summary[0]
        if tag == "q":
            _, complete, rows, reformulations, messages = summary
            if complete:
                report.successes += 1
            report.rows_returned += len(rows)
            report.reformulations += reformulations
            report.query_messages += messages
        elif tag == "b":
            (_, per_query, messages, _fetched, _total,
             _issued, _skipped) = summary
            if per_query and all(q[1] for q in per_query):
                report.successes += 1
            report.rows_returned += sum(len(q[2]) for q in per_query)
            report.reformulations += sum(q[3] for q in per_query)
            report.query_messages += messages
        else:
            success, hops, _latency, attempts, _n = summary
            if success:
                report.successes += 1
                report.total_hops += hops
            report.total_attempts += attempts
