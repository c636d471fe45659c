"""The eight workloads: what they build, run, and check.

Each workload derives every input from the seed it is given (all but
``churn``, which replays one pinned scenario), drives only the public
entry points listed in :mod:`perfbench.api`, and checks its outputs
against ground truth kept by the data generator.  All of
them are closed loops with one client: the next op is issued when the
previous one returned.

``WORKLOADS`` is ordered as in ``BENCHMARK.json``; ``README.md`` says
why each exists and which layers it is expected to load.
"""

from __future__ import annotations

import dataclasses
import random
import time
from types import SimpleNamespace
from typing import Any, Callable, Iterable, NamedTuple

from perfbench.api import (
    BioDatasetGenerator,
    ConjunctiveQuery,
    CreationPolicy,
    FaultPlan,
    GridVineNetwork,
    LogNormalWANLatency,
    MessageDrop,
    QueryWorkloadGenerator,
    ScaleoutSpec,
    ScenarioRunner,
    ScenarioSpec,
    SelfOrganizationController,
    TriplePattern,
    Variable,
    build_deployment,
    install_plan,
    recall_hits,
    run_inprocess,
    run_sharded,
)
from perfbench.calibrate import spin
from perfbench.harness import SLICE_S, Check, RunResult, timed_rep

#: bench E2's calibrated wide-area model (the paper's §2.3 deployment)
WAN_LATENCY = dict(median_ms=100.0, sigma=0.9, jitter_ms=10.0,
                   straggler_prob=0.15, straggler_ms=3000.0)

#: optional concepts per generated schema (on top of the two core
#: ones).  Pinned to the middle of the generator's default 4..8 range so
#: every seed yields a corpus of the same size — which concepts, which
#: attribute spellings and which entities is what the seed varies.
CONCEPTS_PER_SCHEMA = (6, 6)

X = Variable("x")
Y = Variable("y")


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------

def generate_corpus(state: SimpleNamespace, seed: int, schemas: int,
                    entities: int, per_schema: int) -> Any:
    """Generate the corpus, keeping its host time for ``datagen.*``."""
    started = time.perf_counter()
    dataset = BioDatasetGenerator(
        num_schemas=schemas, num_entities=entities,
        entities_per_schema=per_schema,
        concepts_per_schema=CONCEPTS_PER_SCHEMA, seed=seed,
    ).generate()
    state.datagen_s = time.perf_counter() - started
    state.dataset = dataset
    return dataset


def load_corpus(net: Any, dataset: Any) -> None:
    """Publish every schema and triple of ``dataset`` in one go."""
    for schema in dataset.schemas:
        net.insert_schema(schema)
    net.insert_triples(dataset.triples)


def genera(dataset: Any) -> list[str]:
    """Distinct organism genera of the corpus (query needles)."""
    return sorted({entity.value("organism").split()[0]
                   for entity in dataset.entities})


def organism_truth(dataset: Any, needle: str) -> set[str]:
    """Every ``Schema:Accession`` whose organism contains ``needle`` —
    the full-corpus answer a perfectly connected network would give."""
    return {
        f"{schema.name}:{entity.accession}"
        for schema in dataset.schemas
        for entity in dataset.coverage[schema.name]
        if needle in entity.value("organism")
    }


def cached(state: SimpleNamespace, name: str, build: Callable[[], Any]) -> Any:
    """Ground truth the checks need, built on first use — in a check,
    so outside every timed region — and kept on the deployment."""
    if not hasattr(state, name):
        setattr(state, name, build())
    return getattr(state, name)


def semantic_check(results: Iterable[tuple[Any, set[str]]]) -> Check:
    """Rows must lie inside ground truth; recall is hits / expected."""
    check = Check()
    hits = expected = 0
    for outcome, truth in results:
        if outcome is None:
            continue  # already counted as failed by the driver
        found = recall_hits(outcome)
        if not outcome.complete or not found <= truth:
            check.failed += 1
            if len(check.errors) < 5:
                check.errors.append(
                    f"{outcome.query}: complete={outcome.complete}, "
                    f"{len(found - truth)} row(s) outside ground truth")
        hits += len(found & truth)
        expected += len(truth)
    check.recall = hits / expected if expected else 1.0
    return check


class Driven(NamedTuple):
    """What :meth:`Workload.drive` measured."""

    wall_s: float
    times: list[float]
    results: list[Any]
    errors: list[str]
    spins: list[tuple[int, float]]


class Workload:
    """Base class: sizes, the op driver, and the default check."""

    name = ""
    #: rebuild the deployment for every repetition (it is mutated)
    fresh = False
    #: builds per run when the deployment is shared by all repetitions
    #: (more than one only where a build is cheap next to the window)
    setup_reps = 1
    full: dict[str, Any] = {}
    smoke: dict[str, Any] = {}

    def __init__(self, smoke: bool = False) -> None:
        self.size = SimpleNamespace(**(self.smoke if smoke else self.full))
        #: set by the traced run so spans carry the op they belong to
        self.recorder: Any = None

    def drive(self, ops: Iterable[Any], call: Callable[[Any], Any],
              finish: Callable[[], Any] | None = None) -> "Driven":
        """Issue ``call(op)`` for each op, one after the other.

        An op that raises yields ``None`` and an error line instead of
        ending the run — it is a failed op, counted as such.  Every
        :data:`~perfbench.harness.SLICE_S` seconds of work a calibration
        spin is taken between two ops (its time is left out of the
        wall).  ``finish`` runs after the last op, inside the wall.
        """
        clock = time.perf_counter
        recorder = self.recorder
        times: list[float] = []
        results: list[Any] = []
        errors: list[str] = []
        spins: list[tuple[int, float]] = []
        spinning = 0.0
        started = slice_started = clock()
        for index, op in enumerate(ops):
            if recorder is not None:
                recorder.op = index
            op_started = clock()
            try:
                results.append(call(op))
            except Exception as exc:  # noqa: BLE001 - counted, reported
                results.append(None)
                errors.append(f"op {index} raised {exc!r}")
            now = clock()
            times.append(now - op_started)
            if now - slice_started >= SLICE_S:
                spins.append((len(times), spin()))
                slice_started = clock()
                spinning += slice_started - now
        if finish is not None:
            finish()
        return Driven(clock() - started - spinning, times, results, errors,
                      spins)

    def setup(self, seed: int) -> SimpleNamespace:
        raise NotImplementedError

    def run(self, state: SimpleNamespace) -> RunResult:
        raise NotImplementedError

    def check(self, state: SimpleNamespace, result: RunResult) -> Check:
        raise NotImplementedError

    def ratio_probe(self, state: SimpleNamespace) -> dict[str, float]:
        """Traced runs only: two more repetitions on the (by now warm)
        deployment, the second under one changed condition; reports the
        time ratio (default: none)."""
        return {}


def measured(driven: Driven, **fields: Any) -> RunResult:
    """A :class:`RunResult` timed by :meth:`Workload.drive`."""
    return RunResult(wall_s=driven.wall_s, op_times=driven.times,
                     spins=driven.spins, **fields)


def network_deltas(net: Any) -> Callable[[], tuple[int, int]]:
    """Returns a function giving (messages sent, events processed)
    since this call."""
    metrics = net.network.metrics
    loop = net.loop
    sent, events = metrics.messages_sent, loop.events_processed
    return lambda: (metrics.messages_sent - sent,
                    loop.events_processed - events)


def query_counters(outcomes: list) -> dict[str, float]:
    """Per-query averages read off ``QueryOutcome`` fields."""
    done = [o for o in outcomes if o is not None]
    count = max(1, len(done))
    return {
        "reformulation.per_query":
            sum(o.reformulations_explored for o in done) / count,
        "exec.fetches_per_query":
            sum(o.fetches_issued for o in done) / count,
        "exec.rows_per_query": sum(len(o.results) for o in done) / count,
    }


def engine_counts(engine: Any) -> tuple[int, ...]:
    """The ``EngineStats`` counts the engine layer metrics are built on."""
    stats = engine.stats
    return (stats.cache.hits, stats.cache.lookups,
            stats.planner_invocations, stats.patterns_total,
            stats.patterns_fetched, stats.cache.invalidations)


def engine_counters(engine: Any, before: tuple[int, ...]) -> dict[str, float]:
    """Engine layer metrics over the interval since ``before``."""
    hits, lookups, planned, patterns, fetched, invalidated = (
        now - then for now, then in zip(engine_counts(engine), before))
    return {
        "engine.cache_hit_rate": hits / max(1, lookups),
        "engine.planner_invocations": planned,
        "engine.dedup_rate": 1.0 - fetched / max(1, patterns),
        "engine.plans_invalidated": invalidated,
    }


# ----------------------------------------------------------------------
# 1. publish
# ----------------------------------------------------------------------

class Publish(Workload):
    """Upload a paper-shaped corpus source by source."""

    name = "publish"
    fresh = True
    full = dict(peers=340, schemas=50, entities=330, per_schema=22,
                readback=200)
    smoke = dict(peers=40, schemas=6, entities=60, per_schema=8,
                 readback=30)

    def setup(self, seed: int) -> SimpleNamespace:
        size = self.size
        state = SimpleNamespace(seed=seed)
        generate_corpus(state, seed, size.schemas, size.entities,
                        size.per_schema)
        state.net = GridVineNetwork.build(
            num_peers=size.peers, replication=2, seed=seed)
        return state

    def run(self, state: SimpleNamespace) -> RunResult:
        net, dataset = state.net, state.dataset
        names = [schema.name for schema in dataset.schemas]
        loop = net.loop
        deltas = network_deltas(net)

        def upload(index: int) -> float:
            issued = loop.now
            schema = dataset.schemas[index]
            net.insert_schema(schema)
            net.insert_triples(dataset.triples_by_schema[schema.name])
            if index:
                net.insert_mapping(dataset.ground_truth_mapping(
                    names[index], names[index - 1]))
            return loop.now - issued

        driven = self.drive(range(len(names)), upload, finish=net.settle)
        messages, events = deltas()
        return measured(
            driven, ops=len(names),
            sim_msgs=messages, messages=messages, events=events,
            sim_latencies=[lat for lat in driven.results if lat is not None],
            failed=len(driven.errors), triples=len(dataset.triples),
            payload=driven.errors,
        )

    def check(self, state: SimpleNamespace, result: RunResult) -> Check:
        """A seeded sample of uploaded triples must read back."""
        net, dataset = state.net, state.dataset
        check = Check(errors=list(result.payload))
        rng = random.Random(f"{state.seed}/readback")
        triples = dataset.triples
        sample = rng.sample(triples, min(self.size.readback, len(triples)))
        origins = net.peer_ids()
        missing_sources = set()
        found = 0
        for triple in sample:
            query = ConjunctiveQuery(
                [TriplePattern(triple.subject, triple.predicate, X)], [X])
            outcome = net.search_for(query, strategy="local",
                                     origin=rng.choice(origins))
            if (triple.object,) in outcome.results:
                found += 1
            else:
                missing_sources.add(str(triple.subject).split(":")[0])
                if len(check.errors) < 5:
                    check.errors.append(f"{triple} did not read back")
        check.failed = len(missing_sources)
        check.recall = found / len(sample)
        return check


# ----------------------------------------------------------------------
# 2. lookup
# ----------------------------------------------------------------------

def pattern_truth(pattern: Any, triples: list) -> set[tuple]:
    """Rows a single-pattern query must return, by brute force over the
    generated triples of its predicate (independent of the store)."""
    rows = set()
    if isinstance(pattern.subject, Variable):
        wanted = pattern.object.value
        like = len(wanted) >= 2 and wanted[0] == "%" and wanted[-1] == "%"
        for triple in triples:
            value = triple.object.value
            if (wanted[1:-1] in value) if like else (value == wanted):
                rows.add((triple.subject,))
    else:
        for triple in triples:
            if triple.subject == pattern.subject:
                rows.add((triple.object,))
    return rows


class Lookup(Workload):
    """The paper's §2.3 measurement: single-pattern queries, no
    reformulation, wide-area latency."""

    name = "lookup"
    full = dict(peers=340, schemas=50, entities=330, per_schema=22,
                queries=2000)
    smoke = dict(peers=40, schemas=6, entities=60, per_schema=8,
                 queries=150)

    def setup(self, seed: int) -> SimpleNamespace:
        size = self.size
        state = SimpleNamespace(seed=seed)
        dataset = generate_corpus(state, seed, size.schemas, size.entities,
                                  size.per_schema)
        net = state.net = GridVineNetwork.build(
            num_peers=size.peers, replication=2, seed=seed,
            latency=LogNormalWANLatency(**WAN_LATENCY))
        load_corpus(net, dataset)
        net.settle()
        queries = QueryWorkloadGenerator(dataset, seed=seed).queries(
            size.queries)
        rng = random.Random(f"{seed}/origins")
        peer_ids = net.peer_ids()
        state.ops = [(query, rng.choice(peer_ids)) for query in queries]
        return state

    def run(self, state: SimpleNamespace) -> RunResult:
        net = state.net
        search = net.search_for
        deltas = network_deltas(net)
        driven = self.drive(
            state.ops,
            lambda op: search(op[0], strategy="local", origin=op[1]))
        messages, events = deltas()
        outcomes = driven.results
        return measured(
            driven, ops=len(outcomes),
            sim_msgs=messages, messages=messages, events=events,
            sim_latencies=[o.latency for o in outcomes if o is not None],
            failed=len(driven.errors), counters=query_counters(outcomes),
            payload=(outcomes, driven.errors),
        )

    def check(self, state: SimpleNamespace, result: RunResult) -> Check:
        """Every query is satisfiable: it must return at least one row,
        and only rows brute force finds in the generated corpus."""
        outcomes, errors = result.payload
        check = Check(errors=list(errors))

        def index() -> dict:
            by_predicate: dict = {}
            for triple in state.dataset.triples:
                by_predicate.setdefault(triple.predicate, []).append(triple)
            return by_predicate

        by_predicate = cached(state, "by_predicate", index)
        hits = expected = 0
        for (query, _origin), outcome in zip(state.ops, outcomes):
            if outcome is None:
                continue
            pattern = query.patterns[0]
            truth = pattern_truth(pattern, by_predicate[pattern.predicate])
            rows = outcome.results
            if not rows or not rows <= truth or not outcome.complete:
                check.failed += 1
                if len(check.errors) < 5:
                    check.errors.append(
                        f"{query}: {len(rows)} row(s), "
                        f"{len(rows - truth)} outside ground truth")
            hits += len(rows & truth)
            expected += len(truth)
        check.recall = hits / expected
        return check

    def ratio_probe(self, state: SimpleNamespace) -> dict[str, float]:
        """The pay-for-what-you-use contract of the fault hooks: the
        same repetition with a plan installed that can never fire."""
        plain = timed_rep(self, state)
        idle_plan = FaultPlan(seed=state.seed, faults=(
            MessageDrop(kinds=("perfbench-kind-never-sent",)),))
        installed = install_plan(state.net.network, idle_plan)
        try:
            faulted = timed_rep(self, state)
        finally:
            installed.uninstall()
        return {"faultlab.idle_injector_ratio":
                faulted.timed.cal_s / plain.timed.cal_s}


# ----------------------------------------------------------------------
# 3. reformulate  /  4. engine_batch  (one deployment shape)
# ----------------------------------------------------------------------

def mediation_deployment(state: SimpleNamespace, seed: int,
                         size: SimpleNamespace) -> None:
    """Corpus + bidirectional ground-truth ring + seeded chords."""
    dataset = generate_corpus(state, seed, size.schemas, size.entities,
                              size.per_schema)
    net = state.net = GridVineNetwork.build(
        num_peers=size.peers, replication=2, seed=seed)
    load_corpus(net, dataset)
    names = state.names = [schema.name for schema in dataset.schemas]
    count = len(names)
    for index, name in enumerate(names):
        net.insert_mapping(
            dataset.ground_truth_mapping(name, names[(index + 1) % count]),
            bidirectional=True)
    # One outgoing chord from every other schema, jumping 3, 4, 5, ...
    # schemas ahead: the seed decides which schema gets which jump, but
    # every seed has the same set of jumps, so the number of schemas
    # within ``max_hops`` (and with it the work per query) varies little.
    jumps = [3 + chord % (count - 5) for chord in range(size.chords)]
    random.Random(f"{seed}/chords").shuffle(jumps)
    for chord, jump in enumerate(jumps):
        source = names[(2 * chord) % count]
        target = names[(2 * chord + jump) % count]
        net.insert_mapping(dataset.ground_truth_mapping(
            source, target, mapping_id=f"chord:{source}->{target}"))
    net.settle()


def concept_shapes(state: SimpleNamespace, seed: int,
                   count: int) -> list[tuple[Any, str, str]]:
    """``count`` distinct ``(query, schema, needle)`` organism queries,
    spread evenly over schemas and genera."""
    dataset = state.dataset
    workload = QueryWorkloadGenerator(dataset, seed=seed)
    rng = random.Random(f"{seed}/shapes")
    schemas = list(state.names)
    needles = genera(dataset)
    rng.shuffle(schemas)
    rng.shuffle(needles)
    if count > len(schemas) * len(needles):
        raise ValueError(f"only {len(schemas) * len(needles)} distinct shapes")
    shapes = []
    seen: set[tuple[str, str]] = set()
    offset = 0
    for index in range(count):
        schema = schemas[index % len(schemas)]
        while (schema, needles[(index + offset) % len(needles)]) in seen:
            offset += 1
        needle = needles[(index + offset) % len(needles)]
        seen.add((schema, needle))
        shapes.append((workload.concept_query(schema, "organism", needle),
                       schema, needle))
    return shapes


class Reformulate(Workload):
    """Uncached semantic mediation: iterative, recursive and join."""

    name = "reformulate"
    full = dict(peers=200, schemas=20, entities=300, per_schema=40,
                chords=10, shapes=40, max_hops=4)
    smoke = dict(peers=40, schemas=6, entities=60, per_schema=10,
                 chords=2, shapes=6, max_hops=4)

    def setup(self, seed: int) -> SimpleNamespace:
        size = self.size
        state = SimpleNamespace(seed=seed)
        mediation_deployment(state, seed, size)
        dataset = state.dataset
        rng = random.Random(f"{seed}/origins")
        peer_ids = state.net.peer_ids()
        ops = []
        for query, schema_name, needle in concept_shapes(state, seed,
                                                         size.shapes):
            origin = rng.choice(peer_ids)
            schema = dataset.schema(schema_name)
            organism = query.patterns[0]
            accession = TriplePattern(X, schema.predicate(
                dataset.concept_attribute(schema_name, "accession")), Y)
            join = ConjunctiveQuery([organism, accession], [X, Y])
            ops.append(("iterative", query, "iterative", origin, needle))
            ops.append(("recursive", query, "recursive", origin, needle))
            ops.append(("join", join, "iterative", origin, needle))
        state.ops = ops
        return state

    def run(self, state: SimpleNamespace) -> RunResult:
        net = state.net
        search = net.search_for
        hops = self.size.max_hops
        deltas = network_deltas(net)
        driven = self.drive(
            state.ops,
            lambda op: search(op[1], strategy=op[2], max_hops=hops,
                              origin=op[3]))
        messages, events = deltas()
        outcomes = driven.results
        kind_times: dict[str, list[float]] = {}
        for op, seconds in zip(state.ops, driven.times):
            kind_times.setdefault(op[0], []).append(seconds)
        return measured(
            driven, ops=len(outcomes),
            sim_msgs=messages, messages=messages, events=events,
            sim_latencies=[o.latency for o in outcomes if o is not None],
            failed=len(driven.errors), counters=query_counters(outcomes),
            kind_times=kind_times, payload=(outcomes, driven.errors),
        )

    def check(self, state: SimpleNamespace, result: RunResult) -> Check:
        outcomes, errors = result.payload
        truths: dict[str, set[str]] = {}
        pairs = []
        for op, outcome in zip(state.ops, outcomes):
            needle = op[4]
            if needle not in truths:
                truths[needle] = organism_truth(state.dataset, needle)
            pairs.append((outcome, truths[needle]))
        check = semantic_check(pairs)
        check.errors[:0] = errors
        # a join row pairs each subject with its own accession number
        for op, outcome in zip(state.ops, outcomes):
            if op[0] != "join" or outcome is None:
                continue
            if any(str(row[0]).strip("<>").split(":")[1] != row[1].value
                   for row in outcome.results):
                check.failed += 1
                check.errors.append(f"{outcome.query}: mismatched join row")
        return check

    def ratio_probe(self, state: SimpleNamespace) -> dict[str, float]:
        """What the program's own causal tracer costs when it is on."""
        plain = timed_rep(self, state)
        state.net.install_tracer(seed=state.seed)
        tracing = timed_rep(self, state)
        return {"obs.tracer_overhead_ratio":
                tracing.timed.cal_s / plain.timed.cal_s}


class EngineBatch(Workload):
    """Steady repeated traffic through the plan-caching engine."""

    name = "engine_batch"
    full = dict(peers=200, schemas=20, entities=300, per_schema=40,
                chords=10, shapes=40, queries=240, batch=16, max_hops=4)
    smoke = dict(peers=40, schemas=6, entities=60, per_schema=10,
                 chords=2, shapes=8, queries=32, batch=8, max_hops=4)

    def setup(self, seed: int) -> SimpleNamespace:
        size = self.size
        state = SimpleNamespace(seed=seed)
        mediation_deployment(state, seed, size)
        state.shapes = concept_shapes(state, seed, size.shapes)
        # Zipf(1) over the shapes: rank r is drawn with weight 1/r
        rng = random.Random(f"{seed}/zipf")
        weights = [1.0 / rank for rank in range(1, len(state.shapes) + 1)]
        draws = rng.choices(range(len(state.shapes)), weights=weights,
                            k=size.queries)
        state.origin = rng.choice(state.net.peer_ids())
        state.batches = [draws[start:start + size.batch]
                         for start in range(0, len(draws), size.batch)]
        state.engine = state.net.create_engine(
            domain=state.dataset.domain, max_hops=size.max_hops)
        for batch in state.batches:  # warm the plan cache, untimed
            self._execute(state, batch)
        return state

    @staticmethod
    def _execute(state: SimpleNamespace, batch: list[int]) -> Any:
        return state.engine.execute_batch(
            [state.shapes[index][0] for index in batch], origin=state.origin)

    def run(self, state: SimpleNamespace) -> RunResult:
        engine = state.engine
        deltas = network_deltas(state.net)
        before = engine_counts(engine)
        driven = self.drive(state.batches,
                            lambda batch: self._execute(state, batch))
        messages, events = deltas()
        results = driven.results
        outcomes = [outcome for result in results if result is not None
                    for outcome in result.outcomes]
        counters = query_counters(outcomes)
        counters.update(engine_counters(engine, before))
        return RunResult(
            ops=sum(len(batch) for batch in state.batches),
            wall_s=driven.wall_s,
            # one op is one query: its host time is its batch's, shared
            op_times=[seconds / len(batch) for seconds, batch
                      in zip(driven.times, state.batches)],
            spins=driven.spins,
            sim_msgs=sum(r.messages for r in results if r is not None),
            messages=messages, events=events,
            sim_latencies=[o.latency for o in outcomes],
            failed=sum(len(batch) for batch, result
                       in zip(state.batches, results) if result is None),
            counters=counters, payload=(results, driven.errors),
        )

    def check(self, state: SimpleNamespace, result: RunResult) -> Check:
        """Rows inside ground truth, and no fewer than the uncached
        iterative strategy returns for the same query.

        Not *equal*: the engine plans a strict breadth-first search over
        its mapping-graph mirror, while the iterative strategy expands
        reformulations in the order mapping records arrive, and a
        schema first reached over a longer path is not expanded as far
        — so iterative may find a subset of the engine's rows."""
        results, errors = result.payload
        dataset, net = state.dataset, state.net
        reference = cached(state, "reference", lambda: [
            (net.search_for(query, strategy="iterative",
                            max_hops=self.size.max_hops,
                            origin=state.origin).results,
             organism_truth(dataset, needle))
            for query, _schema, needle in state.shapes
        ])
        pairs = []
        mismatched = 0
        for batch, batch_result in zip(state.batches, results):
            if batch_result is None:
                continue
            for index, outcome in zip(batch, batch_result.outcomes):
                rows, truth = reference[index]
                pairs.append((outcome, truth))
                if not rows <= outcome.results:
                    mismatched += 1
        check = semantic_check(pairs)
        check.errors[:0] = errors
        if mismatched:
            check.failed += mismatched
            check.errors.append(
                f"{mismatched} engine answer(s) miss rows iterative finds")
        return check


# ----------------------------------------------------------------------
# 5. selforg
# ----------------------------------------------------------------------

class SelfOrg(Workload):
    """The paper's headline loop with a recall panel read beside it."""

    name = "selforg"
    fresh = True
    full = dict(peers=200, schemas=48, entities=300, per_schema=15,
                panel=24, remove=12, max_hops=4, max_rounds=60)
    smoke = dict(peers=40, schemas=8, entities=60, per_schema=8,
                 panel=6, remove=2, max_hops=4, max_rounds=30)

    def setup(self, seed: int) -> SimpleNamespace:
        size = self.size
        state = SimpleNamespace(seed=seed)
        dataset = generate_corpus(state, seed, size.schemas, size.entities,
                                  size.per_schema)
        net = state.net = GridVineNetwork.build(
            num_peers=size.peers, replication=2, seed=seed)
        load_corpus(net, dataset)
        names = state.names = [schema.name for schema in dataset.schemas]
        for index in range(0, len(names) - 1, 2):  # S0->S1, S2->S3, ...
            net.insert_mapping(dataset.ground_truth_mapping(
                names[index], names[index + 1]))
        net.settle()
        state.engine = net.create_engine(domain=dataset.domain,
                                         max_hops=size.max_hops)
        state.controller = SelfOrganizationController(
            net, domain=dataset.domain, engine=state.engine,
            policy=CreationPolicy(mappings_per_round=3,
                                  bidirectional=False))
        state.origin = net.peer_ids()[0]
        state.panel = [
            (query, organism_truth(dataset, needle))
            for query, _schema, needle in concept_shapes(state, seed,
                                                         size.panel)
        ]
        return state

    def run(self, state: SimpleNamespace) -> RunResult:
        net, engine, controller = state.net, state.engine, state.controller
        panel, origin = state.panel, state.origin
        clock = time.perf_counter
        deltas = network_deltas(net)
        before = engine_counts(engine)
        reports: list = []
        step_times: list[float] = []

        def one_round(_index: int) -> list:
            started = clock()
            report = controller.step()
            step_times.append(clock() - started)
            answers = [engine.search_for(query, origin=origin)
                       for query, _truth in panel]
            reports.append(report)
            return answers

        def converge() -> Iterable[int]:
            # Until the indicator says connected (ci >= 0).  Every round
            # but a phase's last starts fragmented and therefore does
            # the full collect-match-create work: the ops are alike,
            # whatever number of them a seed needs.
            while len(reports) < self.size.max_rounds:
                issued = len(reports)
                yield issued
                if len(reports) == issued:
                    return  # the round raised; drive() recorded it
                if reports[-1].ci_after >= 0.0:
                    return

        def rounds() -> Iterable[int]:
            yield from converge()
            # drop the oldest automatic mappings, then let the loop
            # repair the connectivity it lost
            graph = net.mapping_graph(state.dataset.domain)
            created = [mapping_id for report in reports
                       for mapping_id in report.created]
            for mapping_id in created[:self.size.remove]:
                mapping = graph.get(mapping_id)
                if mapping is not None:
                    net.remove_mapping(mapping)
            net.settle()
            yield from converge()

        driven = self.drive(rounds(), one_round)
        messages, events = deltas()
        connected = [index + 1 for index, report in enumerate(reports)
                     if report.ci_after >= 0.0]
        return measured(
            driven, ops=len(reports),
            sim_msgs=messages, messages=messages, events=events,
            sim_latencies=[o.latency for answers in driven.results
                           if answers is not None for o in answers],
            failed=len(driven.errors),
            counters={
                "selforg.rounds": len(reports),
                "selforg.rounds_to_connect": connected[0] if connected else 0,
                "selforg.mappings_created":
                    sum(len(r.created) for r in reports),
                "selforg.mappings_deprecated":
                    sum(len(r.deprecated) for r in reports),
                "connectivity.ci_final":
                    reports[-1].ci_after if reports else 0.0,
                **engine_counters(engine, before),
            },
            kind_times={"step": step_times},
            payload=(driven.results, driven.errors),
        )

    def check(self, state: SimpleNamespace, result: RunResult) -> Check:
        """Every panel answer is complete and names entries the corpus
        really holds; recall is the last round's.

        Rows *outside* ground truth are not failures here: the matcher
        works from names and value overlap and may map, say, a ``host``
        attribute onto ``organism`` — wrong automatic mappings are what
        the deprecation half of the loop exists for."""
        rounds, errors = result.payload
        corpus = cached(state, "corpus_subjects", lambda: {
            f"{schema.name}:{entity.accession}"
            for schema in state.dataset.schemas
            for entity in state.dataset.coverage[schema.name]})
        check = Check(errors=list(errors))
        hits = expected = 0
        for index, answers in enumerate(rounds):
            if answers is None:
                continue
            found = [recall_hits(outcome) for outcome in answers]
            if not all(outcome.complete and rows <= corpus
                       for outcome, rows in zip(answers, found)):
                check.failed += 1
                check.errors.append(f"round {index}: malformed panel answer")
            if index == len(rounds) - 1:
                hits = sum(len(rows & truth) for rows, (_query, truth)
                           in zip(found, state.panel))
                expected = sum(len(truth) for _query, truth in state.panel)
        check.recall = hits / expected if expected else 0.0
        return check


# ----------------------------------------------------------------------
# 6. route  /  7. route_sharded
# ----------------------------------------------------------------------

class Route(Workload):
    """Raw overlay retrieves at scale on the single event loop."""

    name = "route"
    setup_reps = 2
    full = dict(num_peers=10_000, replication=4, num_keys=1000,
                ops_per_wave=2000, num_waves=5)
    smoke = dict(num_peers=400, replication=4, num_keys=100,
                 ops_per_wave=100, num_waves=2)
    engine_fields: dict[str, Any] = {}

    def execute(self, state: SimpleNamespace) -> Any:
        return run_inprocess(state.spec, state.deployment)

    def setup(self, seed: int) -> SimpleNamespace:
        spec = ScaleoutSpec(seed=seed, **vars(self.size),
                            **self.engine_fields)
        return SimpleNamespace(seed=seed, spec=spec, datagen_s=0.0,
                               deployment=build_deployment(spec))

    def run(self, state: SimpleNamespace) -> RunResult:
        started = time.perf_counter()
        report = self.execute(state)
        wall = time.perf_counter() - started
        outcomes = report.outcomes.values()
        return RunResult(
            ops=report.ops_issued, wall_s=wall, op_times=None,
            sim_msgs=report.messages_sent, messages=report.messages_sent,
            events=report.events_processed,
            sim_latencies=[outcome[2] for outcome in outcomes],
            failed=report.ops_issued - report.successes,
            counters={
                "pgrid.hops_per_op":
                    report.total_hops / max(1, report.successes),
                "pgrid.attempts_per_op":
                    report.total_attempts / max(1, report.ops_completed),
                "simnet.msgs_dropped": report.messages_dropped,
            },
            payload=report,
        )

    def check(self, state: SimpleNamespace, result: RunResult) -> Check:
        """All peers are online: every retrieve completes and succeeds,
        and finds exactly the one value stored under its key."""
        report = result.payload
        check = Check(recall=report.successes / report.ops_issued)
        if report.ops_completed != report.ops_issued:
            check.errors.append(
                f"{report.ops_issued - report.ops_completed} op(s) lost")
        wrong = sum(1 for outcome in report.outcomes.values()
                    if outcome[0] and outcome[4] != 1)
        if wrong:
            check.failed = wrong
            check.errors.append(f"{wrong} retrieve(s) with wrong values")
        return check


class RouteSharded(Route):
    """The same op stream through the windowed sharded transport."""

    name = "route_sharded"
    engine_fields = dict(num_shards=4, mode="inline")

    def execute(self, state: SimpleNamespace) -> Any:
        return run_sharded(state.spec, state.deployment)

    def ratio_probe(self, state: SimpleNamespace) -> dict[str, float]:
        """Forked shard workers (two, one per core here) against the
        inline run of the same deployment — the keep-or-delete number
        for ``mode="process"``."""
        plain = timed_rep(self, state)
        forked = SimpleNamespace(
            deployment=state.deployment,
            spec=dataclasses.replace(state.spec, mode="process",
                                     num_shards=2))
        processes = timed_rep(self, forked)
        return {"simnet.shard_process_ratio":
                processes.timed.cal_s / plain.timed.cal_s}


# ----------------------------------------------------------------------
# 8. churn
# ----------------------------------------------------------------------

class Churn(Workload):
    """Paced queries while peers crash, recover and re-synchronise.

    The one workload ``--seed`` does not vary: it replays a pinned
    scenario, like a recorded failure trace.  A churn scenario's cost is
    chaotic in its seed — a query that meets a replica group with every
    member down waits out 15 s timeouts, which lengthens the scenario
    and with it the background traffic — and across ten seeds
    ``ops_per_s`` spread by 38 % (inter-quartile range over median),
    which no regression bound could hold.  Replayed, the simulated work
    is identical on every run and only host speed is left to measure.
    """

    name = "churn"
    fresh = True
    #: the pinned scenario: seed of corpus, overlay, failure schedule
    SCENARIO_SEED = 11
    full = dict(num_peers=100, replication=3, refs_per_level=3,
                num_schemas=10, num_entities=120, num_queries=16)
    smoke = dict(num_peers=32, replication=3, refs_per_level=3,
                 num_schemas=4, num_entities=40, num_queries=5)

    def setup(self, seed: int) -> SimpleNamespace:
        spec = ScenarioSpec(seed=self.SCENARIO_SEED, strategy="iterative",
                            **vars(self.size))
        runner = ScenarioRunner.from_spec(spec)
        return SimpleNamespace(seed=seed, spec=spec, runner=runner,
                               net=runner.network, datagen_s=0.0)

    def run(self, state: SimpleNamespace) -> RunResult:
        runner, net = state.runner, state.net
        clock = time.perf_counter
        issued: list[float] = []  # issue times, in-loop spins taken out
        outcomes: list = []
        spins: list[tuple[int, float]] = []
        facade_search = net.search_for
        recorder = self.recorder
        spinning = 0.0
        slice_started = clock()

        def observed_search(*args: Any, **kwargs: Any) -> Any:
            # The scenario issues its paced queries through the
            # deployment's public ``search_for``; watching that call on
            # this one instance is how the benchmark sees each op, and
            # where it takes its calibration spins between ops.
            nonlocal spinning, slice_started
            now = clock()
            if issued and now - slice_started >= SLICE_S:
                spins.append((len(issued), spin()))
                slice_started = clock()
                spinning += slice_started - now
                if recorder is not None:
                    recorder.exclude(slice_started - now)
            if recorder is not None:
                recorder.op = len(issued)
            issued.append(clock() - spinning)
            outcome = facade_search(*args, **kwargs)
            outcomes.append(outcome)
            return outcome

        net.search_for = observed_search
        deltas = network_deltas(net)
        started = clock()
        try:
            report = runner.run()
        finally:
            del net.search_for
        ended = clock() - spinning
        messages, events = deltas()
        # host time of one op = from its issue to the next op's issue,
        # so each query carries the background traffic of its interval
        times = [later - earlier
                 for earlier, later in zip(issued, issued[1:] + [ended])]
        return RunResult(
            ops=report.queries_issued, wall_s=ended - started,
            op_times=times, spins=spins, sim_msgs=report.query_messages,
            messages=messages, events=events,
            sim_latencies=[o.latency for o in outcomes],
            failed=report.queries_issued - report.queries_complete,
            counters={
                "mediation.bg_msgs_share":
                    1.0 - report.query_messages
                    / max(1, report.total_messages),
                "simnet.msgs_dropped": report.messages_dropped,
                "simnet.msgs_dropped_offline":
                    report.drops_by_reason.get("offline", 0),
                "pgrid.failovers": report.failovers,
                "pgrid.gave_up": report.ops_gave_up,
                **query_counters(outcomes),
            },
            payload=(report, outcomes),
        )

    def check(self, state: SimpleNamespace, result: RunResult) -> Check:
        report, outcomes = result.payload
        panel = state.runner.panel
        check = semantic_check(
            (outcome, panel[index % len(panel)][1])
            for index, outcome in enumerate(outcomes))
        check.recall = report.recall
        return check


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (Publish, Lookup, Reformulate, EngineBatch, SelfOrg, Route,
                RouteSharded, Churn)
}
