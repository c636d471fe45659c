"""Layer probes: one layer's public functions timed on their own.

A probe answers "how fast could this layer go if nothing else were in
the way", which bounds what an optimisation of the layer can buy end to
end.  Each builds a small seeded fixture (a generated corpus, a mapping
graph, a filled store), calls one public function in a tight loop and
reports a rate or a time per call in calibrated units.  The fixtures
are the same on every workload, so a probe value is comparable across
workloads and moves only when its layer does.
"""

from __future__ import annotations

import random
import time
from typing import Any, Callable

from perfbench.api import (
    Batch,
    BioDatasetGenerator,
    EventLoop,
    MappingGraph,
    MappingVersionClock,
    Node,
    PGridOverlay,
    PlanCache,
    QueryWorkloadGenerator,
    SimNetwork,
    TripleStore,
    Variable,
    assess_mapping_quality,
    indicator_from_degrees,
    join_batches,
    match_attributes,
    parse_search_for,
    plan_reformulations,
    translate_query,
    uniform_hash,
)
from perfbench.calibrate import CAL_REF_S, spin


def _seconds(fn: Callable[[], Any]) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


class _PingPong(Node):
    """Stub node: bounces every ping back until the budget is spent."""

    def __init__(self, node_id: str, budget: list[int]) -> None:
        super().__init__(node_id)
        self.budget = budget
        self.register_handler("ping", self._on_ping)

    def _on_ping(self, message: Any) -> None:
        if self.budget[0] > 0:
            self.budget[0] -= 1
            self.send(message.src, "ping")


def _fixture(seed: int, smoke: bool) -> dict[str, Any]:
    schemas, entities, per_schema = (6, 40, 10) if smoke else (12, 120, 30)
    dataset = BioDatasetGenerator(
        num_schemas=schemas, num_entities=entities,
        entities_per_schema=per_schema, seed=seed).generate()
    names = [schema.name for schema in dataset.schemas]
    graph = MappingGraph()
    for index, name in enumerate(names):
        forward = dataset.ground_truth_mapping(
            name, names[(index + 1) % len(names)])
        graph.add(forward)
        graph.add(forward.reversed())
        if index % 2 == 0:
            other = names[(index + len(names) // 2) % len(names)]
            graph.add(dataset.ground_truth_mapping(
                name, other, mapping_id=f"chord:{name}->{other}"))
    workload = QueryWorkloadGenerator(dataset, seed=seed)
    return {
        "dataset": dataset,
        "names": names,
        "graph": graph,
        "queries": workload.queries(60 if smoke else 300),
        "concept_queries": [
            workload.concept_query(name, "organism", "a") for name in names],
    }


def run_probes(seed: int, smoke: bool = False) -> dict[str, float]:
    """Run every probe; returns ``{metric name: calibrated value}``."""
    scale = 0.2 if smoke else 1.0
    fixture = _fixture(seed, smoke)
    dataset, graph = fixture["dataset"], fixture["graph"]
    queries = fixture["queries"]
    rng = random.Random(f"{seed}/probes")
    raw: dict[str, tuple[float, float]] = {}  # name -> (seconds, units)
    before = spin()

    # simnet: bare event loop, then the send/deliver gate
    loop = EventLoop()
    events = int(20_000 * scale)
    delays = [rng.random() for _ in range(events)]

    def loop_probe() -> None:
        for delay in delays:
            loop.schedule(delay, int)
        loop.run_until_idle()

    raw["simnet.probe_loop_events_per_s"] = (_seconds(loop_probe), events)

    network = SimNetwork(rng=random.Random(seed))
    budget = [int(20_000 * scale)]
    sent = budget[0] + 1
    left, right = _PingPong("left", budget), _PingPong("right", budget)
    network.attach(left)
    network.attach(right)
    left.send("right", "ping")
    raw["simnet.probe_send_msgs_per_s"] = (
        _seconds(network.loop.run_until_idle), sent)

    # pgrid: one synchronous retrieve through a 1k-peer overlay
    overlay = PGridOverlay.build(num_peers=int(1000 * scale),
                                 replication=2, seed=seed)
    peer_ids = overlay.peer_ids()
    keys = [uniform_hash(f"probe-{index}") for index in range(100)]
    for key in keys:
        overlay.update_sync(rng.choice(peer_ids), key, "value")
    overlay.loop.run_until_idle()
    lookups = [(rng.choice(peer_ids), rng.choice(keys))
               for _ in range(int(1000 * scale))]

    def retrieve_probe() -> None:
        for origin, key in lookups:
            overlay.retrieve_sync(origin, key)

    raw["pgrid.probe_retrieve_us"] = (_seconds(retrieve_probe),
                                      len(lookups))

    # storage: fill a store, then match the workload's patterns on it
    triples = dataset.triples
    store = TripleStore()

    def add_probe() -> None:
        for triple in triples:
            store.add(triple)

    raw["storage.probe_add_per_s"] = (_seconds(add_probe), len(triples))
    patterns = [query.patterns[0] for query in queries]

    def match_probe() -> None:
        for pattern in patterns:
            store.match(pattern)

    raw["storage.probe_match_per_s"] = (_seconds(match_probe),
                                        len(patterns))

    # rdf: the surface-syntax parser (queries reach the workloads
    # pre-parsed, so only the CLI pays this)
    texts = [str(query) for query in queries]

    def parse_probe() -> None:
        for text in texts:
            parse_search_for(text)

    raw["rdf.probe_parse_per_s"] = (_seconds(parse_probe), len(texts))

    # reformulation + mapping
    concept_queries = fixture["concept_queries"]

    def plan_probe() -> None:
        for query in concept_queries:
            plan_reformulations(query, graph, max_hops=4)

    raw["reformulation.probe_plans_per_s"] = (_seconds(plan_probe),
                                              len(concept_queries))
    raw["mapping.probe_find_cycles_ms"] = (
        _seconds(lambda: graph.find_cycles(max_length=4)), 1)
    translations = [(query, mapping)
                    for query, name in zip(concept_queries, fixture["names"])
                    for mapping in graph.outgoing(name)] * 20

    def translate_probe() -> None:
        for query, mapping in translations:
            translate_query(query, mapping)

    raw["mapping.probe_translate_per_s"] = (_seconds(translate_probe),
                                            len(translations))

    # exec: the columnar hash join on one shared variable
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    rows = int(4000 * scale)
    left_batch = Batch.from_tuples(
        (x, y), [(index % (rows // 2), index) for index in range(rows)])
    right_batch = Batch.from_tuples(
        (x, z), [(index, -index) for index in range(rows // 2)])
    joined: list[Any] = []
    raw["exec.probe_join_rows_per_s"] = (
        _seconds(lambda: joined.append(
            join_batches(left_batch, right_batch).count)), rows)

    # engine: warm plan-cache lookups
    cache = PlanCache(MappingVersionClock(), capacity=256)
    for query in concept_queries:
        cache.store(query, 4, plan_reformulations(query, graph, max_hops=4))
    repeats = int(50 * scale) or 1

    def cache_probe() -> None:
        for _ in range(repeats):
            for query in concept_queries:
                cache.lookup(query, 4)

    raw["engine.probe_cache_lookup_us"] = (
        _seconds(cache_probe), repeats * len(concept_queries))

    # selforg: the matcher on schema pairs, the cycle-based assessment
    value_sets = {
        schema.name: {
            attribute: {
                triple.object.value
                for triple in dataset.triples_by_schema[schema.name]
                if triple.predicate == schema.predicate(attribute)}
            for attribute in schema.attributes}
        for schema in dataset.schemas
    }
    pairs = list(zip(dataset.schemas, dataset.schemas[1:]))

    def matcher_probe() -> None:
        for source, target in pairs:
            match_attributes(source, target, value_sets[source.name],
                             value_sets[target.name])

    raw["selforg.probe_match_ms"] = (_seconds(matcher_probe), len(pairs))
    raw["selforg.probe_assess_ms"] = (
        _seconds(lambda: assess_mapping_quality(graph)), 1)

    # connectivity: the indicator over a few hundred degree records
    degrees = [(rng.randrange(4), rng.randrange(4)) for _ in range(300)]
    repeats = int(200 * scale) or 1

    def indicator_probe() -> None:
        for _ in range(repeats):
            indicator_from_degrees(degrees)

    raw["connectivity.probe_indicator_us"] = (_seconds(indicator_probe),
                                              repeats)

    factor = CAL_REF_S / ((before + spin()) / 2.0)
    values = {}
    for name, (seconds, units) in raw.items():
        calibrated = seconds * factor
        if name.endswith("_per_s"):
            values[name] = units / calibrated
        elif name.endswith("_us"):
            values[name] = calibrated / units * 1e6
        else:  # "_ms"
            values[name] = calibrated / units * 1e3
    if joined[0] != rows:
        raise AssertionError(f"join probe produced {joined[0]} rows")
    return values
