"""Golden observable capture for the transport-refactor regression pins.

The actor/transport refactor promised that the single-loop engine
(today ``SingleLoopEngine`` over one ``SimNetwork``) reproduces the
pre-refactor event-loop behavior *bit-identically*.  The
observables pinned here were captured on the commit immediately before
the refactor and stored in ``tests/golden/transport_golden.json``; the
companion test (``test_transport_golden.py``) re-runs the same small
E13-E16-style workloads on the refactored code and compares exactly.

Regenerate (only when an intentional behavior change is being made)::

    PYTHONPATH=src:tests python tests/golden_observables.py --write
"""

from __future__ import annotations

import json
import pathlib
import random
from dataclasses import asdict

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "transport_golden.json"


def _round_floats(obj, places: int = 9):
    """Round every float so JSON round-tripping is exact."""
    if isinstance(obj, float):
        return round(obj, places)
    if isinstance(obj, dict):
        return {k: _round_floats(v, places) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, places) for v in obj]
    return obj


def _observed(report) -> dict:
    """A scenario report's observables: every field but ``spec``, the
    configuration the run was given (a pin of behaviour, not of which
    settings a spec carries)."""
    observed = asdict(report)
    del observed["spec"]
    return observed


def _corpus_net(seed: int, num_peers: int = 24):
    from repro.datagen import BioDatasetGenerator
    from repro.mediation.network import GridVineNetwork

    dataset = BioDatasetGenerator(
        num_schemas=4, num_entities=40, entities_per_schema=10,
        seed=seed).generate()
    net = GridVineNetwork.build(num_peers=num_peers, seed=seed,
                                replication=2)
    for schema in dataset.schemas:
        net.insert_schema(schema)
    net.insert_triples(dataset.triples)
    names = [s.name for s in dataset.schemas]
    for a, b in zip(names, names[1:]):
        net.insert_mapping(dataset.ground_truth_mapping(a, b),
                           bidirectional=True)
    net.settle()
    return net, dataset


def _e13_plan_cache() -> dict:
    """E13-style: engine batch execution, cold round then warm round."""
    from repro.datagen import QueryWorkloadGenerator

    net, dataset = _corpus_net(13)
    engine = net.create_engine(domain=dataset.domain, max_hops=6)
    workload = QueryWorkloadGenerator(dataset, seed=3)
    batch = workload.queries(5) * 2
    rounds = []
    for _round in range(2):
        result = engine.execute_batch(batch, origin=net.peer_ids()[0])
        rounds.append({
            "result_counts": [o.result_count for o in result.outcomes],
            "rows": [sorted(map(str, o.sorted_results()))
                     for o in result.outcomes],
            "patterns_total": result.patterns_total,
            "patterns_fetched": result.patterns_fetched,
            "messages": result.messages,
        })
    return {"rounds": rounds, "stats": engine.stats.snapshot()}


def _e14_churn_recall() -> dict:
    """E14-style: churn recall scenario, failover on and off."""
    from repro.resilience import ScenarioRunner, ScenarioSpec

    out = {}
    for failover in (True, False):
        spec = ScenarioSpec(
            num_peers=20, replication=2, refs_per_level=2, seed=31,
            failover=failover, num_schemas=3, num_entities=24,
            num_queries=4, warmup=30.0, query_interval=20.0,
            mean_uptime=90.0, mean_downtime=30.0,
        )
        out[f"failover_{failover}"] = _observed(
            ScenarioRunner.from_spec(spec).run())
    return out


def _e15_limit_pushdown() -> dict:
    """E15-style: limit pushdown saves messages on a broad query."""
    net, dataset = _corpus_net(15)
    query = (f"SearchFor(x?, v? : "
             f"(x?, {dataset.schemas[0].name}#"
             f"{dataset.schemas[0].attributes[0]}, v?))")
    origin = net.peer_ids()[1]
    out = {}
    for tag, limit in (("full", None), ("limit3", 3)):
        outcome = net.search_for(query, strategy="iterative",
                                 origin=origin, limit=limit)
        out[tag] = {
            "result_count": outcome.result_count,
            "messages": outcome.messages,
            "latency": round(outcome.latency, 9),
        }
    return out


def _e16_auto_strategy() -> dict:
    """E16-style: cost-based auto strategy decisions on the corpus."""
    from repro.datagen import QueryWorkloadGenerator
    from repro.pgrid.maintenance import MaintenanceProcess

    net, dataset = _corpus_net(21)
    maintenance = MaintenanceProcess(net.peers, interval=20.0,
                                     rng=random.Random(9))
    maintenance.start()
    net.loop.run_until(net.loop.now + 400.0)
    maintenance.stop()
    net.loop.run_until(net.loop.now + 60.0)
    workload = QueryWorkloadGenerator(dataset, seed=5)
    observations = []
    for query in workload.queries(6):
        out = net.search_for(query, strategy="auto", max_hops=6,
                             origin=net.peer_ids()[0])
        decision = out.decision
        observations.append([
            out.result_count,
            round(out.latency, 9),
            out.messages,
            None if decision is None else [
                decision.strategy, decision.fallback,
                decision.reformulations_pruned],
        ])
    return {"observations": observations,
            "metrics": net.metrics_snapshot()}


def _faulted_replay() -> dict:
    """Faultlab seed replay: a faulted scenario from one integer seed."""
    from repro.faultlab import FaultPlan, MessageDelay, MessageDrop, Partition
    from repro.resilience import ScenarioRunner, ScenarioSpec

    peers = [f"peer-{i}" for i in range(20)]
    plan = FaultPlan(seed=31, faults=(
        MessageDrop(probability=0.1, start=10.0, until=60.0),
        MessageDelay(probability=0.2, jitter_min=1.0, jitter_max=8.0),
        Partition(side_a=tuple(peers[:14]), side_b=tuple(peers[14:]),
                  start=40.0, heal_at=80.0),
    ))
    spec = ScenarioSpec(
        num_peers=20, replication=2, refs_per_level=2, seed=31,
        num_schemas=3, num_entities=24, num_queries=4, warmup=30.0,
        query_interval=20.0, mean_uptime=90.0, mean_downtime=30.0,
        faults=plan,
    )
    return _observed(ScenarioRunner.from_spec(spec).run())


def _end_to_end() -> dict:
    """The canonical 24-peer end-to-end run (WAN latency model)."""
    from repro.mediation.network import GridVineNetwork
    from repro.rdf.terms import Literal, URI
    from repro.rdf.triples import Triple
    from repro.schema.model import Schema
    from repro.simnet.latency import LogNormalWANLatency

    net = GridVineNetwork.build(num_peers=24, seed=7, replication=2,
                                latency=LogNormalWANLatency())
    embl = Schema("EMBL", ["Organism"], domain="d")
    emp = Schema("EMP", ["SystematicName"], domain="d")
    net.insert_schema(embl)
    net.insert_schema(emp)
    net.insert_triples([
        Triple(URI(f"EMBL:{i}"), URI("EMBL#Organism"),
               Literal(f"Aspergillus {i}"))
        for i in range(10)
    ] + [
        Triple(URI("EMP:9"), URI("EMP#SystematicName"),
               Literal("Aspergillus 9")),
    ])
    net.create_mapping(embl, emp, [("Organism", "SystematicName")],
                       origin=net.peer_ids()[0])
    net.settle()
    outcomes = []
    for strategy in ("local", "iterative", "recursive"):
        out = net.search_for(
            "SearchFor(x? : (x?, EMBL#Organism, %Aspergillus%))",
            strategy=strategy, origin=net.peer_ids()[1])
        outcomes.append([strategy, out.result_count,
                         round(out.latency, 9), out.messages])
    return {
        "paths": sorted([n, p.path.bits] for n, p in net.peers.items()),
        "loads": sorted(p.storage_load() for p in net.peers.values()),
        "outcomes": outcomes,
        "metrics": net.metrics_snapshot(),
        "now": round(net.loop.now, 9),
    }


def collect_observables() -> dict:
    """Run every pinned workload; returns a JSON-round-trip-safe dict."""
    obs = {
        "end_to_end": _end_to_end(),
        "e13_plan_cache": _e13_plan_cache(),
        "e14_churn_recall": _e14_churn_recall(),
        "e15_limit_pushdown": _e15_limit_pushdown(),
        "e16_auto_strategy": _e16_auto_strategy(),
        "faulted_replay": _faulted_replay(),
    }
    # Round-trip through JSON so tuples/lists and float representations
    # compare equal against the stored golden file.
    return json.loads(json.dumps(_round_floats(obs)))


def main() -> None:
    import sys
    obs = collect_observables()
    if "--write" in sys.argv:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(obs, indent=1, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN_PATH}")
    else:
        golden = json.loads(GOLDEN_PATH.read_text())
        print("match" if golden == obs else "MISMATCH")


if __name__ == "__main__":
    main()
