"""Determinism guarantees: identical seeds yield identical simulations.

Reproducibility is a design requirement (docs/TESTING.md, "Seeds and
determinism"): every experiment must be re-runnable bit-for-bit — the
committed ``benchmarks/BENCH_E<n>.json`` baselines are compared
exactly.  These tests rebuild whole
deployments twice from the same seed and compare observable state and
measurements exactly.
"""

from dataclasses import asdict

from repro.datagen import BioDatasetGenerator, QueryWorkloadGenerator
from repro.mediation.network import GridVineNetwork
from repro.rdf.terms import Literal, URI
from repro.rdf.triples import Triple
from repro.schema.model import Schema
from repro.simnet.latency import LogNormalWANLatency


def build_and_run(seed):
    """A small end-to-end run; returns all observables."""
    net = GridVineNetwork.build(num_peers=24, seed=seed, replication=2,
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
        outcomes.append((strategy, out.result_count, round(out.latency, 9),
                         out.messages))
    return {
        "paths": sorted((n, p.path.bits) for n, p in net.peers.items()),
        "loads": sorted(p.storage_load() for p in net.peers.values()),
        "outcomes": outcomes,
        "metrics": net.metrics_snapshot(),
        "now": round(net.loop.now, 9),
    }


class TestSimulationDeterminism:
    def test_identical_seeds_identical_runs(self):
        assert build_and_run(42) == build_and_run(42)

    def test_different_seeds_differ(self):
        a = build_and_run(42)
        b = build_and_run(43)
        # topology or timings must differ somewhere
        assert a != b


class TestDatagenDeterminism:
    def test_dataset_bitwise_stable(self):
        kwargs = dict(num_schemas=6, num_entities=50,
                      entities_per_schema=12, seed=9)
        a = BioDatasetGenerator(**kwargs).generate()
        b = BioDatasetGenerator(**kwargs).generate()
        assert a.triples == b.triples
        assert a.attribute_concepts == b.attribute_concepts
        assert [e.values for e in a.entities] == [
            e.values for e in b.entities]

    def test_workload_stable(self):
        dataset = BioDatasetGenerator(
            num_schemas=4, num_entities=30, entities_per_schema=10,
            seed=2).generate()
        a = QueryWorkloadGenerator(dataset, seed=7).queries(30)
        b = QueryWorkloadGenerator(dataset, seed=7).queries(30)
        assert a == b


def build_corpus_net(seed, num_peers=24):
    """A deployment over the generated corpus (shared by the auto /
    batch determinism runs)."""
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


class TestAutoStrategyDeterminism:
    """``strategy="auto"`` adds the optimizer + gossiped statistics to
    the loop; same seed must still mean the same decisions, results
    and message counts."""

    def test_auto_outcomes_stable(self):
        import random

        from repro.pgrid.maintenance import MaintenanceProcess
        from repro.datagen import QueryWorkloadGenerator

        def run():
            net, dataset = build_corpus_net(21)
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
                observations.append((
                    out.result_count,
                    round(out.latency, 9),
                    out.messages,
                    None if decision is None else (
                        decision.strategy, decision.fallback,
                        decision.reformulations_pruned),
                ))
            return observations

        assert run() == run()


class TestEngineBatchDeterminism:
    """``engine.execute_batch`` shares scans across queries; the fetch
    schedule, dedup accounting and per-outcome rows must be seed-
    stable."""

    def test_execute_batch_stable(self):
        def run():
            net, dataset = build_corpus_net(13)
            engine = net.create_engine(domain=dataset.domain, max_hops=6)
            workload = QueryWorkloadGenerator(dataset, seed=3)
            batch = workload.queries(5) * 2  # repeats exercise the cache
            observed = []
            for _round in range(2):  # cold then warm
                result = engine.execute_batch(batch,
                                              origin=net.peer_ids()[0])
                observed.append((
                    [o.result_count for o in result.outcomes],
                    [sorted(map(str, o.sorted_results()))
                     for o in result.outcomes],
                    result.patterns_total,
                    result.patterns_fetched,
                    result.messages,
                ))
            observed.append(engine.stats.snapshot())
            return observed

        assert run() == run()


class TestScenarioDeterminism:
    """Full ``ScenarioRunner`` reports — churn, maintenance, failover,
    fault injection and all derived statistics — are a pure function
    of the spec."""

    def _spec(self, **overrides):
        from repro.resilience import ScenarioSpec
        base = dict(
            num_peers=20,
            replication=2,
            refs_per_level=2,
            seed=31,
            num_schemas=3,
            num_entities=24,
            num_queries=4,
            warmup=30.0,
            query_interval=20.0,
            mean_uptime=90.0,
            mean_downtime=30.0,
        )
        base.update(overrides)
        return ScenarioSpec(**base)

    def test_scenario_report_stable(self):
        from repro.resilience import ScenarioRunner
        spec = self._spec()
        a = ScenarioRunner.from_spec(spec).run()
        b = ScenarioRunner.from_spec(spec).run()
        assert asdict(a) == asdict(b)

    def test_faulted_scenario_report_stable(self):
        from repro.faultlab import (
            FaultPlan,
            MessageDelay,
            MessageDrop,
            Partition,
        )
        from repro.resilience import ScenarioRunner
        peers = [f"peer-{i}" for i in range(20)]
        plan = FaultPlan(seed=31, faults=(
            MessageDrop(probability=0.1, start=10.0, until=60.0),
            MessageDelay(probability=0.2, jitter_min=1.0, jitter_max=8.0),
            Partition(side_a=tuple(peers[:14]), side_b=tuple(peers[14:]),
                      start=40.0, heal_at=80.0),
        ))
        spec = self._spec(faults=plan)
        a = ScenarioRunner.from_spec(spec).run()
        b = ScenarioRunner.from_spec(spec).run()
        assert asdict(a) == asdict(b)
        assert a.faults_injected  # the plan actually fired

    def test_different_seed_differs(self):
        from repro.resilience import ScenarioRunner
        a = ScenarioRunner.from_spec(self._spec()).run()
        b = ScenarioRunner.from_spec(self._spec(seed=32)).run()
        assert asdict(a) != asdict(b)


class TestSelfOrganizationDeterminism:
    def test_controller_rounds_stable(self):
        from repro.selforg import CreationPolicy, SelfOrganizationController

        def run():
            dataset = BioDatasetGenerator(
                num_schemas=6, num_entities=50, entities_per_schema=15,
                seed=4).generate()
            net = GridVineNetwork.build(num_peers=20, seed=4)
            for schema in dataset.schemas:
                net.insert_schema(schema)
            net.insert_triples(dataset.triples)
            net.insert_mapping(dataset.ground_truth_mapping(
                dataset.schemas[0].name, dataset.schemas[1].name))
            net.settle()
            controller = SelfOrganizationController(
                net, domain=dataset.domain,
                policy=CreationPolicy(mappings_per_round=2))
            reports = controller.run(max_rounds=5)
            return [
                (r.round_index, round(r.ci_before, 12),
                 round(r.ci_after, 12), tuple(r.created),
                 tuple(r.deprecated))
                for r in reports
            ]

        assert run() == run()
