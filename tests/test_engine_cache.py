"""Tests for the reformulation-plan cache and its invalidation."""

import pytest

from repro.engine.cache import PlanCache
from repro.engine.signature import canonicalize_query, rename_query
from repro.engine.versioning import MappingVersionClock
from repro.mapping.graph import MappingGraph
from repro.mapping.model import PredicateCorrespondence, SchemaMapping
from repro.rdf.parser import parse_search_for
from repro.rdf.terms import URI, Variable
from repro.reformulation.planner import plan_reformulations
from repro.selforg import SelfOrganizationController


def _other_schema(name):
    from repro.schema.model import Schema
    return Schema(name, ["attr"], domain="bio")


def edge(mapping_id, src, dst, pairs):
    return SchemaMapping(
        mapping_id, src, dst,
        [PredicateCorrespondence(URI(f"{src}#{a}"), URI(f"{dst}#{b}"))
         for a, b in pairs],
    )


QUERY = parse_search_for("SearchFor(x? : (x?, A#org, %Asp%))")
ALPHA_VARIANT = parse_search_for("SearchFor(y? : (y?, A#org, %Asp%))")
OTHER_QUERY = parse_search_for("SearchFor(x? : (x?, A#len, v))")


class TestSignature:
    def test_alpha_variants_share_canonical_form(self):
        assert canonicalize_query(QUERY)[0] == \
            canonicalize_query(ALPHA_VARIANT)[0]

    def test_different_structure_different_form(self):
        assert canonicalize_query(QUERY)[0] != \
            canonicalize_query(OTHER_QUERY)[0]

    def test_inverse_renaming_round_trips(self):
        canonical, inverse = canonicalize_query(ALPHA_VARIANT)
        assert rename_query(canonical, inverse) == ALPHA_VARIANT

    def test_repeated_variables_preserved(self):
        loop_query = parse_search_for(
            "SearchFor(x? : (x?, A#org, x?))"
        )
        chain_query = parse_search_for(
            "SearchFor(x? : (x?, A#org, y?))"
        )
        assert canonicalize_query(loop_query)[0] != \
            canonicalize_query(chain_query)[0]


class TestVersionClock:
    def test_bump_touches_both_endpoints_only(self):
        clock = MappingVersionClock()
        moved = []
        clock.add_listener(moved.append)
        clock.bump(edge("m1", "A", "B", [("org", "name")]))
        assert moved == ["A", "B"]


class TestPlanCache:
    def _cache_and_graph(self, capacity=8):
        clock = MappingVersionClock()
        cache = PlanCache(clock, capacity=capacity)
        graph = MappingGraph([edge("m1", "A", "B", [("org", "name")])])
        return clock, cache, graph

    def test_miss_then_hit(self):
        _clock, cache, graph = self._cache_and_graph()
        assert cache.lookup(QUERY, 5) is None
        cache.store(QUERY, 5, plan_reformulations(QUERY, graph, 5))
        cached = cache.lookup(QUERY, 5)
        assert cached is not None
        assert [r.query for r in cached] == \
            [r.query for r in plan_reformulations(QUERY, graph, 5)]
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_alpha_variant_hits_and_is_renamed(self):
        _clock, cache, graph = self._cache_and_graph()
        cache.store(QUERY, 5, plan_reformulations(QUERY, graph, 5))
        cached = cache.lookup(ALPHA_VARIANT, 5)
        assert cached is not None
        assert cached[0].query == ALPHA_VARIANT
        # the reformulated query keeps the variant's variable too
        assert Variable("y") in cached[1].query.variables()
        assert cached[1].query.patterns[0].predicate == URI("B#name")

    def test_repeat_lookups_share_the_renamed_plan(self):
        clock, cache, graph = self._cache_and_graph()
        plan = plan_reformulations(QUERY, graph, 5)
        cache.store(QUERY, 5, plan)
        first, second = cache.lookup(QUERY, 5), cache.lookup(QUERY, 5)
        # A fresh list each time, of the very same reformulations.
        assert first is not second and len(first) == 2
        assert all(a.query is b.query for a, b in zip(first, second))
        # An alpha-variant is renamed afresh (and takes over the memo).
        variant = cache.lookup(ALPHA_VARIANT, 5)
        assert all(a.query is not b.query for a, b in zip(first, variant))
        assert variant[0].query == ALPHA_VARIANT
        assert cache.lookup(ALPHA_VARIANT, 5)[1].query is variant[1].query
        assert (cache.stats.hits, cache.stats.misses) == (4, 0)
        # Invalidation drops the memo with the entry.
        clock.bump(edge("m2", "B", "C", [("name", "species")]))
        assert cache.lookup(QUERY, 5) is None
        cache.store(QUERY, 5, plan)
        assert cache.lookup(QUERY, 5)[0].query is not first[0].query
        assert cache.stats.invalidations == 1

    def test_max_hops_is_part_of_the_key(self):
        _clock, cache, graph = self._cache_and_graph()
        cache.store(QUERY, 5, plan_reformulations(QUERY, graph, 5))
        assert cache.lookup(QUERY, 3) is None

    def test_eager_invalidation_on_bump(self):
        clock, cache, graph = self._cache_and_graph()
        cache.store(QUERY, 5, plan_reformulations(QUERY, graph, 5))
        clock.bump(edge("m2", "B", "C", [("name", "species")]))
        assert cache.lookup(QUERY, 5) is None
        assert cache.stats.invalidations == 1

    def test_unrelated_mapping_does_not_invalidate(self):
        clock, cache, graph = self._cache_and_graph()
        cache.store(QUERY, 5, plan_reformulations(QUERY, graph, 5))
        clock.bump(edge("mx", "X", "Y", [("a", "b")]))
        assert cache.lookup(QUERY, 5) is not None
        assert cache.stats.invalidations == 0

    def test_lru_eviction(self):
        clock = MappingVersionClock()
        cache = PlanCache(clock, capacity=1)
        graph = MappingGraph()
        cache.store(QUERY, 5, plan_reformulations(QUERY, graph, 5))
        cache.store(OTHER_QUERY, 5,
                    plan_reformulations(OTHER_QUERY, graph, 5))
        assert cache.stats.evictions == 1
        assert cache.lookup(QUERY, 5) is None
        assert cache.lookup(OTHER_QUERY, 5) is not None

    def test_zero_capacity_disables_caching(self):
        clock = MappingVersionClock()
        cache = PlanCache(clock, capacity=0)
        graph = MappingGraph()
        cache.store(QUERY, 5, plan_reformulations(QUERY, graph, 5))
        assert len(cache) == 0
        assert cache.lookup(QUERY, 5) is None


@pytest.fixture
def fig2_engine(fig2_network):
    net, embl, emp = fig2_network
    engine = net.create_engine(domain="bio")
    return net, embl, emp, engine


class TestEngineInvalidation:
    """Network-driven invalidation through the mapping-event hooks."""

    def test_insert_invalidates_and_extends_plan(self, fig2_engine):
        net, embl, emp, engine = fig2_engine
        query = parse_search_for(
            "SearchFor(x? : (x?, EMBL#Organism, %Aspergillus%))"
        )
        assert len(engine.plan(query)) == 1
        net.create_mapping(embl, emp, [("Organism", "SystematicName")])
        net.settle()
        assert engine.cache.stats.invalidations >= 1
        plan = engine.plan(query)
        assert len(plan) == 2
        assert plan[1].query.patterns[0].predicate == \
            URI("EMP#SystematicName")

    def test_deprecate_invalidates_affected_plan(self, fig2_engine):
        net, embl, emp, engine = fig2_engine
        query = parse_search_for(
            "SearchFor(x? : (x?, EMBL#Organism, %Aspergillus%))"
        )
        mapping = net.create_mapping(embl, emp,
                                     [("Organism", "SystematicName")])
        net.settle()
        assert len(engine.plan(query)) == 2
        invalidations_before = engine.cache.stats.invalidations
        planner_runs = engine.stats.planner_invocations
        net.deprecate_mapping(mapping)
        net.settle()
        assert engine.cache.stats.invalidations > invalidations_before
        # the shrunk plan is re-planned (cache did not serve stale)
        plan = engine.plan(query)
        assert len(plan) == 1
        assert engine.stats.planner_invocations == planner_runs + 1

    def test_remove_invalidates_affected_plan(self, fig2_engine):
        net, embl, emp, engine = fig2_engine
        query = parse_search_for(
            "SearchFor(x? : (x?, EMBL#Organism, %Aspergillus%))"
        )
        mapping = net.create_mapping(embl, emp,
                                     [("Organism", "SystematicName")])
        net.settle()
        assert len(engine.plan(query)) == 2
        net.remove_mapping(mapping)
        net.settle()
        assert len(engine.plan(query)) == 1

    def test_unrelated_mapping_keeps_plan_cached(self, fig2_engine):
        net, embl, emp, engine = fig2_engine
        query = parse_search_for(
            "SearchFor(x? : (x?, EMBL#Organism, %Aspergillus%))"
        )
        engine.plan(query)
        planner_runs = engine.stats.planner_invocations
        other_a = _other_schema("OtherA")
        other_b = _other_schema("OtherB")
        net.insert_schema(other_a)
        net.insert_schema(other_b)
        net.create_mapping(other_a, other_b, [("attr", "attr")])
        net.settle()
        engine.plan(query)
        assert engine.stats.planner_invocations == planner_runs

    def test_sync_from_overlay_backfills_existing_mappings(
            self, fig2_network):
        net, embl, emp = fig2_network
        net.create_mapping(embl, emp, [("Organism", "SystematicName")])
        net.settle()
        # engine created *after* the mapping: the domain backfill
        # crawls the overlay so the mirror still sees it
        engine = net.create_engine(domain="bio")
        query = parse_search_for(
            "SearchFor(x? : (x?, EMBL#Organism, %Aspergillus%))"
        )
        assert len(engine.plan(query)) == 2


class TestSelforgInvalidation:
    """The self-organization loop's mutations flow through the hooks."""

    def test_controller_rounds_report_plan_invalidations(
            self, bio_dataset):
        from repro import GridVineNetwork
        from repro.selforg import CreationPolicy

        net = GridVineNetwork.build(num_peers=24, seed=11)
        for schema in bio_dataset.schemas:
            net.insert_schema(schema)
        net.insert_triples(bio_dataset.triples)
        # One *directed* seed mapping leaves ci < 0 (degree pairs
        # (0,1) and (1,0)), so the creation loop has work to do.
        net.insert_mapping(
            bio_dataset.ground_truth_mapping(bio_dataset.schemas[0].name,
                                             bio_dataset.schemas[1].name),
        )
        net.settle()
        engine = net.create_engine(domain=bio_dataset.domain)
        # Warm the cache with one query per schema's first attribute.
        from repro.rdf.patterns import ConjunctiveQuery, TriplePattern
        queries = []
        for schema in bio_dataset.schemas[:4]:
            x, y = Variable("x"), Variable("y")
            queries.append(ConjunctiveQuery(
                [TriplePattern(x, schema.predicate(schema.attributes[0]),
                               y)],
                [x],
            ))
        for query in queries:
            engine.plan(query)
        assert engine.stats.planner_invocations == len(queries)
        controller = SelfOrganizationController(
            net, domain=bio_dataset.domain,
            policy=CreationPolicy(mappings_per_round=3),
            engine=engine,
        )
        reports = controller.run(max_rounds=3)
        mutated = [r for r in reports if r.created or r.deprecated]
        assert mutated, "self-organization should create mappings"
        assert any(r.plans_invalidated > 0 for r in mutated)
