"""Tests for the batched multi-query executor and the engine facade."""

import pytest

from repro.exec.operators import Answer
from repro.rdf.parser import parse_search_for
from repro.rdf.terms import URI

ORGANISM_QUERY = "SearchFor(x? : (x?, EMBL#Organism, %Aspergillus%))"
ALPHA_VARIANT = "SearchFor(y? : (y?, EMBL#Organism, %Aspergillus%))"
#: ORGANISM_QUERY's reformulation through the EMBL -> EMP mapping
EMP_QUERY = "SearchFor(x? : (x?, EMP#SystematicName, %Aspergillus%))"


@pytest.fixture
def mapped_engine(fig2_network):
    """Figure 2 deployment with its mapping, plus an engine."""
    net, embl, emp = fig2_network
    engine = net.create_engine(domain="bio")
    net.create_mapping(embl, emp, [("Organism", "SystematicName")])
    net.settle()
    return net, engine


class TestEngineSearchFor:
    def test_matches_iterative_strategy(self, mapped_engine):
        net, engine = mapped_engine
        baseline = net.search_for(ORGANISM_QUERY, strategy="iterative")
        outcome = engine.search_for(ORGANISM_QUERY)
        assert outcome.results == baseline.results
        assert outcome.strategy == "engine"
        assert outcome.reformulations_explored == \
            baseline.reformulations_explored == 1

    def test_results_attributed_per_reformulation(self, mapped_engine):
        net, engine = mapped_engine
        outcome = engine.search_for(ORGANISM_QUERY)
        by_predicate = {
            query.patterns[0].predicate: rows
            for query, rows in outcome.results_by_query.items()
        }
        assert {URI("EMBL#Organism"), URI("EMP#SystematicName")} == \
            set(by_predicate)
        assert all(rows for rows in by_predicate.values())

    def test_accepts_surface_syntax_and_parsed_queries(
            self, mapped_engine):
        _net, engine = mapped_engine
        from_string = engine.search_for(ORGANISM_QUERY)
        from_parsed = engine.search_for(parse_search_for(ORGANISM_QUERY))
        assert from_string.results == from_parsed.results

    def test_repeated_query_skips_planner(self, mapped_engine):
        _net, engine = mapped_engine
        engine.search_for(ORGANISM_QUERY)
        engine.search_for(ORGANISM_QUERY)
        engine.search_for(ALPHA_VARIANT)
        assert engine.stats.planner_invocations == 1
        assert engine.stats.cache.hits == 2

    def test_outcome_carries_messages_and_latency(self, mapped_engine):
        # pinned origin: peer-0 does not own the pattern key spaces,
        # so resolution must actually cross the network
        _net, engine = mapped_engine
        outcome = engine.search_for(ORGANISM_QUERY, origin="peer-0")
        assert outcome.messages > 0
        assert outcome.latency > 0.0


def answers_built(engine, batch, monkeypatch) -> list:
    """The query of every :class:`Answer` one batch builds."""
    built = []
    real_init = Answer.__init__

    def counting(answer, query):
        built.append(query)
        real_init(answer, query)

    monkeypatch.setattr(Answer, "__init__", counting)
    engine.execute_batch(batch)
    monkeypatch.undo()
    return built


class TestSharedAnswers:
    def test_one_answer_per_distinct_reformulation(self, mapped_engine,
                                                   monkeypatch):
        _net, engine = mapped_engine
        batch = [ORGANISM_QUERY, ORGANISM_QUERY, EMP_QUERY, ALPHA_VARIANT]
        built = answers_built(engine, batch, monkeypatch)
        uses = [reformulation.query for query in batch
                for reformulation in engine.plan(parse_search_for(query))]
        assert len(uses) == 7
        assert sorted(built, key=repr) == sorted(set(uses), key=repr)

    def test_an_answer_between_two_uses_ends_the_sharing(
            self, mapped_engine, monkeypatch):
        # ALPHA_VARIANT's answers read the same two scans as
        # ORGANISM_QUERY's.  Sharing the EMP answer with the last query
        # would close it ahead of ALPHA_VARIANT's EMP answer on their
        # shared scan, which one answer per use would not: the last
        # query gets an EMP answer of its own.
        _net, engine = mapped_engine
        batch = [ORGANISM_QUERY, ORGANISM_QUERY, ALPHA_VARIANT, EMP_QUERY]
        built = answers_built(engine, batch, monkeypatch)
        emp = parse_search_for(EMP_QUERY)
        assert len(built) == 5
        assert built.count(emp) == 2

    def test_a_shared_answer_feeds_every_query_using_it(self,
                                                        mapped_engine):
        _net, engine = mapped_engine
        result = engine.execute_batch(
            [ORGANISM_QUERY, ORGANISM_QUERY, EMP_QUERY])
        first, second, emp = result.outcomes
        assert first.results_by_query == second.results_by_query
        emp_query = parse_search_for(EMP_QUERY)
        assert emp.results_by_query == {
            emp_query: first.results_by_query[emp_query]}


class TestBatchExecution:
    def test_batch_dedupes_repeated_queries(self, mapped_engine):
        _net, engine = mapped_engine
        batch = [ORGANISM_QUERY] * 4
        result = engine.execute_batch(batch)
        # 4 queries x 2 reformulations x 1 pattern, fetched twice
        assert result.patterns_total == 8
        assert result.patterns_fetched == 2
        assert result.lookups_saved == 6

    def test_alpha_variants_share_lookups(self, mapped_engine):
        _net, engine = mapped_engine
        result = engine.execute_batch([ORGANISM_QUERY, ALPHA_VARIANT])
        assert result.patterns_fetched == 2
        outcomes = result.outcomes
        assert outcomes[0].results == outcomes[1].results
        assert len(outcomes[0].results) == 3

    def test_batch_matches_individual_execution(self, mapped_engine):
        net, engine = mapped_engine
        queries = [
            ORGANISM_QUERY,
            "SearchFor(x? : (x?, EMP#SystematicName, %Aspergillus%))",
            "SearchFor(x? : (x?, EMBL#Organism, %cerevisiae%))",
        ]
        expected = [net.search_for(q, strategy="iterative")
                    for q in queries]
        result = engine.execute_batch(queries)
        for outcome, baseline in zip(result.outcomes, expected):
            assert outcome.results == baseline.results

    def test_batch_saves_messages_over_sequential(self, fig2_network):
        net, embl, emp = fig2_network
        net.create_mapping(embl, emp, [("Organism", "SystematicName")])
        net.settle()
        batch = [ORGANISM_QUERY] * 6
        sequential = net.create_engine(domain="bio", cache_capacity=0)
        messages_sequential = 0
        for query in batch:
            messages_sequential += sequential.search_for(query).messages
        batched = net.create_engine(domain="bio")
        result = batched.execute_batch(batch)
        assert result.messages < messages_sequential

    def test_conjunctive_batch_shares_common_pattern(self, fig2_network):
        net, _embl, _emp = fig2_network
        net.settle()
        conjunctive = ("SearchFor(x?, y? : (x?, EMBL#Organism, "
                       "%Aspergillus%) AND (x?, EMBL#SeqLength, y?))")
        single = "SearchFor(z? : (z?, EMBL#Organism, %Aspergillus%))"
        engine = net.create_engine(domain="bio")
        result = engine.execute_batch([conjunctive, single])
        # the organism pattern is shared (alpha-renamed) between both
        assert result.patterns_total == 3
        assert result.patterns_fetched == 2

    def test_empty_batch(self, mapped_engine):
        _net, engine = mapped_engine
        result = engine.execute_batch([])
        assert result.outcomes == []
        assert result.patterns_total == 0

    def test_stats_accumulate_across_batches(self, mapped_engine):
        _net, engine = mapped_engine
        engine.execute_batch([ORGANISM_QUERY, ORGANISM_QUERY])
        engine.execute_batch([ORGANISM_QUERY])
        stats = engine.stats
        assert stats.batches_executed == 2
        assert stats.queries_executed == 3
        assert stats.patterns_total == 6
        assert stats.patterns_fetched == 4
        assert stats.lookups_saved == 2
        assert 0.0 < stats.dedup_rate < 1.0

    def test_fresh_mapping_visible_before_settle(self, fig2_network):
        """The mirror reflects issued mappings immediately."""
        net, embl, emp = fig2_network
        engine = net.create_engine(domain="bio")
        net.create_mapping(embl, emp, [("Organism", "SystematicName")])
        # no settle: the overlay records may still be replicating, but
        # the engine's plan already includes the reformulation
        plan = engine.plan(parse_search_for(ORGANISM_QUERY))
        assert len(plan) == 2
