"""E1 — Figure 2: query reformulation across a schema mapping.

Paper claim (Fig. 2): the query
``SearchFor(x1? : (x1?, EMBL#Organism, %Aspergillus%))`` is
reformulated through the ``EMBL#Organism -> EMP#SystematicName``
mapping into ``SearchFor(x2? : (x2?, EMP#SystematicName,
%Aspergillus%))``; the aggregate answer is the union
``x1 = {EMBL:A78712, EMBL:A78767}``, ``x2 = NEN94295-05``.

The bench reproduces the figure literally (same identifiers) and
measures the cost of the reformulated query under both strategies.
"""

from conftest import report, run_once
from record import record

from repro import GridVineNetwork, Literal, Schema, Triple, URI
from repro.rdf.parser import parse_search_for

QUERY = "SearchFor(x? : (x?, EMBL#Organism, %Aspergillus%))"


def build_figure2_network():
    net = GridVineNetwork.build(num_peers=64, seed=7)
    embl = Schema("EMBL", ["Organism", "SeqLength"], domain="bio")
    emp = Schema("EMP", ["SystematicName", "Length"], domain="bio")
    net.insert_schema(embl)
    net.insert_schema(emp)
    net.insert_triples([
        Triple(URI("EMBL:A78712"), URI("EMBL#Organism"),
               Literal("Aspergillus niger")),
        Triple(URI("EMBL:A78767"), URI("EMBL#Organism"),
               Literal("Aspergillus awamori")),
        Triple(URI("EMP:NEN94295-05"), URI("EMP#SystematicName"),
               Literal("Aspergillus oryzae")),
    ])
    net.create_mapping(embl, emp, [("Organism", "SystematicName")])
    net.settle()
    return net


def test_e1_figure2_reformulation(benchmark, scale):
    net = build_figure2_network()

    def run():
        return net.search_for(QUERY, strategy="iterative")

    outcome = run_once(benchmark, run)

    expected_x1 = {"<EMBL:A78712>", "<EMBL:A78767>"}
    expected_x2 = {"<EMP:NEN94295-05>"}
    got = {str(r[0]) for r in outcome.results}
    report("E1", f"query: {QUERY}")
    emp_query = parse_search_for(
        "SearchFor(x? : (x?, EMP#SystematicName, %Aspergillus%))")
    x1 = {str(r[0]) for q, rows in outcome.results_by_query.items()
          if q != emp_query for r in rows}
    x2 = {str(r[0]) for r in outcome.results_by_query.get(emp_query, ())}
    report("E1", f"x1 (EMBL answers)          : {sorted(x1)}  "
                 f"(paper: A78712, A78767)")
    report("E1", f"x2 (EMP answers via mapping): {sorted(x2)}  "
                 f"(paper: NEN94295-05)")
    report("E1", f"union size {len(got)} (paper: 3), "
                 f"reformulations {outcome.reformulations_explored} "
                 f"(paper: 1)")
    record("E1", scale=scale, runs=[{
        "query": QUERY, "x1": sorted(x1), "x2": sorted(x2),
        "union": len(got),
        "reformulations": outcome.reformulations_explored,
        "messages": outcome.messages,
        "latency_s": round(outcome.latency, 4),
    }])
    assert got == expected_x1 | expected_x2
    assert x1 == expected_x1
    assert x2 == expected_x2


def test_e1_strategies_agree(benchmark):
    net = build_figure2_network()

    def run():
        return {
            strategy: net.search_for(QUERY, strategy=strategy)
            for strategy in ("local", "iterative", "recursive")
        }

    outcomes = run_once(benchmark, run)
    report("E1", "strategy comparison on Figure 2:")
    for strategy, outcome in outcomes.items():
        report("E1", f"  {strategy:<10} results={outcome.result_count} "
                     f"latency={outcome.latency:.2f}s(sim)")
    assert outcomes["local"].result_count == 2
    assert (outcomes["iterative"].results
            == outcomes["recursive"].results)
