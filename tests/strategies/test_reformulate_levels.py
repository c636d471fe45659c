"""The iterative operator's BFS against the offline plan.

``exec.operators.Reformulate`` walks the mapping graph one level at a
time: a level's schema spaces are one read, and the level is
translated only once every key of it has answered.  On generated
mapping graphs (``reformulation_cases()``: cycles, non-inverse cycles,
dead, deprecated and converging edges) and a drawn order in which the
schema keys answer, at ``STANDARD_SETTINGS``, the operator must

* spawn exactly ``plan_reformulations(query, graph, max_hops)`` — the
  same queries, each once, each at the plan's hop count;
* make at most ``2 * (max_hops + 1)`` reads: per level one schema
  read and one read of the patterns of every subplan it spawned.

No overlay is involved: the peer is a fake whose schema reads wait for
the test, so the order keys answer in is the drawn one.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.exec.operators import Reformulate
from repro.exec.plans import attach_execution_subplan
from repro.exec.stream import Operator, PipelineContext
from repro.mapping.graph import MappingGraph
from repro.mapping.unfolding import query_schemas
from repro.reformulation.planner import plan_reformulations

from strategies import STANDARD_SETTINGS, reformulation_cases
from test_exec_operators import _SchemaSpacePeer


def run_operator(case, order):
    """``(spawned, reads)``: every query the operator spawned, with its
    hop count, in spawn order, and every read the peer saw.

    A subplan's hop count is the number of pattern reads sent before
    it was spawned: each level's subplans send theirs as one read, once
    the level is translated, and every query has a pattern to read.
    """
    peer = _SchemaSpacePeer(case.mappings)
    spawned = []
    sink = Operator("sink")

    def spawn(ctx, query):
        hops = sum(op == "search" for op, _keys in peer.reads)
        spawned.append((query, hops))
        attach_execution_subplan(ctx, query, sink)

    operator = Reformulate(case.query, case.max_hops, spawn)
    operator.connect(sink)
    PipelineContext(peer).start_source(operator)
    peer.resolve_in(order)
    assert operator._closed and sink._closed
    return spawned, peer.reads


@STANDARD_SETTINGS
@given(case=reformulation_cases(), data=st.data())
def test_the_operator_spawns_the_plan_at_its_hops(case, data):
    schemas = sorted(query_schemas(case.query).union(
        *({m.source_schema, m.target_schema} for m in case.mappings)))
    order = data.draw(st.permutations(schemas))
    spawned, reads = run_operator(case, order)
    plan = plan_reformulations(case.query, MappingGraph(case.mappings),
                               case.max_hops)

    assert len(spawned) == len(plan)
    assert dict(spawned) == {r.query: r.hops for r in plan}
    assert len(reads) <= 2 * (case.max_hops + 1)
