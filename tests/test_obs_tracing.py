"""Integration tests: causal traces across queries, shards and faults.

The load-bearing invariant (the ISSUE's acceptance criterion): with
tracing enabled, one query produces **one connected trace whose message
spans cover exactly the messages the metrics plane attributes to the
query's op tag** — tracer hooks sit at the same code gates as the
attribution counters, so the two planes can never drift.
"""

import pytest

from repro.mediation.network import GridVineNetwork
from repro.obs.analysis import (
    connected_components,
    events_of,
    spans_of,
    trace_ids,
)
from repro.pgrid.peer import PGridPeer
from repro.rdf.terms import Literal, URI
from repro.rdf.triples import Triple
from repro.schema.model import Schema
from repro.selforg import SelfOrganizationController
from repro.simnet.latency import ConstantLatency
from repro.simnet.shard import ShardedTransport
from repro.util.keys import Key

QUERY = "SearchFor(x? : (x?, S0#org, %Aspergillus%))"


def build_corpus(seed=29):
    """A miniature of the E13 bench corpus: mapped chain S0 -> S1."""
    net = GridVineNetwork.build(num_peers=32, seed=seed)
    schemas = [Schema(f"S{i}", ["org", "len"], domain="e13")
               for i in range(2)]
    for schema in schemas:
        net.insert_schema(schema)
    triples = []
    for schema in schemas:
        for j in range(6):
            organism = "Aspergillus" if j % 3 == 0 else "Yeast"
            subject = URI(f"{schema.name}:e{j}")
            triples.append(Triple(subject, URI(f"{schema.name}#org"),
                                  Literal(f"{organism}-{j}")))
            triples.append(Triple(subject, URI(f"{schema.name}#len"),
                                  Literal(str(100 + j))))
    net.insert_triples(triples)
    net.create_mapping(schemas[0], schemas[1],
                       [("org", "org"), ("len", "len")])
    net.settle()
    return net


def assert_trace_well_formed(records, trace):
    """Connected, fully closed, and every span id is unique."""
    spans = spans_of(records, trace)
    assert spans, trace
    assert connected_components(spans) == 1
    assert all(s["end"] is not None for s in spans)
    assert all(s["status"] != "open" for s in spans)
    ids = [s["span"] for s in spans]
    assert len(ids) == len(set(ids))


class TestQueryTraces:
    def test_query_trace_covers_attributed_messages_exactly(self):
        net = build_corpus()
        tracer = net.install_tracer()
        out = net.search_for(QUERY)
        records = net.trace_records()
        traces = trace_ids(records)
        assert len(traces) == 1
        trace = traces[0]
        assert trace.startswith("op:")
        assert_trace_well_formed(records, trace)
        message_spans = [s for s in spans_of(records, trace)
                         if s["kind"] == "message"]
        # The trace plane and the metrics plane agree *exactly*: both
        # hooks sit at the same gate in SimNetwork.send.
        assert out.messages > 0
        assert len(message_spans) == out.messages
        root = next(s for s in spans_of(records, trace)
                    if s["parent"] is None)
        assert root["status"] == "ok"
        assert tracer.dropped == 0

    def test_batch_trace_covers_attributed_messages_exactly(self):
        net = build_corpus()
        net.install_tracer()
        engine = net.create_engine(domain="e13")
        result = engine.execute_batch([
            QUERY, "SearchFor(x? : (x?, S1#org, %Yeast%))"])
        records = net.trace_records()
        # The engine's backfill crawl was traced operations too; the
        # batch is the one rooted at its peer method.
        (trace,) = [s["trace"] for s in records
                    if s["type"] == "span" and s["parent"] is None
                    and s["name"] == "op:execute_planned_batch"]
        assert_trace_well_formed(records, trace)
        message_spans = [s for s in spans_of(records, trace)
                         if s["kind"] == "message"]
        assert result.messages > 0
        assert len(message_spans) == result.messages

    def test_every_write_read_and_controller_fetch_is_one_exact_trace(
            self, record_calls):
        net = build_corpus()
        mapping, = net.mapping_graph("e13").outgoing("S0")
        net.insert_schema(Schema("S2", ["org", "len"], domain="e13"))
        net.insert_triples([Triple(URI("S2:e0"), URI("S2#org"),
                                   Literal("Aspergillus-0"))])
        net.settle()
        net.install_tracer()
        log = record_calls(net)
        net.deprecate_mapping(mapping)
        net.insert_mapping(mapping)
        report = SelfOrganizationController(net, domain="e13").step()
        net.remove_mapping(mapping)
        assert report.ci_before < 0.0 and report.created
        assert {method for method, *_ in log} >= {
            "deprecate_mapping", "insert_mapping", "remove_mapping",
            "fetch_connectivity", "retrieve_many"}
        records = net.trace_records()
        # One trace per call, ids in submit order.
        traces = sorted(trace_ids(records), key=lambda t: int(t[3:]))
        assert len(traces) == len(log)
        for trace, (method, attributed, at_return, settled) in zip(traces,
                                                                  log):
            assert_trace_well_formed(records, trace)
            spans = spans_of(records, trace)
            root, = [s for s in spans if s["parent"] is None]
            assert root["name"] == f"op:{method}"
            # The trace follows the operation's whole causal chain; the
            # single loop's counter stops when the call returns (see
            # test_facade_engine for the tail a mapping mutation has).
            assert attributed == at_return <= settled
            assert sum(1 for s in spans if s["kind"] == "message") == settled

    def test_concurrent_queries_never_share_spans(self):
        net = build_corpus()
        net.install_tracer()
        first = net.search_for(QUERY)
        second = net.search_for(
            "SearchFor(x? : (x?, S1#org, %Yeast%))")
        records = net.trace_records()
        traces = trace_ids(records)
        assert len(traces) == 2
        for trace, outcome in zip(traces, (first, second)):
            assert_trace_well_formed(records, trace)
            assert sum(1 for s in spans_of(records, trace)
                       if s["kind"] == "message") == outcome.messages

    def test_traces_are_bit_identical_across_runs(self):
        def run():
            net = build_corpus()
            net.install_tracer()
            net.search_for(QUERY)
            return net.trace_records()

        assert run() == run()

    def test_registry_views_include_network_and_tracer(self):
        net = build_corpus()
        net.install_tracer()
        net.search_for(QUERY)
        snap = net.registry.snapshot()
        assert "network" in snap["views"]
        assert snap["views"]["tracer"]["spans"] > 0
        assert snap["views"]["tracer"]["dropped"] == 0

    def test_untraced_runs_record_nothing(self):
        net = build_corpus()
        out = net.search_for(QUERY)
        assert out.messages > 0
        assert net.trace_records() == []
        assert net.network.tracer is None


def run_fault_retry(num_shards, mode):
    """A dropped-then-retried route: the origin's first attempt hits an
    offline responsible peer; the timeout retry (after recovery)
    succeeds.  Returns (completed summary, trace records)."""
    transport = ShardedTransport(num_shards,
                                 latency=ConstantLatency(0.05),
                                 seed=3, mode=mode)
    a = PGridPeer("peer-a", Key("0"))
    b = PGridPeer("peer-b", Key("1"))
    a.routing_table[0] = ["peer-b"]
    b.routing_table[0] = ["peer-a"]
    b.local_insert(Key("1"), "needle")
    transport.add_peer(a, 0)
    transport.add_peer(b, num_shards - 1)
    transport.set_online_at(0.2, "peer-b", False)
    transport.set_online_at(5.0, "peer-b", True)
    transport.install_tracer()
    transport.start()
    transport.run_until(1.0)
    transport.submit("peer-a", "retrieve", Key("1"))
    # Barrier between the recovery toggle (5.0) and the retry timer
    # (16.0): remote liveness maps publish window-start state, so the
    # retry only sees the recovery after a barrier past 5.0.
    transport.run_until(6.0)
    transport.run_until_quiescent()
    transport.stop()
    return dict(transport.completed), transport.trace_records()


class TestFaultRetryTrace:
    def test_failed_attempt_and_retry_are_sibling_spans(self):
        completed, records = run_fault_retry(1, "inline")
        assert completed[0][:2] == (True, 1)  # found the needle
        traces = trace_ids(records)
        assert len(traces) == 1
        assert_trace_well_formed(records, traces[0])
        attempts = [s for s in spans_of(records, traces[0])
                    if s["kind"] == "attempt"]
        assert [s["name"] for s in attempts] == [
            "attempt:1", "attempt:2"]
        failed, retried = attempts
        assert failed["status"] == "timeout"
        assert retried["status"] == "ok"
        assert failed["parent"] == retried["parent"]  # siblings
        event_names = {e["name"] for e in events_of(records, traces[0])}
        assert "drop:offline" in event_names
        assert "failover" in event_names
        # The retry's hops made it through.
        hops = [s["name"] for s in spans_of(records, traces[0])
                if s["kind"] == "message"]
        assert hops == ["msg:route", "msg:reply"]

    def test_identical_across_runs_shard_counts_and_modes(self):
        completed, baseline = run_fault_retry(1, "inline")
        for num_shards, mode in ((1, "inline"), (2, "inline"),
                                 (2, "process")):
            again, records = run_fault_retry(num_shards, mode)
            assert again == completed, (num_shards, mode)
            assert records == baseline, (num_shards, mode)


@pytest.mark.parametrize("mode", ["inline", "process"])
def test_sharded_trace_export_is_deterministic(tmp_path, mode):
    from repro.obs.tracer import export_records_jsonl

    _completed, records = run_fault_retry(2, mode)
    path = tmp_path / f"{mode}.jsonl"
    export_records_jsonl(records, str(path))
    assert path.read_text() == "".join(
        __import__("json").dumps(r, sort_keys=True) + "\n"
        for r in records)
