"""Shared fixtures for the GridVine reproduction test suite."""

import pytest

from repro import GridVineNetwork, Literal, Schema, Triple, URI


@pytest.fixture
def small_network():
    """A 16-peer network with constant latency (fast, deterministic)."""
    return GridVineNetwork.build(num_peers=16, seed=7)


@pytest.fixture
def fig2_network(small_network):
    """The Figure 2 setup: EMBL + EMP schemas, data, no mapping yet.

    Returns ``(network, embl_schema, emp_schema)``.
    """
    net = small_network
    embl = Schema("EMBL", ["Organism", "SeqLength"], domain="bio")
    emp = Schema("EMP", ["SystematicName", "Length"], domain="bio")
    net.insert_schema(embl)
    net.insert_schema(emp)
    net.insert_triples([
        Triple(URI("EMBL:A78712"), URI("EMBL#Organism"),
               Literal("Aspergillus niger")),
        Triple(URI("EMBL:A78767"), URI("EMBL#Organism"),
               Literal("Aspergillus awamori")),
        Triple(URI("EMBL:X99012"), URI("EMBL#Organism"),
               Literal("Saccharomyces cerevisiae")),
        Triple(URI("EMP:NEN94295-05"), URI("EMP#SystematicName"),
               Literal("Aspergillus oryzae")),
    ])
    net.settle()
    return net, embl, emp


@pytest.fixture(scope="session")
def bio_dataset():
    """A small generated corpus shared by selforg/datagen tests."""
    from repro.datagen import BioDatasetGenerator
    return BioDatasetGenerator(
        num_schemas=8, num_entities=80, entities_per_schema=25, seed=3,
    ).generate()


@pytest.fixture
def record_calls():
    """``record_calls(net)`` logs every later ``net.call`` — the facade's
    own and a controller's — as ``(method, attributed, sent_at_return,
    sent_settled)``: the operation's attributed message count, and the
    deployment-wide ``messages_sent`` delta when the call returned and
    after settling.  It settles after every call, so on a deployment
    without timers each operation starts on a quiet network."""
    def install(net):
        log = []
        call = net.call

        def sent():
            return net.metrics_snapshot()["messages_sent"]

        def recording(method, *args, origin=None):
            before = sent()
            result = call(method, *args, origin=origin)
            at_return = sent() - before
            net.settle()
            log.append((method, result[1], at_return, sent() - before))
            return result

        net.call = recording
        return log
    return install
