"""Connectivity records: the domain holder keeps the newest version.

A schema peer republishes ``{Schema, InDegree, OutDegree}`` with one
``update(domain_key, (record,))`` per degree change
(``GridVinePeer._republish_connectivity``), and two successive updates
from one publisher race through the overlay.  When the holder kept the
last *arrival*, the fixture below ended with ``peer-27`` storing
``EMBL (0, 1)`` although ``peer-6`` last published ``EMBL (1, 1)``, and
``connectivity_indicator`` read -0.125 where the true degrees give 0.0.
Each record now carries a ``(sequence, publisher)`` version, and the
holder keeps the highest one per schema whatever the arrival order.
"""

from repro.datagen import BioDatasetGenerator
from repro.mediation.keys import domain_key
from repro.mediation.network import GridVineNetwork
from repro.mediation.peer import GridVinePeer
from repro.mediation.records import ConnectivityRecord
from repro.simnet.network import SimNetwork
from repro.util.keys import Key


def test_domain_holder_stores_the_last_published_record():
    dataset = BioDatasetGenerator(
        num_schemas=8, num_entities=80, entities_per_schema=25, seed=3,
    ).generate()
    net = GridVineNetwork.build(num_peers=32, seed=11)
    for schema in dataset.schemas:
        net.insert_schema(schema)
    net.insert_mapping(
        dataset.ground_truth_mapping(dataset.schemas[0].name,
                                     dataset.schemas[1].name),
        bidirectional=True)
    net.settle()
    newest = {}
    for peer in net.peers.values():
        for name, record in peer._published_connectivity.items():
            if name not in newest or record.version > newest[name].version:
                newest[name] = record
    stored = {record.schema_name: record
              for record in net.connectivity_records(dataset.domain)}
    assert stored == newest
    assert net.connectivity_indicator(dataset.domain) == 0.0


def test_a_joined_holder_continues_the_schema_sequence():
    """A peer joining a schema's replica group publishes nothing for
    the cloned degrees, and once every older holder has left, its
    next record still outranks theirs at the domain holder."""
    dataset = BioDatasetGenerator(
        num_schemas=8, num_entities=80, entities_per_schema=25, seed=3,
    ).generate()
    names = [schema.name for schema in dataset.schemas]
    net = GridVineNetwork.build(num_peers=12, replication=2, seed=5)
    for schema in dataset.schemas:
        net.insert_schema(schema)
    for source, target in zip(names, names[1:]):
        net.insert_mapping(dataset.ground_truth_mapping(source, target),
                           bidirectional=True)
    # The holders publish a record per change, a removed mapping's
    # too; a clone of their store replays only the changes still there.
    for source, target in zip(names, names[2:]):
        passing = dataset.ground_truth_mapping(source, target)
        net.insert_mapping(passing, bidirectional=True)
        net.remove_mapping(passing)
    net.settle()
    metrics = net.network.metrics
    sent = metrics.messages_sent
    for index in range(len(net.peers)):
        newcomer = net.join(f"newcomer-{index}")
        if newcomer.local_schemas:
            break
    net.settle()
    assert metrics.messages_sent == sent  # the clones published nothing
    name = sorted(newcomer.local_schemas)[0]
    for node_id in newcomer.replicas:
        net.leave(node_id)
    other = next(n for n in names if n != name
                 and n not in newcomer.local_schemas)
    degrees = newcomer._local_degree(name)
    # Issued at the newcomer: no routing table elsewhere references it,
    # so an insert routed from another origin could not reach it once
    # the older holders left.
    net.insert_mapping(dataset.ground_truth_mapping(name, other),
                       origin=newcomer.node_id)
    net.settle()
    assert newcomer._local_degree(name) != degrees
    stored = {record.schema_name: record
              for record in net.connectivity_records(dataset.domain)}
    assert stored[name].degree_pair == newcomer._local_degree(name)
    assert stored[name].version[1] == newcomer.node_id


def test_an_older_version_arriving_later_is_dropped():
    """Two versions delivered newest first: the holder keeps the newer
    one, through replication and through anti-entropy alike."""
    network = SimNetwork()
    publisher = GridVinePeer("publisher", Key("1"))
    holder = GridVinePeer("holder", Key(""))
    network.attach(publisher)
    network.attach(holder)
    key = domain_key("bio")
    older = ConnectivityRecord("EMBL", 0, 1, version=(1, "publisher"))
    newer = ConnectivityRecord("EMBL", 1, 1, version=(2, "publisher"))
    other = ConnectivityRecord("EMP", 1, 0, version=(1, "publisher"))
    for record in (newer, other, older):
        publisher.send("holder", "replicate", {
            "op": "insert", "groups": {key.bits: (record,)}})
    network.loop.run_until_idle()
    assert holder.local_retrieve(key) == [newer, other]
    holder.local_merge(key, older)
    holder.local_insert(key, newer)  # a duplicate delivery
    assert holder.local_retrieve(key) == [newer, other]
    # A newer version still replaces the stored one.
    newest = ConnectivityRecord("EMBL", 1, 2, version=(3, "publisher"))
    holder.local_insert(key, newest)
    assert holder.local_retrieve(key) == [other, newest]
