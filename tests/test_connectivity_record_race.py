"""Pins a known defect: connectivity records are last-*arrival*-wins.

A schema peer republishes ``{Schema, InDegree, OutDegree}`` with one
``update(domain_key, record)`` per degree change
(``GridVinePeer._republish_connectivity``), and the domain key-space
holder keeps whichever record *arrives* last
(``GridVinePeer.local_insert``).  Two successive updates from the same
publisher race through the overlay, so the holder can end up with the
older one: on the fixture below ``peer-6`` last published
``EMBL (1, 1)`` but ``peer-27`` stores ``EMBL (0, 1)``, and
``connectivity_indicator`` reads -0.125 where the true degrees give
0.0.  The §3.1 indicator steers the self-organization loop, so the fix
belongs in its own PR with a deliberate re-record of E3/E4/E5; until
then this test documents the gap and turns red the day it closes.
"""

import pytest

from repro.datagen import BioDatasetGenerator
from repro.mediation.network import GridVineNetwork


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ConnectivityRecord updates are last-arrival-wins")
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
    published = {}
    for peer in net.peers.values():
        published.update(peer._published_connectivity)
    stored = {record.schema_name: record
              for record in net.connectivity_records(dataset.domain)}
    assert stored == published
