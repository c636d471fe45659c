"""Determinism across processes: a seeded deployment reports the same
counts in any interpreter.

Terms and triples are interned and hash by identity, so a set of them
iterates in an order that follows object addresses — it differs
between processes even at one ``PYTHONHASHSEED``.  Nothing observable
may follow it.  The child below loads a corpus, searches with every
strategy, runs one self-organization round and one anti-entropy push
round after dropping a few stored copies; two children with different
hash seeds, one of which shifts every later address by allocating
filler objects first, must report identical observables — message
counts, result rows, connectivity records, repairs, and a digest of
every store in bucket order (the most order-sensitive of them: a
write that grouped its triples in set order changes it).
"""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

CHILD = r"""
import hashlib, json, random, sys

filler = [[i] for i in range(int(sys.argv[1]))]

from repro.datagen import BioDatasetGenerator, QueryWorkloadGenerator
from repro.mediation.network import GridVineNetwork
from repro.pgrid.maintenance import MaintenanceProcess
from repro.rdf.triples import Triple
from repro.selforg import SelfOrganizationController
from repro.util.keys import Key

dataset = BioDatasetGenerator(num_schemas=4, num_entities=30,
                              entities_per_schema=10, seed=17).generate()
net = GridVineNetwork.build(num_peers=64, replication=2, seed=17)
for schema in dataset.schemas:
    net.insert_schema(schema)
net.insert_triples(dataset.triples)
names = [schema.name for schema in dataset.schemas]
net.insert_mapping(dataset.ground_truth_mapping(names[0], names[1]))
net.settle()

rows = []
origin = net.peer_ids()[3]
engine = net.create_engine(domain=dataset.domain)
for query in QueryWorkloadGenerator(dataset, seed=4).queries(3):
    outcomes = [net.search_for(query, strategy=strategy, origin=origin)
                for strategy in ("local", "iterative", "recursive")]
    outcomes.append(engine.search_for(query, origin=origin))
    rows += [[outcome.strategy, outcome.messages,
              sorted(map(str, outcome.results))] for outcome in outcomes]

report = SelfOrganizationController(net, domain=dataset.domain).step()

# Drop a few stored triple copies so the push round repairs them.
dropped = 0
for node_id in net.peer_ids()[:6]:
    peer = net.peers[node_id]
    for bits, values in sorted(peer.store.items())[:2]:
        triple = next((v for v in values if type(v) is Triple), None)
        if triple is not None:
            dropped += peer.local_remove(Key(bits), triple)
maintenance = MaintenanceProcess(net.peers, interval=10.0,
                                 rng=random.Random(5))
for node_id in net.peer_ids():
    maintenance._push_to_replica(net.peers[node_id])
net.settle()

# Every store, bucket by bucket in stored order.
stores = hashlib.sha256("\n".join(
    f"{node_id} {bits} {values!r}"
    for node_id in net.peer_ids()
    for bits, values in sorted(net.peers[node_id].store.items())
).encode()).hexdigest()

print(json.dumps({
    "messages_by_kind": net.metrics_snapshot()["messages_by_kind"],
    "rows": rows,
    "round": [sorted(report.created), sorted(report.deprecated),
              report.ci_after],
    "connectivity": [[r.schema_name, r.degree_pair, list(r.version)]
                     for r in net.connectivity_records(dataset.domain)],
    "dropped": dropped,
    "stores": stores,
    "values_repaired": sum(p.maintenance_stats.values_repaired
                           for p in net.peers.values()),
}, sort_keys=True))
"""


def run_child(hash_seed: str, filler: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(
                   [SRC, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", CHILD, str(filler)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_two_processes_report_the_same_deployment():
    first = run_child("1", 0)
    second = run_child("2", 50_000)
    assert first["values_repaired"] > 0
    assert first["dropped"] > 0
    assert first == second
