"""E10 (ablation) — §2.1: decentralized trie construction.

Paper claim: P-Grid is "a self-organizing and distributed access
structure" that "associates logical peers ... with data keys from a
binary key space".  The reproduction offers two construction modes
(docs/ARCHITECTURE.md, ``repro.pgrid``): the top-down sample-driven
builder used by default, and the decentralized pairwise-exchange
protocol of the original P-Grid work.  This ablation shows the
decentralized process converges to a structure with the same routing
properties the top-down builder produces directly:

* paths become (nearly) prefix-free and cover the key space;
* mean path depth lands near ``log2(n)``;
* a routing table derived from the converged paths resolves retrieves
  with the same hop profile.
"""

import random

from conftest import report, run_once
from record import record

from repro.pgrid.construction import (
    _stream_seed,
    assign_paths,
    build_by_exchanges,
    populate_routing_tables,
)
from repro.pgrid.peer import PGridPeer
from repro.simnet.network import SimNetwork
from repro.util.hashing import uniform_hash
from repro.util.stats import mean


def overlay_from_assignment(assignment, seed):
    """Wire a live overlay from any node-id -> path assignment."""
    network = SimNetwork(rng=random.Random(seed))
    peers = {}
    for node_id, path in sorted(assignment.items()):
        peer = PGridPeer(node_id, path,
                         rng=_stream_seed(seed, "peer", node_id))
        network.attach(peer)
        peers[node_id] = peer
    populate_routing_tables(peers, rng=random.Random(seed))
    return network, peers


def measure(network, peers, probes, seed):
    rng = random.Random(seed)
    ids = sorted(peers)
    keys = [uniform_hash(f"probe-{i}") for i in range(probes)]
    origin = peers[ids[0]]
    for i, key in enumerate(keys):
        network.loop.run_until_complete(origin.update(key, (i,)))
    network.loop.run_until_idle()
    hops = []
    failures = 0
    for i, key in enumerate(keys):
        result = network.loop.run_until_complete(
            peers[rng.choice(ids)].retrieve(key))
        if not result.success or i not in (result.values or []):
            failures += 1
        hops.append(result.hops)
    return mean(hops), failures


def test_e10_exchange_vs_topdown(benchmark, scale):
    sizes = [32, 64] if scale == "quick" else [32, 64, 128, 256]
    probes = 60

    def run():
        rows = []
        for n in sizes:
            exchange_paths = build_by_exchanges(n, rng=random.Random(n))
            topdown_paths = assign_paths(n, rng=random.Random(n))
            ex_net, ex_peers = overlay_from_assignment(exchange_paths, n)
            td_net, td_peers = overlay_from_assignment(topdown_paths, n)
            ex_hops, ex_failures = measure(ex_net, ex_peers, probes, n)
            td_hops, td_failures = measure(td_net, td_peers, probes, n)
            ex_depth = mean([len(p) for p in exchange_paths.values()])
            td_depth = mean([len(p) for p in topdown_paths.values()])
            distinct = len({p.bits for p in exchange_paths.values()})
            rows.append((n, ex_depth, td_depth, ex_hops, td_hops,
                         ex_failures, td_failures, distinct))
        return rows

    rows = run_once(benchmark, run)
    report("E10", f"{'peers':>6} {'exch depth':>11} {'topdn depth':>12} "
                  f"{'exch hops':>10} {'topdn hops':>11} "
                  f"{'exch fail':>10} {'topdn fail':>11} {'paths':>6}")
    for n, ed, td, eh, th, ef, tf, distinct in rows:
        report("E10", f"{n:>6} {ed:>11.2f} {td:>12.2f} {eh:>10.2f} "
                      f"{th:>11.2f} {ef:>10} {tf:>11} {distinct:>6}")
    record("E10", scale=scale, totals={"probes": probes}, runs=[
        {"peers": n,
         "exchange_depth": round(ed, 4), "topdown_depth": round(td, 4),
         "exchange_hops": round(eh, 4), "topdown_hops": round(th, 4),
         "exchange_failures": ef, "topdown_failures": tf,
         "distinct_paths": distinct}
        for n, ed, td, eh, th, ef, tf, distinct in rows])

    import math
    for n, ex_depth, td_depth, ex_hops, td_hops, ex_f, td_f, distinct in rows:
        # both builders land near log2(n) depth and resolve everything
        assert abs(ex_depth - math.log2(n)) <= 2.5
        assert ex_f == 0 and td_f == 0
        # exchange construction individualizes almost every peer
        assert distinct >= 0.8 * n
        # hop profiles comparable (within 2 hops of each other)
        assert abs(ex_hops - td_hops) <= 2.0
