#!/usr/bin/env python3
"""Churn resilience: probabilistic guarantees in a dynamic network.

§2.1: P-Grid's "Retrieve and Update operations provide probabilistic
guarantees for data consistency and are efficient even in highly
unreliable, dynamic environments."

This example deploys a replicated GridVine network, turns on both a
churn process (peers crash and recover continuously) and the overlay
maintenance loop (reference probing + replica anti-entropy), and
measures query success rates over time — with and without maintenance,
so the repair machinery's contribution is visible.

Run:  python examples/churn_resilience.py [--peers N] [--uptime S]
"""

import argparse
import random

from repro import GridVineNetwork, Literal, Schema, Triple, URI
from repro.obs.registry import MaintenanceCounters
from repro.pgrid.maintenance import MaintenanceProcess
from repro.simnet.churn import ChurnProcess


def deploy(num_peers, seed):
    net = GridVineNetwork.build(num_peers=num_peers, seed=seed,
                                replication=3, timeout=4.0, max_retries=1)
    schema = Schema("S", ["organism", "accession"], domain="churn-demo")
    net.insert_schema(schema)
    triples = []
    for i in range(60):
        triples.append(Triple(URI(f"S:e{i}"), URI("S#organism"),
                              Literal(f"Aspergillus strain {i:03d}")))
        triples.append(Triple(URI(f"S:e{i}"), URI("S#accession"),
                              Literal(f"P{10000 + i}")))
    net.insert_triples(triples)
    net.settle()
    return net


def run_epochs(net, origin, use_maintenance, departures_per_epoch, seed,
               epochs=6, epoch_length=300.0, queries_per_epoch=40):
    """Stage permanent departures; return per-epoch success rates.

    Each epoch a few peers leave *forever* (disk died, user gone).
    Without maintenance, routing tables silently rot: once every
    reference a peer holds toward some subtree is dead, queries into
    that subtree dead-end.  The maintenance loop detects the dead
    references and discovers live replicas of the departed peers
    through routed lookups, keeping the trie navigable.
    """
    maintenance = None
    if use_maintenance:
        maintenance = MaintenanceProcess(net.peers, interval=20.0,
                                         probe_timeout=4.0,
                                         rng=random.Random(seed))
        maintenance.start()
    rng = random.Random(seed + 1)
    rates = []
    departed: set[str] = set()
    candidates = [p for p in net.peer_ids() if p != origin]
    rng.shuffle(candidates)
    for _epoch in range(epochs):
        for _d in range(departures_per_epoch):
            if candidates:
                victim = candidates.pop()
                net.network.set_online(victim, False)
                departed.add(victim)
        net.loop.run_until(net.loop.now + epoch_length)
        answered = 0
        for _q in range(queries_per_epoch):
            i = rng.randrange(60)
            out = net.search_for(
                f'SearchFor(x? : (x?, S#organism, "Aspergillus strain '
                f'{i:03d}"))',
                strategy="local", origin=origin)
            if out.result_count == 1:
                answered += 1
        rates.append(answered / queries_per_epoch)
    if maintenance is not None:
        maintenance.stop()
    return rates, len(departed)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--peers", type=int, default=48)
    parser.add_argument("--departures", type=int, default=3,
                        help="permanent departures per epoch")
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()

    print(f"deploying {args.peers} peers, replication 3; "
          f"{args.departures} peers leave permanently each epoch\n")
    results = {}
    for use_maintenance in (False, True):
        net = deploy(args.peers, args.seed)
        origin = net.peer_ids()[0]
        rates, departed = run_epochs(net, origin, use_maintenance,
                                     args.departures, args.seed)
        label = "with maintenance" if use_maintenance else "no maintenance"
        results[label] = rates
        totals = MaintenanceCounters.total(
            p.maintenance_stats for p in net.peers.values()).snapshot()
        stats_total = {k: totals[k] for k in
                       ("refs_dropped", "refs_added", "values_repaired")}
        print(f"{label}: {departed} peers departed over the run")
        print("  per-epoch query success: "
              + "  ".join(f"{r:.0%}" for r in rates))
        if use_maintenance:
            print(f"  repair totals: {stats_total}")
        print()

    mean_without = sum(results["no maintenance"]) / 6
    mean_with = sum(results["with maintenance"]) / 6
    print(f"mean success: {mean_without:.0%} without vs "
          f"{mean_with:.0%} with maintenance")


if __name__ == "__main__":
    main()
