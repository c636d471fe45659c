"""E17 (extension) — partition recall with anti-entropy repair on/off.

P-Grid's maintenance layer claims that replica anti-entropy keeps the
"probabilistic guarantees for data consistency" (§2.1) standing when
the network misbehaves.  This bench measures exactly that claim with
the fault lab's deterministic partition machinery
(:mod:`repro.faultlab`):

1. deploy the corpus and insert **wave 1** of the triples while the
   network is healthy;
2. impose a *symmetric partition* that splits every replica group
   across the cut (each leaf keeps exactly one live replica per
   side), with a scheduled heal;
3. insert **wave 2** during the partition from a side-A origin
   through ``insert_triples`` — one split write whose ledger re-issues
   the keys a lost sub-request leaves unconfirmed as one split op —
   then retry the keys that still failed until every record lands; the
   A-side replica of each leaf has it, while the ``replicate`` fan-out
   to the B-side replica dies on the cut: the stores now *disagree*);
4. after the heal plus a fixed convergence window, issue the recall
   panel and measure recall against ground truth.

The A/B knob is the maintenance process (replica anti-entropy
``sync_push`` + routing repair): with it ON, the healed B-side
replicas are resynchronized and recall returns to ~1.0; with it OFF
the divergence is permanent and every query that routes a wave-2
subtree to a stale replica silently loses answers.  Asserted per
seed: anti-entropy-on recall >= 0.9 and anti-entropy-off *strictly
lower*.

A secondary check exercises synopsis anti-entropy under the same
partition: one post-heal :meth:`~repro.stats.gossip.StatsAntiEntropy.
sweep` must make the origin's CRDT registry hold every peer's newest
digest (the fault lab's synopsis-convergence invariant).
"""

import random

from conftest import report, run_once
from record import record

from repro.datagen.generator import BioDatasetGenerator
from repro.faultlab import FaultInjector, FaultPlan, LabContext, Partition
from repro.faultlab.invariants import check_synopsis_convergence
from repro.mediation.keys import group_by_key
from repro.mediation.network import GridVineNetwork
from repro.pgrid.maintenance import MaintenanceProcess
from repro.resilience.scenario import ground_truth_panel, recall_hits
from repro.stats.gossip import StatsAntiEntropy

NEEDLES = ("Aspergillus", "Saccharomyces", "Escherichia")

#: partition window relative to injector install (virtual seconds)
PARTITION_START = 30.0
PARTITION_HEAL = 210.0
#: post-heal convergence window before the first query
QUERY_START = 270.0


def straddling_partition(net: GridVineNetwork, origin: str,
                         seed: int) -> FaultPlan:
    """A symmetric cut splitting every replica group across the sides.

    Each leaf keeps one replica per side, so both halves cover the
    whole key space — the interesting partition: no data is *lost*,
    but updates issued on one side cannot replicate to the other.
    """
    groups: dict[str, list[str]] = {}
    for node_id, peer in net.peers.items():
        groups.setdefault(peer.path.bits, []).append(node_id)
    side_a: list[str] = []
    side_b: list[str] = []
    for bits in sorted(groups):
        members = sorted(groups[bits])
        half = (len(members) + 1) // 2
        side_a += members[:half]
        side_b += members[half:]
    if origin in side_b:
        side_b.remove(origin)
        side_a.append(origin)
    return FaultPlan(seed=seed, faults=(
        Partition(side_a=tuple(sorted(side_a)),
                  side_b=tuple(sorted(side_b)),
                  start=PARTITION_START, heal_at=PARTITION_HEAL,
                  symmetric=True),
    ))


def insert_until_placed(net, origin_peer, triples, side_a,
                        max_rounds: int = 8) -> tuple[int, int]:
    """Upload triples, retrying the failed keys until every one lands.

    The first round is ``insert_triples``: the triples grouped by key
    and sent as one split write, whose ledger re-issues the keys no
    report confirmed.  During the partition roughly half the
    routing attempts die on the cut, and some keys cannot be reached
    from the side-A origin at all while it stands.  Each further round
    writes only the keys whose result failed, with every triple
    published under them, from the side-A member of each key's replica
    group: that member owns the key, so it applies the write locally,
    and its ``replicate`` to the side-B replica dies on the cut.  The
    upload converges before the heal without duplicating the
    already-placed records.  Returns ``(unplaced_keys, rounds_used)``.
    """
    groups = group_by_key(triples)
    writes = [origin_peer.insert_triples(triples)]
    rounds = 0
    while True:
        rounds += 1
        failed = [result.key for write in writes
                  for result in net.loop.run_until_complete(write)
                  if not result.success]
        if not failed or rounds == max_rounds:
            return len(failed), rounds
        by_owner: dict[str, dict] = {}
        for key in failed:
            owner = next(node_id for node_id in side_a
                         if net.peer(node_id).is_responsible_for(key))
            by_owner.setdefault(owner, {})[key] = groups[key]
        writes = [net.peer(owner).update_many(keys)
                  for owner, keys in by_owner.items()]


def run_partition_scenario(seed: int, anti_entropy: bool, scale: str):
    quick = scale == "quick"
    dataset = BioDatasetGenerator(
        num_schemas=4 if quick else 6,
        num_entities=40 if quick else 80,
        entities_per_schema=10 if quick else 16,
        seed=seed,
    ).generate()
    net = GridVineNetwork.build(
        num_peers=32 if quick else 64,
        replication=2, refs_per_level=2, seed=seed,
    )
    for schema in dataset.schemas:
        net.insert_schema(schema)
    names = [s.name for s in dataset.schemas]
    for a, b in zip(names, names[1:]):
        net.insert_mapping(dataset.ground_truth_mapping(a, b),
                           bidirectional=True)
    wave1, wave2 = dataset.triples[0::2], dataset.triples[1::2]
    net.insert_triples(wave1)
    net.settle()
    origin = net.peer_ids()[0]
    origin_peer = net.peer(origin)

    maintenance = None
    if anti_entropy:
        maintenance = MaintenanceProcess(
            net.peers, interval=10.0, refs_per_level=2,
            rng=random.Random(seed + 101),
            repair_thin_levels=True,
        )
        maintenance.start()
    plan = straddling_partition(net, origin, seed)
    injector = FaultInjector(net.network, plan).install()
    t0 = net.loop.now
    net.loop.run_until(t0 + PARTITION_START + 10.0)
    unplaced, rounds = insert_until_placed(net, origin_peer, wave2,
                                           plan.faults[0].side_a)
    placed_at = net.loop.now - t0
    net.loop.run_until(t0 + QUERY_START)

    panel = ground_truth_panel(dataset, NEEDLES)
    num_queries = 12 if quick else 18
    recalls = []
    for index in range(num_queries):
        query, truth = panel[index % len(panel)]
        outcome = net.search_for(query, strategy="iterative", max_hops=8,
                                 origin=origin)
        hits = recall_hits(outcome)
        recalls.append(len(hits & truth) / len(truth) if truth else 1.0)
        net.loop.run_until(net.loop.now + 20.0)
    injector.uninstall()
    if maintenance is not None:
        maintenance.stop()
    net.settle()

    # Synopsis anti-entropy under the same partition: one explicit
    # post-heal sweep must converge the origin's CRDT registry.
    StatsAntiEntropy(net.peers, origin).sweep()
    net.settle()
    convergence_gaps = check_synopsis_convergence(
        LabContext(net=net, origin=origin))
    return {
        "recall": sum(recalls) / len(recalls),
        "recalls": recalls,
        "unplaced": unplaced,
        "insert_rounds": rounds,
        "placed_at": placed_at,
        "convergence_gaps": convergence_gaps,
    }


def test_e17_partition_recall(benchmark, scale):
    seeds = (3, 11, 29) if scale == "quick" else (3, 11, 29, 47, 61)

    def run():
        series = []
        for seed in seeds:
            runs = {mode: run_partition_scenario(seed, mode, scale)
                    for mode in (True, False)}
            series.append((seed, runs[True], runs[False]))
        return series

    series = run_once(benchmark, run)
    record("E17", scale=scale,
           runs=[
               {
                   "seed": seed,
                   "anti_entropy": label == "anti-entropy",
                   "recall": round(r["recall"], 6),
                   "worst_query_recall": round(min(r["recalls"]), 6),
                   "insert_rounds": r["insert_rounds"],
                   "unplaced": r["unplaced"],
               }
               for seed, on, off in series
               for label, r in (("anti-entropy", on), ("baseline", off))
           ])
    report("E17", f"{len(seeds)} seeds, symmetric partition "
                  f"[{PARTITION_START:.0f}s..{PARTITION_HEAL:.0f}s) "
                  f"splitting every replica group; wave-2 inserts "
                  f"during the cut, queries after heal")
    report("E17", f"{'seed':>4} | {'mode':>12} {'recall':>7} "
                  f"{'worst q':>8} {'ins rounds':>10}")
    for seed, on, off in series:
        for label, r in (("anti-entropy", on), ("baseline", off)):
            report("E17", f"{seed:>4} | {label:>12} {r['recall']:>7.3f} "
                          f"{min(r['recalls']):>8.2f} "
                          f"{r['insert_rounds']:>10}")

    for seed, on, off in series:
        # Every wave-2 record must have landed somewhere — otherwise
        # low recall would measure insert loss, not divergence.
        assert on["unplaced"] == 0 and off["unplaced"] == 0
        # ... and landed while the cut stood: a record placed after the
        # heal replicates to both sides and diverges nothing.
        assert on["placed_at"] < PARTITION_HEAL
        assert off["placed_at"] < PARTITION_HEAL
        # The headline claim: with replica anti-entropy the healed
        # network recovers full recall; without it the divergence
        # created during the partition is permanent and strictly
        # hurts.
        assert on["recall"] >= 0.9, (
            f"anti-entropy recall below bound on seed {seed}: "
            f"{on['recall']:.3f}"
        )
        assert off["recall"] < on["recall"], (
            f"baseline not strictly worse on seed {seed}: "
            f"{off['recall']:.3f} vs {on['recall']:.3f}"
        )
        # Synopsis anti-entropy converged the origin's registry after
        # the heal (both modes: the sweep is explicit pulls).
        assert on["convergence_gaps"] == []
        assert off["convergence_gaps"] == []
