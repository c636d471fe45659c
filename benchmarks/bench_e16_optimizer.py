"""E16 (extension) — cost-based auto strategy vs static choices.

The statistics subsystem (``repro.stats``) piggybacks per-peer
synopses on maintenance traffic; the optimizer (``repro.optimizer``)
turns them into per-query decisions: ``strategy="auto"`` picks local /
iterative / recursive, prunes zero-yield reformulation fan-out and
orders scans by estimated cardinality.

The workload is deliberately skewed and mixed, so no single static
strategy is good everywhere:

* **chain** queries hit a cleanly mapped schema chain — recursive
  delegation wins (schema-key locality, no schema-space fetches);
* **hub** queries hit a schema whose mapping fan-out is mostly dead
  (mapped ghost schemas holding no data) — iterative with cost-based
  pruning wins, recursive cannot prune;
* **lone** queries hit unmapped schemas — local wins, reformulation
  machinery is pure overhead.

Headline claims, per seed: ``auto`` (warm statistics) sends >= 1.5x
fewer messages than the worst static strategy and is never >10% worse
than the best static one; its result sets are bit-identical to the
unoptimized iterative reference; and synopsis piggybacking adds zero
extra messages (twin deployments with gossip on/off send exactly the
same message count, verified via the metrics' per-kind attribution).
"""

import random

from conftest import report, run_once
from record import record

from repro import GridVineNetwork, Literal, Schema, Triple, URI
from repro.pgrid.maintenance import MaintenanceProcess

#: matching rows per data-bearing schema
MATCHES = 8
#: dead-end mapping targets attached to the hub schema
GHOSTS = 6
#: virtual seconds of maintenance gossip before the workload
WARM_TIME = 500.0

STRATEGIES = ("iterative", "recursive", "auto")


def build_corpus(seed, gossip=True):
    """Chain cluster + ghost-heavy hub cluster + unmapped loners."""
    net = GridVineNetwork.build(num_peers=48, seed=seed, replication=2)
    if not gossip:
        for peer in net.peers.values():
            peer.stats_gossip = False
    chain = [Schema(f"C{i}", ["org", "len"], domain="e16")
             for i in range(3)]
    hub = [Schema(f"H{i}", ["org", "len"], domain="e16")
           for i in range(2)]
    ghosts = [Schema(f"G{i}", ["org", "len"], domain="e16")
              for i in range(GHOSTS)]
    lone = [Schema(f"U{i}", ["org", "len"], domain="e16")
            for i in range(2)]
    for schema in chain + hub + ghosts + lone:
        net.insert_schema(schema)
    triples = []
    for schema in chain + hub + lone:  # ghosts stay empty
        for j in range(MATCHES + 4):
            organism = "Aspergillus" if j < MATCHES else "Yeast"
            subject = URI(f"{schema.name}:e{j}")
            triples.append(Triple(subject, URI(f"{schema.name}#org"),
                                  Literal(f"{organism}-{j}")))
            triples.append(Triple(subject, URI(f"{schema.name}#len"),
                                  Literal(str(100 + j))))
    net.insert_triples(triples)
    origin = net.peer_ids()[0]
    pairs = [("org", "org"), ("len", "len")]
    for a, b in zip(chain, chain[1:]):
        net.create_mapping(a, b, pairs, origin=origin)
        net.create_mapping(b, a, pairs, origin=origin)
    net.create_mapping(hub[0], hub[1], pairs, origin=origin)
    for ghost in ghosts:
        net.create_mapping(hub[0], ghost, pairs, origin=origin,
                           confidence=0.8)
    net.settle()
    return net


def warm(net, seed):
    """Run maintenance so piggybacked gossip converges."""
    maintenance = MaintenanceProcess(net.peers, interval=20.0,
                                     rng=random.Random(seed + 77))
    maintenance.start()
    net.loop.run_until(net.loop.now + WARM_TIME)
    maintenance.stop()
    net.loop.run_until(net.loop.now + 60.0)


def workload():
    """(label, query) pairs — skewed toward the hot chain schema."""
    chain_q = "SearchFor(x? : (x?, C0#org, %Aspergillus%))"
    hub_q = "SearchFor(x? : (x?, H0#org, %Aspergillus%))"
    return (
        [("chain", chain_q)] * 3
        + [("hub", hub_q)] * 2
        + [("lone", f"SearchFor(x? : (x?, U{i}#org, %Aspergillus%))")
           for i in range(2)]
    )


def run_seed(seed):
    """Measure every strategy on identically warmed deployments."""
    # Zero-extra-message claim: identical maintenance windows with
    # gossip on vs off must send exactly the same messages (synopses
    # ride in payloads of traffic that flows anyway).  The per-kind
    # attribution (``Message.op_tag`` feeding ``messages_by_kind``)
    # must match too: gossip may not introduce a single probe, ack,
    # push — or any new message kind — beyond the baseline.
    twin = build_corpus(seed, gossip=False)
    twin_before = dict(twin.network.metrics.messages_by_kind)
    warm(twin, seed)
    twin_by_kind = {
        kind: count - twin_before.get(kind, 0)
        for kind, count in twin.network.metrics.messages_by_kind.items()
    }

    net = build_corpus(seed, gossip=True)
    gossip_before = dict(net.network.metrics.messages_by_kind)
    warm(net, seed)
    gossip_by_kind = {
        kind: count - gossip_before.get(kind, 0)
        for kind, count in net.network.metrics.messages_by_kind.items()
    }

    origin = net.peer_ids()[0]
    per_strategy = {}
    for strategy in STRATEGIES:
        outcomes = []
        for label, query in workload():
            outcomes.append((label, net.search_for(
                query, strategy=strategy, max_hops=8, origin=origin)))
        per_strategy[strategy] = outcomes
    coverage = len(net.peer(origin).synopses)
    return {
        "twin_by_kind": twin_by_kind,
        "gossip_by_kind": gossip_by_kind,
        "coverage": coverage,
        "peers": len(net.peers),
        "outcomes": per_strategy,
    }


def test_e16_optimizer(benchmark, scale):
    seeds = (17, 23, 31) if scale == "quick" else (17, 23, 31, 43, 59)

    def run():
        return [(seed, run_seed(seed)) for seed in seeds]

    series = run_once(benchmark, run)
    baseline_runs = []
    for seed, data in series:
        totals = {
            strategy: sum(o.messages for _l, o in outcomes)
            for strategy, outcomes in data["outcomes"].items()
        }
        pruned = sum(o.decision.reformulations_pruned
                     for _l, o in data["outcomes"]["auto"])
        rows = sum(o.result_count for _l, o in data["outcomes"]["auto"])
        baseline_runs.append({
            "seed": seed,
            "iterative_messages": totals["iterative"],
            "recursive_messages": totals["recursive"],
            "auto_messages": totals["auto"],
            "auto_rows": rows,
            "reformulations_pruned": pruned,
            "synopsis_coverage": data["coverage"],
        })
    record("E16", scale=scale, runs=baseline_runs)
    report("E16", f"{len(seeds)} seeds, workload: 3x chain + 2x hub "
                  f"({GHOSTS} dead mapping targets) + 2x lone")
    report("E16", f"{'seed':>4} | {'iterative':>9} {'recursive':>9} "
                  f"{'auto':>6} | {'auto picks':<28} {'pruned':>6}")
    for seed, data in series:
        totals = {
            strategy: sum(o.messages for _l, o in outcomes)
            for strategy, outcomes in data["outcomes"].items()
        }
        picks: dict = {}
        pruned = 0
        for _label, outcome in data["outcomes"]["auto"]:
            chosen = outcome.decision.strategy
            picks[chosen] = picks.get(chosen, 0) + 1
            pruned += outcome.decision.reformulations_pruned
        picks_text = ", ".join(f"{count}x {name}"
                               for name, count in sorted(picks.items()))
        report("E16", f"{seed:>4} | {totals['iterative']:>9} "
                      f"{totals['recursive']:>9} {totals['auto']:>6} "
                      f"| {picks_text:<28} {pruned:>6}")

    for seed, data in series:
        # Piggybacking is free: gossip on/off, same maintenance
        # window, same per-kind message counts (and in particular no
        # dedicated statistics messages like stats_pull/stats_push).
        assert data["gossip_by_kind"] == data["twin_by_kind"], (
            f"seed {seed}: gossip changed maintenance traffic "
            f"({data['gossip_by_kind']} vs {data['twin_by_kind']})"
        )
        assert "stats_pull" not in data["gossip_by_kind"]
        assert "stats_push" not in data["gossip_by_kind"]
        # Statistics actually converged before the workload ran.
        assert data["coverage"] >= data["peers"] - 2

        outcomes = data["outcomes"]
        for (_, auto), (_, reference) in zip(outcomes["auto"],
                                             outcomes["iterative"]):
            # Optimization never changes answers: bit-identical to the
            # unoptimized full-reformulation reference.
            assert auto.results == reference.results
            assert auto.decision is not None
            assert not auto.decision.fallback
        picks = {o.decision.strategy for _l, o in outcomes["auto"]}
        assert "local" in picks  # lone queries skip reformulation
        assert picks & {"iterative", "recursive"}  # mapped ones don't

        totals = {
            strategy: sum(o.messages for _l, o in outs)
            for strategy, outs in outcomes.items()
        }
        static = [totals["iterative"], totals["recursive"]]
        worst, best = max(static), min(static)
        assert worst >= 1.5 * totals["auto"], (
            f"seed {seed}: worst static {worst} not >= 1.5x auto "
            f"{totals['auto']}"
        )
        assert totals["auto"] <= 1.1 * best, (
            f"seed {seed}: auto {totals['auto']} more than 10% worse "
            f"than best static {best}"
        )
