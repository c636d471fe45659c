"""System invariant checkers for fault-lab runs.

Each checker inspects a live :class:`~repro.mediation.network.
GridVineNetwork` (omniscient harness view — allowed for ground-truth
checks, never inside protocol logic) and returns a list of violation
strings; an empty list means the invariant holds.  They come in two
flavours:

*always* invariants
    Must hold at any quiescent instant, faults or not:
    :func:`check_routing_tables` (every routing reference verifiably
    covers its level's complementary subtree) and
    :func:`check_engine_cache` (no cached reformulation plan deviates
    from a fresh planning run over the current mapping mirror).

*eventual* invariants
    Must hold after every fault healed and anti-entropy ran — the
    explorer drives the network to that state before checking:
    :func:`check_trie_coverage` (every leaf of the trie has a live
    holder), :func:`check_replica_agreement` (replica stores converge
    bit-for-bit), :func:`check_synopsis_convergence` (an observer's
    CRDT registry holds every peer's newest digest) and
    :func:`check_recall` (panel queries recover their ground-truth
    answers — the paper's headline property).

:func:`check_live_recall` is the odd one out: it judges the *report*
of a scenario that ran under faults, asserting the mid-fault recall
never fell below a floor — the consensus-answers style lower bound on
answer quality while replicas disagree.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.core import QueryEngine
    from repro.mediation.network import GridVineNetwork
    from repro.resilience.scenario import Panel, ScenarioReport


@dataclass(frozen=True)
class Violation:
    """One invariant violation: which invariant, and what it saw."""

    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"{self.invariant}: {self.detail}"


@dataclass
class LabContext:
    """Everything the checkers may look at for one run."""

    net: "GridVineNetwork"
    #: recall panel ``(query, ground-truth subjects)`` — enables the
    #: recall invariants
    panel: "Panel | None" = None
    #: node id issuing check queries / owning the observed registry
    origin: str | None = None
    #: engine under test (enables the cache-coherence invariant)
    engine: "QueryEngine | None" = None
    #: scenario report of the faulted run (enables live recall)
    report: "ScenarioReport | None" = None
    #: floor for post-heal recall (eventual invariant)
    min_recall: float = 0.9
    #: floor for mean recall *during* the faulted run
    min_live_recall: float = 0.4
    #: query knobs for the post-heal recall probe
    strategy: str = "iterative"
    max_hops: int = 8

    def origin_id(self) -> str:
        return self.origin if self.origin is not None \
            else self.net.peer_ids()[0]


# ----------------------------------------------------------------------
# Always invariants
# ----------------------------------------------------------------------

def check_routing_tables(ctx: LabContext) -> list[str]:
    """Every routing reference covers its level's complement.

    A reference at level ``l`` of peer ``p`` must point at an existing
    peer whose path is prefix-comparable with ``p.path.
    sibling_prefix(l)`` — otherwise greedy forwarding can stop
    extending the common prefix and messages loop or die.  Maintenance
    repair must never adopt a reference that breaks this, no matter
    what the fault schedule did to the probes.
    """
    violations = []
    peers = ctx.net.peers
    for node_id in sorted(peers):
        peer = peers[node_id]
        for level, refs in enumerate(peer.routing_table):
            complement = peer.path.sibling_prefix(level)
            for ref in refs:
                if ref == node_id:
                    violations.append(f"{node_id} references itself "
                                      f"at level {level}")
                    continue
                target = peers.get(ref)
                if target is None:
                    violations.append(f"{node_id} level {level} "
                                      f"references unknown peer {ref}")
                    continue
                if not (complement.is_prefix_of(target.path)
                        or target.path.is_prefix_of(complement)):
                    violations.append(
                        f"{node_id} level {level} references {ref} "
                        f"(path {target.path.bits}) outside complement "
                        f"{complement.bits}"
                    )
    return violations


def check_engine_cache(ctx: LabContext) -> list[str]:
    """No cached plan may differ from a fresh planning run.

    Replays every live plan-cache entry against the engine's current
    mapping mirror; a mismatch means an invalidation was missed (a
    mapping event observed by the mirror did not evict the plans that
    depend on it).
    """
    engine = ctx.engine
    if engine is None:
        return []
    from repro.reformulation.planner import plan_reformulations

    violations = []
    for (query, max_hops), entry in engine.cache.entries():
        fresh = plan_reformulations(query, engine.graph, max_hops=max_hops)
        if set(entry.reformulations) != set(fresh):
            violations.append(
                f"stale cached plan for {query} (hops {max_hops}): "
                f"{len(entry.reformulations)} cached vs "
                f"{len(fresh)} freshly planned reformulations"
            )
    return violations


# ----------------------------------------------------------------------
# Eventual invariants (check after heal + anti-entropy)
# ----------------------------------------------------------------------

def check_trie_coverage(ctx: LabContext) -> list[str]:
    """Every trie leaf keeps at least one online replica."""
    by_path: dict[str, list[str]] = {}
    for node_id, peer in ctx.net.peers.items():
        by_path.setdefault(peer.path.bits, []).append(node_id)
    violations = []
    for bits in sorted(by_path):
        holders = by_path[bits]
        if not any(ctx.net.peers[n].online for n in holders):
            violations.append(
                f"leaf {bits or '(root)'} has no online holder "
                f"(replica group {sorted(holders)} all down)"
            )
    return violations


def check_replica_agreement(ctx: LabContext) -> list[str]:
    """Replica groups hold identical stores once anti-entropy ran."""
    by_path: dict[str, list] = {}
    for node_id in sorted(ctx.net.peers):
        peer = ctx.net.peers[node_id]
        by_path.setdefault(peer.path.bits, []).append(peer)
    violations = []
    for bits in sorted(by_path):
        group = by_path[bits]
        if len(group) < 2:
            continue
        reference = group[0]
        ref_counts = Counter(
            (key_bits, value)
            for key_bits, values in reference.store.items()
            for value in values
        )
        for other in group[1:]:
            other_counts = Counter(
                (key_bits, value)
                for key_bits, values in other.store.items()
                for value in values
            )
            if ref_counts != other_counts:
                missing = sum((ref_counts - other_counts).values())
                extra = sum((other_counts - ref_counts).values())
                violations.append(
                    f"replicas {reference.node_id} and {other.node_id} "
                    f"(leaf {bits}) disagree: {missing} value(s) "
                    f"missing, {extra} extra"
                )
    return violations


def check_synopsis_convergence(ctx: LabContext) -> list[str]:
    """The origin's registry holds every peer's newest digest.

    The synopsis registry is a state-based CRDT; after partitions heal
    and one anti-entropy sweep runs, the observing peer must know a
    digest at least as new as what each peer would publish *right
    now*.  Any gap means merge or dissemination lost an update.
    """
    origin = ctx.net.peers[ctx.origin_id()]
    violations = []
    for node_id in sorted(ctx.net.peers):
        if node_id == origin.node_id:
            continue
        peer = ctx.net.peers[node_id]
        current = peer.synopsis_digest()
        if current is None:
            continue
        known = origin.synopses.get(node_id)
        if known is None:
            violations.append(f"origin knows no digest for {node_id} "
                              f"(current version {current.version})")
        elif known.version < current.version:
            violations.append(
                f"origin's digest for {node_id} is stale: version "
                f"{known.version} < current {current.version}"
            )
    return violations


def check_recall(ctx: LabContext) -> list[str]:
    """Post-heal panel queries reach the ground-truth recall floor.

    Issues every panel query from the origin (through the real
    protocol — this spends messages, so the explorer runs it last) and
    requires per-query recall ``>= ctx.min_recall``.
    """
    if not ctx.panel:
        return []
    from repro.resilience.scenario import recall_hits

    violations = []
    for index, (query, truth) in enumerate(ctx.panel):
        if not truth:
            continue
        outcome = ctx.net.search_for(query, strategy=ctx.strategy,
                                     max_hops=ctx.max_hops,
                                     origin=ctx.origin_id())
        hits = recall_hits(outcome)
        recall = len(hits & truth) / len(truth)
        if recall < ctx.min_recall:
            violations.append(
                f"panel query {index} recall {recall:.3f} < "
                f"{ctx.min_recall:.3f} after heal "
                f"({len(hits & truth)}/{len(truth)} subjects)"
            )
    return violations


def check_live_recall(ctx: LabContext) -> list[str]:
    """Mean recall *under faults* stays above the configured floor."""
    report = ctx.report
    if report is None or not report.per_query_recall:
        return []
    if report.recall < ctx.min_live_recall:
        return [
            f"mean recall under faults {report.recall:.3f} < floor "
            f"{ctx.min_live_recall:.3f} "
            f"({report.queries_complete}/{report.queries_issued} "
            f"queries complete)"
        ]
    return []


#: name -> checker, in checking order (cheap state scans first, the
#: message-spending recall probe last)
INVARIANTS: dict[str, Callable[[LabContext], list[str]]] = {
    "routing_tables": check_routing_tables,
    "trie_coverage": check_trie_coverage,
    "replica_agreement": check_replica_agreement,
    "synopsis_convergence": check_synopsis_convergence,
    "engine_cache": check_engine_cache,
    "live_recall": check_live_recall,
    "recall": check_recall,
}


@dataclass
class InvariantReport:
    """All violations one run produced, grouped for reporting."""

    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def failed_invariants(self) -> list[str]:
        """Names of invariants with at least one violation, sorted."""
        return sorted({v.invariant for v in self.violations})

    def summary(self) -> list[str]:
        if self.ok:
            return ["all invariants hold"]
        return [str(v) for v in self.violations]


def run_invariants(ctx: LabContext,
                   names: list[str] | None = None) -> InvariantReport:
    """Run the named invariants (default: all) against ``ctx``."""
    selected = list(INVARIANTS) if names is None else names
    report = InvariantReport()
    for name in selected:
        checker = INVARIANTS[name]
        for detail in checker(ctx):
            report.violations.append(Violation(name, detail))
    return report
