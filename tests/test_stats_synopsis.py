"""Property and unit tests for the statistics subsystem.

The synopsis registry is a state-based CRDT: whatever order gossip
delivers digests in, every peer must converge to the same registry.
The Hypothesis properties pin down exactly that (commutative,
idempotent, associative merge) plus the builder's insert/delete
inverse.  Gossip's fast paths (the identity-first merge loop, the
sorted order kept in place, a batch taken as at most two slices) are
checked against the digest-by-digest definitions they replace, and
the unit tests cover the cardinality estimator's sketch arithmetic.
"""

from collections import Counter
from itertools import cycle

from hypothesis import given
from hypothesis import strategies as st

from repro.pgrid.peer import PGridPeer
from repro.rdf.patterns import TriplePattern
from repro.rdf.terms import URI, Literal, Variable
from repro.stats.estimator import CardinalityEstimator
from repro.stats.synopsis import (
    PeerSynopsis,
    PredicateDigest,
    SynopsisRegistry,
)
from repro.storage.triplestore import TripleStore
from repro.util.keys import Key
from strategies import (
    OWN_ID,
    STANDARD_SETTINGS,
    gossip_digests,
    gossip_histories,
    key_group_scripts,
    peer_synopses,
    triples,
)


def _registry_with(digests):
    registry = SynopsisRegistry()
    registry.merge(digests)
    return registry


class TestRegistryMergeProperties:
    @given(xs=st.lists(peer_synopses, max_size=8),
           ys=st.lists(peer_synopses, max_size=8))
    @STANDARD_SETTINGS
    def test_merge_commutative(self, xs, ys):
        assert (_registry_with(xs + ys).digests()
                == _registry_with(ys + xs).digests())

    @given(xs=st.lists(peer_synopses, max_size=8))
    @STANDARD_SETTINGS
    def test_merge_idempotent(self, xs):
        once = _registry_with(xs)
        twice = _registry_with(xs)
        twice.merge(xs)
        assert once.digests() == twice.digests()

    @given(xs=st.lists(peer_synopses, max_size=5),
           ys=st.lists(peer_synopses, max_size=5),
           zs=st.lists(peer_synopses, max_size=5))
    @STANDARD_SETTINGS
    def test_merge_associative(self, xs, ys, zs):
        left = _registry_with(xs + ys)
        left.merge(zs)
        right_inner = _registry_with(ys + zs)
        right = _registry_with(xs)
        right.merge(right_inner.digests())
        assert left.digests() == right.digests()

    @given(digest=peer_synopses)
    @STANDARD_SETTINGS
    def test_newer_version_wins(self, digest):
        registry = SynopsisRegistry()
        registry.register(digest)
        newer = PeerSynopsis(
            peer_id=digest.peer_id, version=digest.version + 1,
            triples=digest.triples + 1,
        )
        assert registry.register(newer)
        assert registry.get(digest.peer_id) == newer
        # the stale digest can never regress the registry
        assert not registry.register(digest)
        assert registry.get(digest.peer_id) == newer


class _Reference:
    """The registry as defined digest by digest: the per-digest
    ``(version, payload)`` rule folded over each merge, the known ids
    sorted afresh for every batch, and a batch taken by index."""

    def __init__(self):
        self.by_peer = {}
        self.updates = 0

    def merge(self, digests, skip=None):
        accepted = 0
        for digest in digests:
            if digest.peer_id == skip:
                continue
            current = self.by_peer.get(digest.peer_id)
            if current is None or ((digest.version, digest)
                                   > (current.version, current)):
                self.by_peer[digest.peer_id] = digest
                accepted += 1
        self.updates += accepted
        return accepted

    def digests(self):
        return [self.by_peer[p] for p in sorted(self.by_peer)]

    def gossip(self, own, cursor, budget):
        """``PGridPeer.gossip_synopses``'s batch and next cursor."""
        batch = [] if own is None else [own]
        order = sorted(p for p in self.by_peer if p != OWN_ID)
        known = len(order)
        take = 0
        if known and len(batch) < budget:
            take = min(budget - len(batch), known)
            start = cursor % known
            batch += [self.by_peer[order[(start + i) % known]]
                      for i in range(take)]
        return batch, cursor + take


def _steps(history):
    """``(kind, digests, skip)`` per history step; a replay resolves to
    the very digest objects an earlier step delivered."""
    delivered = []
    for step in history:
        if step[0] == "merge":
            _kind, digests, skip = step
        elif step[0] == "register":
            digests, skip = [step[1]], None
        else:
            _kind, index, skip = step
            digests = delivered[index % len(delivered)] if delivered else []
        delivered.append(digests)
        yield step[0], digests, skip


def _apply(registry, kind, digests, skip):
    if kind == "register":
        return int(registry.register(digests[0]))
    return registry.merge(digests, skip)


def _same_objects(xs, ys):
    return len(xs) == len(ys) and all(x is y for x, y in zip(xs, ys))


class TestGossipEqualsReference:
    @given(history=gossip_histories())
    @STANDARD_SETTINGS
    def test_merge_equals_the_per_digest_fold(self, history):
        registry, reference = SynopsisRegistry(), _Reference()
        for kind, digests, skip in _steps(history):
            assert (_apply(registry, kind, digests, skip)
                    == reference.merge(digests, skip))
            assert registry.updates == reference.updates
            assert _same_objects(registry.digests(), reference.digests())

    @given(history=gossip_histories())
    @STANDARD_SETTINGS
    def test_peer_order_is_the_sorted_ids_after_every_step(self, history):
        registry, ids = SynopsisRegistry(), set()
        for kind, digests, skip in _steps(history):
            _apply(registry, kind, digests, skip)
            ids |= {d.peer_id for d in digests if d.peer_id != skip}
            assert registry.peer_ids() == sorted(ids)
            assert [d.peer_id for d in registry.digests()] == sorted(ids)

    @given(history=gossip_histories(),
           cursor=st.integers(min_value=0, max_value=40),
           budgets=st.lists(st.integers(min_value=0, max_value=10),
                            min_size=1, max_size=4),
           own=st.none() | gossip_digests.map(
               lambda d: PeerSynopsis(OWN_ID, d.version, d.triples)),
           hand_registered=st.booleans())
    @STANDARD_SETTINGS
    def test_batch_equals_the_indexed_definition(
            self, history, cursor, budgets, own, hand_registered):
        """Gossip after every step of any history, with or without a
        fresh own digest and a hand-registered one, sends the same
        objects in the same order and moves the cursor as far as
        ``[get(order[(start + i) % known]) for i in range(take)]``."""
        peer = PGridPeer(OWN_ID, Key("0"))
        if own is not None:
            peer.synopsis_digest = lambda: own
        peer._gossip_cursor = cursor
        reference = _Reference()
        steps = [*_steps(history), ("merge", [], None)]
        if hand_registered:
            steps.append(("register", [PeerSynopsis(OWN_ID, 9, 0)], None))
        for (kind, digests, skip), budget in zip(steps, cycle(budgets)):
            _apply(peer.synopses, kind, digests, skip)
            reference.merge(digests, skip)
            expected, cursor = reference.gossip(own, cursor, budget)
            assert _same_objects(peer.gossip_synopses(budget), expected)
            assert peer._gossip_cursor == cursor


class TestStoreSynopsisInverse:
    """A :class:`TripleStore`'s digest, counted from its copy table:
    a removal restores the prior digest, the digest is the recount of
    the stored triples, and the version rises as the store is written.
    """

    @given(ts=st.lists(triples, max_size=12), extra=triples)
    @STANDARD_SETTINGS
    def test_insert_delete_inverse(self, ts, extra):
        store = TripleStore()
        for t in ts:
            store.add(t)
        before = store.digest("n0", version=0)
        store.add(extra)
        store.remove(extra)
        # ``extra`` may have been stored already: then it keeps a copy
        assert store.digest("n0", version=0) == before

    @given(ts=st.lists(triples, max_size=12))
    @STANDARD_SETTINGS
    def test_digest_matches_recount(self, ts):
        store = TripleStore()
        for t in ts:
            store.add(t)
        digest = store.digest("n0", version=0)
        by_predicate = {}
        for t in set(ts):
            by_predicate.setdefault(t.predicate.value, []).append(t)
        assert digest.triples == len(set(ts))
        assert len(digest.predicates) == len(by_predicate)
        for entry in digest.predicates:
            bucket = by_predicate[entry.predicate]
            assert entry.triples == len(bucket)
            assert entry.distinct_subjects == len(
                {t.subject.value for t in bucket})
            assert entry.distinct_objects == len(
                {t.object.value for t in bucket})
            counts = Counter(t.object.value for t in bucket)
            assert list(entry.top_objects) == sorted(
                counts.items(), key=lambda item: (-item[1], item[0]))[:4]

    @given(script=key_group_scripts())
    @STANDARD_SETTINGS
    def test_group_add_equals_one_at_a_time(self, script):
        """A key group stored in one ``add(*group)`` call leaves the
        same version and digest as its triples added one by one, with
        removes (stored or not) between."""
        grouped, single = TripleStore(), TripleStore()
        for action, arg in script:
            if action == "add":
                grouped.add(*arg)
                for t in arg:
                    single.add(t)
            else:
                assert grouped.remove(arg) == single.remove(arg)
            assert grouped.version == single.version
            assert grouped.digest("n0") == single.digest("n0")

    def test_version_monotone(self):
        from repro.rdf.triples import Triple

        store = TripleStore()
        t = Triple(URI("a"), URI("S#p"), Literal("v"))
        v0 = store.version
        store.add(t)
        v1 = store.version
        store.add(t)  # a second copy changes nothing stored
        assert store.version == v1
        store.remove(t)
        assert store.version == v1
        store.remove(t)
        v2 = store.version
        store.clear()
        assert v0 < v1 < v2 < store.version


def _estimator(*digests):
    return CardinalityEstimator(_registry_with(list(digests)))


def _digest(peer_id, version, *predicate_entries, path=""):
    return PeerSynopsis(peer_id=peer_id, version=version,
                        triples=sum(e.triples for e in predicate_entries),
                        predicates=tuple(predicate_entries),
                        path=path)


HOT_PREDICATE = _digest("n1", 1, PredicateDigest(
    predicate="S#p", triples=100, distinct_subjects=10,
    distinct_objects=4, top_objects=(("hot", 70), ("warm", 20)),
), path="0")

#: an empty peer covering the other half of the key space — together
#: with HOT_PREDICATE's "0" the digests cover everything, which is
#: what authorizes absence-means-empty estimates
OTHER_HALF = _digest("n9", 1, path="1")


class TestCardinalityEstimator:
    def test_empty_registry_estimates_nothing(self):
        estimator = _estimator()
        pattern = TriplePattern(Variable("x"), URI("S#p"), Variable("y"))
        assert estimator.pattern_cardinality(pattern) is None

    def test_unknown_predicate_is_zero_under_full_coverage(self):
        estimator = _estimator(HOT_PREDICATE, OTHER_HALF)
        assert estimator.full_coverage()
        pattern = TriplePattern(Variable("x"), URI("S#nope"),
                                Variable("y"))
        assert estimator.pattern_cardinality(pattern) == 0.0

    def test_unknown_predicate_is_unknown_under_partial_coverage(self):
        estimator = _estimator(HOT_PREDICATE)  # only path "0" known
        assert not estimator.full_coverage()
        pattern = TriplePattern(Variable("x"), URI("S#nope"),
                                Variable("y"))
        # the predicate might live on an un-gossiped peer: no verdict
        assert estimator.pattern_cardinality(pattern) is None

    def test_sketched_object_value(self):
        estimator = _estimator(HOT_PREDICATE)
        pattern = TriplePattern(Variable("x"), URI("S#p"), Literal("hot"))
        assert estimator.pattern_cardinality(pattern) == 70.0

    def test_residual_object_value(self):
        estimator = _estimator(HOT_PREDICATE)
        pattern = TriplePattern(Variable("x"), URI("S#p"),
                                Literal("other"))
        # residual mass 10 spread over 2 unsketched distinct values
        assert estimator.pattern_cardinality(pattern) == 5.0

    def test_subject_constant_divides_by_distinct_subjects(self):
        estimator = _estimator(HOT_PREDICATE)
        pattern = TriplePattern(URI("S:e1"), URI("S#p"), Variable("y"))
        assert estimator.pattern_cardinality(pattern) == 10.0

    def test_like_literal_uses_sketch_plus_residual(self):
        estimator = _estimator(HOT_PREDICATE)
        pattern = TriplePattern(Variable("x"), URI("S#p"),
                                Literal("%ot%"))
        # "hot" matches the sketch (70); residual 10 at 0.5 selectivity
        assert estimator.pattern_cardinality(pattern) == 75.0

    def test_cross_peer_aggregation_is_max_not_sum(self):
        replica = _digest("n2", 1, PredicateDigest(
            predicate="S#p", triples=100, distinct_subjects=10,
            distinct_objects=4, top_objects=(("hot", 70), ("warm", 20)),
        ))
        partial = _digest("n3", 1, PredicateDigest(
            predicate="S#p", triples=30, distinct_subjects=5,
            distinct_objects=2, top_objects=(("hot", 25),),
        ))
        estimator = _estimator(HOT_PREDICATE, replica, partial)
        pattern = TriplePattern(Variable("x"), URI("S#p"), Variable("y"))
        # replication must not inflate the estimate
        assert estimator.pattern_cardinality(pattern) == 100.0

    def test_query_cardinality_is_most_selective_pattern(self):
        estimator = _estimator(HOT_PREDICATE)
        from repro.rdf.patterns import ConjunctiveQuery

        x = Variable("x")
        query = ConjunctiveQuery(
            [TriplePattern(x, URI("S#p"), Literal("hot")),
             TriplePattern(x, URI("S#p"), Literal("other"))],
            [x],
        )
        assert estimator.query_cardinality(query) == 5.0
