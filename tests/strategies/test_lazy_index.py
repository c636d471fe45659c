"""Property test: a store indexed on first probe serves what an
eagerly indexed store serves.

A :class:`TripleStore` write only counts copies; each positional index
is built by one pass over the copy table when a probe first needs its
position, and is maintained by every write after that.  The reference
is the same class probed on every position right after it is created
and after every step, so its indexes are only ever built from an empty
table and then kept up by the writes: an eagerly indexed store.  A
drawn script of group adds, removes and clears probes the lazy store
at drawn points only, with drawn patterns and positions;
every probe must answer as the reference does (``match`` rows in
order, ``by_position``), and so must ``all_triples``, ``version`` and
the digest.

Terms come from a tiny text pool shared by URIs and literals, with
LIKE literals among the patterns, so buckets hold several triples and
a pattern meets terms of the other class with the same text.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.rdf.patterns import TriplePattern
from repro.rdf.terms import URI, Literal, Variable
from repro.rdf.triples import ALL_POSITIONS
from repro.storage.triplestore import TripleStore
from strategies import STANDARD_SETTINGS, patterns, triple_sets

#: every term a drawn triple can hold, at any position
POOL = [term for text in ("a", "b", "ab", "ba", "%a%", "a%", "%%")
        for term in (URI(text), Literal(text))]

#: step kinds, weighted: mostly writes and probes, a clear now and then
KINDS = ("add", "add", "add", "remove", "remove", "probe", "probe",
         "probe", "clear")


@st.composite
def probed_scripts(draw, max_steps: int = 12):
    """``("add", group)``, ``("remove", triple)``, ``("clear", None)``
    and ``("probe", (patterns, positions))`` steps over one corpus."""
    corpus = draw(triple_sets(max_size=8).filter(bool))
    members = st.sampled_from(corpus)
    script = []
    for kind in draw(st.lists(st.sampled_from(KINDS), max_size=max_steps)):
        if kind == "add":
            arg = tuple(draw(st.lists(members, max_size=6)))
        elif kind == "remove":
            arg = draw(members)
        elif kind == "probe":
            arg = (tuple(draw(st.lists(patterns(), max_size=3))),
                   tuple(draw(st.lists(st.sampled_from(ALL_POSITIONS),
                                       max_size=2))))
        else:
            arg = None
        script.append((kind, arg))
    return tuple(script)


def observe(store, found, positions):
    """What ``store`` serves: the rows of each pattern in ``found``,
    every pool term's ``by_position`` at ``positions``, the table, its
    version and its digest."""
    return ([store.match(pattern) for pattern in found],
            [store.by_position(pos, term)
             for pos in positions for term in POOL],
            store.all_triples(),
            store.version,
            store.digest("n0"))


def apply(store, action, arg):
    if action == "add":
        return store.add(*arg)
    if action == "remove":
        return store.remove(arg)
    return store.clear()


FULL_SCAN = TriplePattern(Variable("x"), Variable("y"), Variable("z"))


@given(script=probed_scripts())
@STANDARD_SETTINGS
def test_lazy_index_equals_the_eager_reference(script):
    drawn = [pattern for action, arg in script if action == "probe"
             for pattern in arg[0]]
    lazy, eager = TripleStore(), TripleStore()

    def force():
        observe(eager, drawn, ALL_POSITIONS)

    force()
    for action, arg in script:
        if action == "probe":
            found, positions = arg
            assert (observe(lazy, found, positions)
                    == observe(eager, found, positions))
            continue
        assert apply(lazy, action, arg) == apply(eager, action, arg)
        force()
    everything = (*drawn, FULL_SCAN)
    assert (observe(lazy, everything, ALL_POSITIONS)
            == observe(eager, everything, ALL_POSITIONS))
