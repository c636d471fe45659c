"""Hypothesis strategies for triple patterns and the triples they scan.

The text pool is tiny and shared between URIs and literals, so a
pattern constant keeps meeting stored terms of the *other* class with
the same text (equal value, unequal term), and the wildcard literals
(``%a%``, ``a%``, ``%%``) meet URIs as well as literals.  Two variable
names over three positions make repeated variables common, and about
one generated pattern in six is ground.
"""

from hypothesis import strategies as st

from repro.rdf.patterns import TriplePattern
from repro.rdf.terms import URI, Literal, Variable
from repro.rdf.triples import Triple

_TEXT = ["a", "b", "ab", "ba"]

uris = st.sampled_from(_TEXT).map(URI)
#: exact values plus a ``%like%``, a ``prefix%`` and the match-all LIKE
literals = st.sampled_from(_TEXT + ["%a%", "a%", "%%"]).map(Literal)
variables = st.sampled_from(["x", "y"]).map(Variable)


def triple_sets(max_size: int = 12):
    """Lists of ground triples (duplicates included) over the pool."""
    return st.lists(st.builds(Triple, uris, uris, st.one_of(uris, literals)),
                    max_size=max_size)


def patterns():
    """Triple patterns over all five position kinds: variable, URI,
    exact literal, ``%like%`` and ``prefix%`` (literals in the object
    position only, as :class:`TriplePattern` requires)."""
    node = st.one_of(uris, variables)
    return st.builds(TriplePattern, node, node,
                     st.one_of(uris, literals, variables))
