"""Mediation-to-overlay key derivation.

Centralizes every ``Hash(...)`` of the paper; every key is one
order-preserving hash of the value, 128 bits wide:

* ``triple_keys(t)`` — the three keys a triple is indexed under
  (``Hash(t_subject), Hash(t_predicate), Hash(t_object)``, §2.2);
* ``group_by_key(triples)`` — the triples each of those keys carries
  in one upload's write;
* ``schema_key(name)`` — ``Hash(Schema Name)`` for schema definitions
  and mappings (§2.2/§3);
* ``domain_key(domain)`` — ``Hash(Domain)`` for connectivity records
  (§3.1);
* ``term_key(term)`` — the routing key of a query's most specific
  constant (§2.3).
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.rdf.terms import GroundTerm
from repro.rdf.triples import ALL_POSITIONS, Triple
from repro.util.hashing import order_preserving_hash
from repro.util.keys import Key


def term_key(term: GroundTerm) -> Key:
    """Overlay key of a ground term's value."""
    return order_preserving_hash(term.value)


def triple_keys(triple: Triple) -> list[Key]:
    """The three keys of a triple, in (subject, predicate, object) order."""
    return [term_key(triple.at(pos)) for pos in ALL_POSITIONS]


def group_by_key(triples: Iterable[Triple]) -> dict[Key, tuple[Triple, ...]]:
    """Every triple under each of its keys (``triple_keys`` order),
    keys in first-occurrence order: what one upload writes, as one
    split write.  Each distinct term is hashed once per call; a triple
    two of whose terms share a key lands under it twice."""
    keys: dict[GroundTerm, Key] = {}
    groups: dict[Key, list[Triple]] = {}
    for triple in triples:
        for term in (triple.subject, triple.predicate, triple.object):
            key = keys.get(term)
            if key is None:
                key = keys[term] = term_key(term)
            group = groups.get(key)
            if group is None:
                groups[key] = [triple]
            else:
                group.append(triple)
    return {key: tuple(group) for key, group in groups.items()}


def schema_key(schema_name: str) -> Key:
    """``Hash(Schema Name)`` — where the definition and mappings live."""
    return order_preserving_hash(schema_name)


def domain_key(domain: str) -> Key:
    """``Hash(Domain)`` — where connectivity records aggregate."""
    return order_preserving_hash(domain)
