"""Triple patterns and conjunctive queries.

"A triple pattern is an expression of the form (s, p, o) where s and p
are URIs or variables, and o is a URI, a literal or a variable" (§2.3,
after RDQL).  Queries return bindings of *distinguished variables*;
conjunctive queries join several patterns on their shared variables.

The module also implements the paper's routing-key choice: "A peer
issuing a triple pattern query q first has to determine the address
space key ... by taking a hash of one of the constant terms ... When
two constant terms appear in the triple pattern, the most specific one
should be used."  LIKE literals (``%...%``) are never routable — the
order-preserving hash of a wildcard tells us nothing about where the
matching values live — which is precisely why the paper's example
routes on the predicate even though the object is also constant.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from typing import NamedTuple

from repro.rdf.terms import (
    GroundTerm,
    Literal,
    Term,
    URI,
    Variable,
    is_ground,
)
from repro.rdf.triples import ALL_POSITIONS, Position, Triple

#: Tie-break order among routable constants, most specific first.
#: Subjects identify a single resource, objects a value, predicates an
#: entire attribute extent — so subject > object > predicate.
_SPECIFICITY_ORDER = (Position.SUBJECT, Position.OBJECT, Position.PREDICATE)

#: A variable-to-value assignment produced by pattern matching.
Bindings = Mapping[Variable, GroundTerm]


class PreparedPattern(NamedTuple):
    """What evaluating a pattern needs, derived once per pattern."""

    #: unique variables in subject, predicate, object order — the
    #: position order of the rows :attr:`scan` yields
    schema: tuple[Variable, ...]
    #: the exact constants, i.e. the index buckets a store may probe
    probes: tuple[tuple[Position, GroundTerm], ...]
    #: ``triples -> rows``: one row tuple per matching triple, in
    #: input order (the paper's ``pi_pos(x) sigma_pos(const)=const``)
    scan: Callable[[Iterable[Triple]], list[tuple]]
    #: whether distinct triples always yield distinct rows (false with
    #: a LIKE / prefix constant, whose position is projected away)
    distinct: bool


def _scan_factory(shape: str) -> Callable[..., Callable]:
    """``(subject, predicate, object) -> scan`` for one pattern shape.

    The scan is a single comprehension: variable positions form the
    row, constant positions the filter.  Terms are equal when class
    and value are; a triple's subject and predicate are always URIs,
    so there the value comparison alone decides, and LIKE / prefix
    constants match a URI's value as well as a literal's.
    """
    exact = "t.{a}.value == {a}"
    tests = {"u": exact, "e": exact, "l": "{a} in t.{a}.value",
             "p": "t.{a}.value.startswith({a})"}
    positions = list(zip(shape, ("subject", "predicate", "object")))
    row = "".join(f"t.{a}, " for kind, a in positions if kind == "?")
    checks = [tests[kind].format(a=a) for kind, a in positions if kind != "?"]
    if shape[2] in "ue":
        checks.append("t.object.__class__ is "
                      + ("URI" if shape[2] == "u" else "Literal"))
    where = " if " + " and ".join(checks) if checks else ""
    return eval(f"lambda subject, predicate, object: lambda triples: "
                f"[({row}) for t in triples{where}]",
                {"URI": URI, "Literal": Literal})


#: one scan factory per shape without repeated variables, built once
#: per process: preparing a pattern is a lookup plus one closure
_SCAN_FACTORIES = {shape: _scan_factory(shape) for shape in (
    s + p + o for s in "?u" for p in "?u" for o in "?uelp")}


class TriplePattern:
    """One triple pattern, the unit of querying.

    >>> p = TriplePattern(Variable("x"), URI("EMBL#Organism"),
    ...                   Literal("%Aspergillus%"))
    >>> p.routing_position()
    <Position.PREDICATE: 'predicate'>
    """

    __slots__ = ("subject", "predicate", "object", "_hash", "_prepared",
                 "_route")

    def __init__(self, subject: Term, predicate: Term, obj: Term) -> None:
        if isinstance(subject, Literal):
            raise TypeError("pattern subject must be a URI or variable")
        if isinstance(predicate, Literal):
            raise TypeError("pattern predicate must be a URI or variable")
        object.__setattr__(self, "subject", subject)
        object.__setattr__(self, "predicate", predicate)
        object.__setattr__(self, "object", obj)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("TriplePattern is immutable")

    def __reduce__(self):
        # Rebuild through the constructor: the lazily-cached hash, route
        # and prepared scan are caches, not state, and closures cannot
        # cross process boundaries (sharded worker pipes).
        return (TriplePattern, (self.subject, self.predicate, self.object))

    # -- structure ------------------------------------------------------

    def at(self, position: Position) -> Term:
        """The term at ``position``."""
        if position is Position.SUBJECT:
            return self.subject
        if position is Position.PREDICATE:
            return self.predicate
        return self.object

    def replace(self, position: Position, term: Term) -> "TriplePattern":
        """A copy with the term at ``position`` replaced.

        This is the primitive that view unfolding uses to rewrite a
        pattern's predicate through a schema mapping.
        """
        parts = {pos: self.at(pos) for pos in ALL_POSITIONS}
        parts[position] = term
        return TriplePattern(
            parts[Position.SUBJECT],
            parts[Position.PREDICATE],
            parts[Position.OBJECT],
        )

    def variables(self) -> set[Variable]:
        """All variables appearing in the pattern."""
        return {t for t in (self.subject, self.predicate, self.object)
                if isinstance(t, Variable)}

    def substitute(self, bindings: "Bindings") -> "TriplePattern":
        """A copy with bound variables replaced by their values.

        The workhorse of bound-join execution: substituting the
        bindings produced by earlier patterns turns later patterns
        into (more) constant-constrained lookups.

        >>> p = TriplePattern(Variable("x"), URI("S#len"), Variable("y"))
        >>> str(p.substitute({Variable("x"): URI("S:e1")}))
        '(<S:e1>, <S#len>, y?)'
        """
        s, p, o = self.subject, self.predicate, self.object
        if isinstance(s, Variable) and s in bindings:
            s = bindings[s]
        if isinstance(p, Variable) and p in bindings:
            p = bindings[p]
        if isinstance(o, Variable) and o in bindings:
            o = bindings[o]
        return TriplePattern(s, p, o)

    def constants(self) -> dict[Position, GroundTerm]:
        """Ground terms by position."""
        return {
            pos: self.at(pos)
            for pos in ALL_POSITIONS
            if is_ground(self.at(pos))
        }

    # -- routing ----------------------------------------------------------

    def routing_position(self) -> Position:
        """Position of the most specific *routable* constant.

        ``%substring%`` literals are never routable (their hash says
        nothing about where matches live).  Exact constants rank
        subject > object > predicate; a ``prefix%`` literal is routable
        through a range query but less specific than any exact
        constant, so it is only chosen when nothing exact exists.
        Raises :class:`ValueError` for patterns with no routable
        constant.  Computed once per pattern (a failure is not cached).
        """
        try:
            return self._route
        except AttributeError:
            pass
        exact: list[Position] = []
        prefix: list[Position] = []
        for pos in _SPECIFICITY_ORDER:
            term = self.at(pos)
            if not is_ground(term):
                continue
            if isinstance(term, Literal) and term.is_like_pattern:
                continue
            if isinstance(term, Literal) and term.is_prefix_pattern:
                prefix.append(pos)
                continue
            exact.append(pos)
        if not (exact or prefix):
            raise ValueError(f"pattern {self} has no routable constant")
        route = exact[0] if exact else prefix[0]
        object.__setattr__(self, "_route", route)
        return route

    def routing_constant(self) -> GroundTerm:
        """The constant at :meth:`routing_position`."""
        return self.at(self.routing_position())  # type: ignore[return-value]

    def routing_mode(self) -> str:
        """``"exact"`` for a key lookup, ``"prefix"`` for a range query."""
        term = self.routing_constant()
        if isinstance(term, Literal) and term.is_prefix_pattern:
            return "prefix"
        return "exact"

    # -- matching ---------------------------------------------------------

    @property
    def schema(self) -> tuple[Variable, ...]:
        """The row schema a scan of this pattern produces."""
        return self.prepared().schema

    def prepared(self) -> PreparedPattern:
        """The pattern's :class:`PreparedPattern` (built once, cached).

        Patterns are immutable, so the shape analysis — which
        positions are variables, which constants are exact, LIKE or
        prefix — is done once; the scan itself comes from a table with
        one comprehension per shape, closed over this pattern's
        constants.  Repeated variables need consistency checks and
        stay on :meth:`_match_generic`.
        """
        try:
            return self._prepared
        except AttributeError:
            pass
        # One letter per position: ``?`` variable, ``u`` URI, ``e``
        # exact literal, ``l`` ``%like%``, ``p`` ``prefix%``; the
        # constant is the string a stored term's value is tested with.
        shape, constants, schema, probes = "", [], [], []
        for pos, term in zip(ALL_POSITIONS,
                             (self.subject, self.predicate, self.object)):
            wildcard = isinstance(term, Literal) and term._pattern_kind()
            if isinstance(term, Variable):
                shape += "?"
                constants.append(None)
                schema.append(term)
            elif wildcard:
                shape += "l" if wildcard == 1 else "p"
                constants.append(term.value[1:-1] if wildcard == 1
                                 else term.value[:-1])
            else:
                shape += "e" if isinstance(term, Literal) else "u"
                constants.append(term.value)
                probes.append((pos, term))
        if len(set(schema)) == len(schema):
            scan = _SCAN_FACTORIES[shape](*constants)
        else:
            # Repeated variables: the generic matcher, on an unprepared
            # twin so the cached closure is not a reference cycle.
            schema = list(dict.fromkeys(schema))
            generic = TriplePattern(
                self.subject, self.predicate, self.object)._match_generic
            scan = lambda triples: [  # noqa: E731
                tuple(b[v] for v in schema) for t in triples
                if (b := generic(t, None)) is not None]
        prepared = PreparedPattern(tuple(schema), tuple(probes), scan,
                                   "l" not in shape and "p" not in shape)
        object.__setattr__(self, "_prepared", prepared)
        return prepared

    def matches(self, triple: Triple,
                bindings: Bindings | None = None) -> dict[Variable, GroundTerm] | None:
        """Match a ground triple, extending optional prior bindings.

        Returns the (possibly extended) bindings dict on success, or
        ``None`` on mismatch.  LIKE literals match by substring;
        repeated variables must bind consistently.

        The single-triple view of the prepared scan the stores run
        set-at-a-time (:meth:`prepared`).
        """
        if bindings:
            return self._match_generic(triple, bindings)
        schema, _probes, scan, _distinct = self.prepared()
        rows = scan((triple,))
        return dict(zip(schema, rows[0])) if rows else None

    def _match_generic(self, triple: Triple,
                       bindings: Bindings | None
                       ) -> dict[Variable, GroundTerm] | None:
        """Reference matcher: position loop with consistency checks."""
        result: dict[Variable, GroundTerm] = dict(bindings) if bindings else {}
        for pattern_term, triple_term in (
            (self.subject, triple.subject),
            (self.predicate, triple.predicate),
            (self.object, triple.object),
        ):
            if isinstance(pattern_term, Variable):
                bound = result.get(pattern_term)
                if bound is None:
                    result[pattern_term] = triple_term
                elif bound != triple_term:
                    return None
            elif isinstance(pattern_term, Literal):
                if not pattern_term.matches_value(triple_term):
                    return None
            else:  # URI constant
                if pattern_term != triple_term:
                    return None
        return result

    # -- plumbing ----------------------------------------------------------

    def _key(self) -> tuple:
        return (self.subject, self.predicate, self.object)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TriplePattern):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash(("TriplePattern", self._key()))
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self) -> str:
        return (f"TriplePattern({self.subject!r}, {self.predicate!r}, "
                f"{self.object!r})")

    def __str__(self) -> str:
        return f"({self.subject}, {self.predicate}, {self.object})"


class ConjunctiveQuery:
    """A conjunction of triple patterns with distinguished variables.

    ``SearchFor(x? : (s, p, o))`` is the single-pattern case;
    conjunctive queries "can be resolved in a similar manner, by
    iteratively resolving each triple pattern contained in the query
    and aggregating the sets of results retrieved" (§2.3).

    >>> q = ConjunctiveQuery(
    ...     [TriplePattern(Variable("x"), URI("EMBL#Organism"),
    ...                    Literal("%Aspergillus%"))],
    ...     distinguished=[Variable("x")])
    >>> len(q.patterns)
    1
    """

    __slots__ = ("patterns", "distinguished", "_hash")

    def __init__(self, patterns: Iterable[TriplePattern],
                 distinguished: Iterable[Variable]) -> None:
        patterns = tuple(patterns)
        distinguished = tuple(distinguished)
        if not patterns:
            raise ValueError("a query needs at least one pattern")
        if not distinguished:
            raise ValueError("a query needs at least one distinguished variable")
        all_vars: set[Variable] = set()
        for pattern in patterns:
            all_vars |= pattern.variables()
        missing = [v for v in distinguished if v not in all_vars]
        if missing:
            raise ValueError(
                f"distinguished variable(s) {missing} do not appear in any pattern"
            )
        object.__setattr__(self, "patterns", patterns)
        object.__setattr__(self, "distinguished", distinguished)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("ConjunctiveQuery is immutable")

    def __reduce__(self):
        # Constructor round-trip (drops the lazily-cached hash), so
        # queries pickle cleanly across sharded worker pipes.
        return (ConjunctiveQuery, (self.patterns, self.distinguished))

    def variables(self) -> set[Variable]:
        """Union of all pattern variables."""
        result: set[Variable] = set()
        for pattern in self.patterns:
            result |= pattern.variables()
        return result

    def _key(self) -> tuple:
        return (self.patterns, self.distinguished)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConjunctiveQuery):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash(("ConjunctiveQuery", self._key()))
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self) -> str:
        return (f"ConjunctiveQuery({list(self.patterns)!r}, "
                f"distinguished={list(self.distinguished)!r})")

    def __str__(self) -> str:
        heads = ", ".join(str(v) for v in self.distinguished)
        body = " AND ".join(str(p) for p in self.patterns)
        return f"SearchFor({heads} : {body})"
