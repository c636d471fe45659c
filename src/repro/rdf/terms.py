"""Terms of the triple data model: URIs, literals and variables.

A term exists once per value: constructing an equal term returns the
existing object from a per-class table, so equality and hashing are
``object``'s identity slots — the store's index probes, copy counts
and dedup sets hash terms in C.  Terms are immutable and totally
ordered (URIs before literals before variables, then by value), so
they sort deterministically in test output.
"""

from __future__ import annotations

from typing import Union


class _BaseTerm:
    """Common plumbing for the three term kinds.

    ``__new__`` interns: each subclass keeps a process-lifetime table
    from value to term.  The table holds strong references — identity
    equality forbids dropping a term somebody still holds, since a
    later equal term would be a different object — so its size is the
    data's vocabulary.
    """

    __slots__ = ("value",)
    _order = 0  # subclass-specific sort rank
    _table: dict[str, "_BaseTerm"]

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._table = {}

    def __new__(cls, value: str):
        term = cls._table.get(value)
        if term is None:
            if not isinstance(value, str):
                raise TypeError(
                    f"term value must be str, got {type(value).__name__}")
            if not value:
                raise ValueError("term value must be non-empty")
            term = object.__new__(cls)
            object.__setattr__(term, "value", value)
            cls._table[value] = term
        return term

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # Constructor round-trip: unpickling and copying re-intern, so
        # a term crossing a sharded worker pipe arrives as the
        # receiving process's own object for its value.
        return (type(self), (self.value,))

    def __lt__(self, other: "_BaseTerm") -> bool:
        if not isinstance(other, _BaseTerm):
            return NotImplemented
        return (self._order, self.value) < (other._order, other.value)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.value!r})"


class URI(_BaseTerm):
    """A resource identifier, e.g. ``URI("EMBL#Organism")``.

    The reproduction treats URIs as opaque strings; schema attributes
    use the paper's ``Schema#Attribute`` convention.
    """

    __slots__ = ()
    _order = 0

    @property
    def namespace(self) -> str:
        """The part before ``#`` (the schema name), or the whole URI."""
        head, _sep, _tail = self.value.partition("#")
        return head

    @property
    def local_name(self) -> str:
        """The part after ``#`` (the attribute), or the whole URI."""
        _head, sep, tail = self.value.partition("#")
        return tail if sep else self.value

    def __str__(self) -> str:
        return f"<{self.value}>"


class Literal(_BaseTerm):
    """A literal value (always carried as a string).

    A literal whose value starts *and* ends with ``%`` is a SQL-LIKE
    substring pattern when used inside a triple pattern — matching the
    paper's ``%Aspergillus%`` example.  As stored data it is just a
    string.
    """

    __slots__ = ("_kind",)
    _order = 1

    def _pattern_kind(self) -> int:
        """0 = exact value, 1 = ``%substring%``, 2 = ``prefix%``.

        Computed once per literal (cached in a slot): the store's
        candidate picker and every LIKE match re-ask these questions
        for the same handful of pattern literals.
        """
        try:
            return self._kind
        except AttributeError:
            value = self.value
            if len(value) >= 2 and value.endswith("%"):
                kind = 1 if value.startswith("%") else 2
            else:
                kind = 0
            object.__setattr__(self, "_kind", kind)
            return kind

    @property
    def is_like_pattern(self) -> bool:
        """Whether this literal denotes a ``%substring%`` match."""
        return self._pattern_kind() == 1

    @property
    def is_prefix_pattern(self) -> bool:
        """Whether this literal denotes a ``prefix%`` match.

        Unlike ``%substring%`` patterns, prefix patterns *are*
        routable: the order-preserving hash keeps all values with a
        common prefix in one contiguous key interval, which the
        overlay's range query resolves.
        """
        return self._pattern_kind() == 2

    @property
    def prefix_needle(self) -> str:
        """The prefix before the trailing ``%``."""
        if not self.is_prefix_pattern:
            raise ValueError(f"{self!r} is not a prefix pattern")
        return self.value[:-1]

    def matches_value(self, stored: "Literal | URI") -> bool:
        """Whether this (possibly LIKE/prefix) literal matches a term."""
        kind = self._pattern_kind()
        if kind == 1:
            return self.value[1:-1] in stored.value
        if kind == 2:
            return stored.value.startswith(self.value[:-1])
        return isinstance(stored, Literal) and stored.value == self.value

    def __str__(self) -> str:
        return f'"{self.value}"'


class Variable(_BaseTerm):
    """A query variable, e.g. ``Variable("x")`` (printed ``x?``)."""

    __slots__ = ()
    _order = 2

    def __str__(self) -> str:
        return f"{self.value}?"


#: Anything that may appear in a triple pattern.
Term = Union[URI, Literal, Variable]

#: Anything that may appear in a stored triple (no variables).
GroundTerm = Union[URI, Literal]


def is_ground(term: Term) -> bool:
    """True for URIs and literals, False for variables."""
    return not isinstance(term, Variable)
