"""Binary key-space primitives for the P-Grid overlay.

P-Grid organizes peers in a virtual binary search trie over the key
space ``{0, 1}*``.  A :class:`Key` is an immutable binary string; peer
paths, data keys and routing prefixes are all keys.  The class wraps a
plain ``str`` of ``'0'``/``'1'`` characters, which keeps keys hashable,
ordered lexicographically (matching the trie order) and easy to debug.
"""

from __future__ import annotations

from typing import Any, Iterator


class MemoCache:
    """A bounded FIFO memo cache with hit/miss accounting.

    Used to memoize the hot-path key derivations (value → binary key
    hashing, interval → covering-prefix decomposition).  Cached values
    must be immutable (or copied by the caller on hit) — entries are
    shared between all call sites.

    Eviction is deterministic: when full, the oldest *inserted* entry
    is dropped (dict insertion order), so a seeded simulation makes the
    same eviction decisions every run.  The ``hits`` / ``misses`` /
    ``evictions`` counters let tests prove the cache actually serves
    hits without changing behavior.

    >>> cache = MemoCache(maxsize=2)
    >>> cache.put("a", 1); cache.put("b", 2)
    >>> cache.get("a"), cache.get("zzz")
    (1, None)
    >>> cache.put("c", 3)  # evicts "a" (oldest)
    >>> cache.get("a") is None, cache.stats()["evictions"]
    (True, 1)
    """

    __slots__ = ("maxsize", "hits", "misses", "evictions", "_data")

    def __init__(self, maxsize: int = 1 << 16) -> None:
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: dict[Any, Any] = {}

    def get(self, key: Any) -> Any:
        """The cached value, or ``None`` on a miss (counted)."""
        value = self._data.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, key: Any, value: Any) -> None:
        """Insert, evicting the oldest entry when at capacity."""
        if len(self._data) >= self.maxsize:
            self._data.pop(next(iter(self._data)))
            self.evictions += 1
        self._data[key] = value

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        """Drop all entries and zero the counters."""
        self._data.clear()
        self.hits = self.misses = self.evictions = 0

    def stats(self) -> dict[str, int]:
        """Counter snapshot (``hits`` / ``misses`` / ``evictions`` / ``size``)."""
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "size": len(self._data)}


class Key:
    """An immutable binary string in the P-Grid key space.

    >>> k = Key("0110")
    >>> k.bit(0), k.bit(3)
    ('0', '0')
    >>> k.prefix(2)
    Key('01')
    >>> Key("01").is_prefix_of(k)
    True
    """

    __slots__ = ("_bits", "_hash")

    def __init__(self, bits: str = "") -> None:
        # str.strip("01") is a C-level scan; keys are rebuilt from
        # message payloads on every routing hop, making this one of the
        # hottest constructors in the system.
        if bits.strip("01"):
            raise ValueError(f"key must be a binary string, got {bits!r}")
        self._bits = bits

    # -- constructors -------------------------------------------------

    @classmethod
    def of(cls, bits: str) -> "Key":
        """An interned key for ``bits`` (hot-path constructor).

        Message payloads carry keys as raw bit strings, and the same
        few thousand keys (one per stored term, plus peer paths) are
        rebuilt on every routing hop; interning skips both the
        validation scan and the allocation.  Keys are immutable, so
        sharing is safe.  The cache is cleared wholesale if it ever
        exceeds its bound — deterministic, and in practice the key
        vocabulary of a deployment fits comfortably.
        """
        cached = _KEY_INTERN.get(bits)
        if cached is None:
            if len(_KEY_INTERN) >= _KEY_INTERN_MAX:
                _KEY_INTERN.clear()
            cached = _KEY_INTERN[bits] = cls(bits)
        return cached

    @classmethod
    def from_int(cls, value: int, width: int) -> "Key":
        """Build a key of exactly ``width`` bits from an integer.

        >>> Key.from_int(5, 4)
        Key('0101')
        """
        if value < 0:
            raise ValueError("key value must be non-negative")
        if value >= (1 << width):
            raise ValueError(f"{value} does not fit in {width} bits")
        return cls(format(value, f"0{width}b")) if width else cls("")

    # -- basic accessors ----------------------------------------------

    @property
    def bits(self) -> str:
        """The raw ``'0'``/``'1'`` string."""
        return self._bits

    def __len__(self) -> int:
        return len(self._bits)

    def __iter__(self) -> Iterator[str]:
        return iter(self._bits)

    def bit(self, i: int) -> str:
        """The ``i``-th bit as ``'0'`` or ``'1'``."""
        return self._bits[i]

    def to_int(self) -> int:
        """Integer value of the key (empty key is 0)."""
        return int(self._bits, 2) if self._bits else 0

    def as_fraction(self) -> float:
        """Map the key to ``[0, 1)`` (the canonical trie embedding).

        >>> Key("1").as_fraction()
        0.5
        """
        if not self._bits:
            return 0.0
        return self.to_int() / (1 << len(self._bits))

    # -- structure ----------------------------------------------------

    def prefix(self, length: int) -> "Key":
        """The first ``length`` bits as a new key."""
        return Key(self._bits[:length])

    def is_prefix_of(self, other: "Key") -> bool:
        """Whether this key is a (non-strict) prefix of ``other``."""
        return other._bits.startswith(self._bits)

    def append(self, bit: str) -> "Key":
        """A new key with one extra bit."""
        if bit not in ("0", "1"):
            raise ValueError(f"bit must be '0' or '1', got {bit!r}")
        return Key(self._bits + bit)

    def flip(self, i: int) -> "Key":
        """A new key with bit ``i`` flipped (used for routing tables)."""
        flipped = "1" if self._bits[i] == "0" else "0"
        return Key(self._bits[:i] + flipped + self._bits[i + 1:])

    def sibling_prefix(self, level: int) -> "Key":
        """The prefix of length ``level + 1`` with the last bit flipped.

        In P-Grid, the level-``i`` routing entry of a peer with path
        ``pi`` points into the subtree rooted at
        ``pi[:i] + flip(pi[i])`` — exactly this key.
        """
        if level >= len(self._bits):
            raise ValueError(f"level {level} out of range for {self!r}")
        return self.prefix(level + 1).flip(level)

    # -- dunder plumbing ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Key):
            return NotImplemented
        return self._bits == other._bits

    def __lt__(self, other: "Key") -> bool:
        return self._bits < other._bits

    def __le__(self, other: "Key") -> bool:
        return self._bits <= other._bits

    def __gt__(self, other: "Key") -> bool:
        return self._bits > other._bits

    def __ge__(self, other: "Key") -> bool:
        return self._bits >= other._bits

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash(("Key", self._bits))
            self._hash = h
            return h

    def __repr__(self) -> str:
        return f"Key({self._bits!r})"

    def __str__(self) -> str:
        return self._bits or "<root>"


#: intern table for :meth:`Key.of` (bits -> shared Key instance)
_KEY_INTERN: dict[str, Key] = {}
_KEY_INTERN_MAX = 1 << 16

#: memo for :func:`covering_prefixes` — range queries decompose the
#: same corpus intervals over and over (one per attribute vocabulary)
_COVER_CACHE = MemoCache(maxsize=1 << 12)


def covering_prefixes(low: Key, high: Key,
                      max_length: int | None = None) -> list[Key]:
    """Trie prefixes covering the key interval ``[low, high]``.

    ``low`` and ``high`` must have equal width; the interval is
    inclusive on both ends and interpreted over all keys of that width.
    Without ``max_length`` the result is the canonical binary
    decomposition: at most ``2 * width`` pairwise-disjoint prefixes
    whose subtrees exactly cover the interval.  With ``max_length``,
    decomposition stops at that depth and partially-overlapping
    subtrees are included whole — the cover may then *over-approximate*
    the interval (callers filter the extra results), in exchange for a
    bound of ``2 * max_length`` prefixes regardless of key width.

    This is what turns an order-preserving-hash *range* into a handful
    of prefix-routed subtree queries.

    >>> [p.bits for p in covering_prefixes(Key("010"), Key("101"))]
    ['01', '10']
    """
    if len(low) != len(high):
        raise ValueError("interval endpoints must have equal width")
    if low > high:
        raise ValueError("empty interval (low > high)")
    cache_key = (low.bits, high.bits, max_length)
    cached = _COVER_CACHE.get(cache_key)
    if cached is not None:
        return list(cached)  # callers may mutate their copy
    width = len(low)
    result: list[Key] = []
    stack: list[Key] = [Key("")]
    while stack:
        prefix = stack.pop()
        # Subtree key range at full width.
        sub_low = Key(prefix.bits + "0" * (width - len(prefix)))
        sub_high = Key(prefix.bits + "1" * (width - len(prefix)))
        if sub_high < low or sub_low > high:
            continue  # disjoint
        contained = low <= sub_low and sub_high <= high
        if contained or (max_length is not None
                         and len(prefix) >= max_length):
            result.append(prefix)
            continue
        # Partial overlap: split (right child first so the list comes
        # out in ascending key order).
        stack.append(prefix.append("1"))
        stack.append(prefix.append("0"))
    _COVER_CACHE.put(cache_key, tuple(result))
    return result


def common_prefix_length(a: Key, b: Key) -> int:
    """Length of the longest common prefix of two keys.

    This is the trie depth at which the two keys' subtrees diverge;
    prefix routing forwards a query to a reference whose common prefix
    with the target key is strictly longer than the current peer's.

    >>> common_prefix_length(Key("0011"), Key("0010"))
    3
    """
    n = 0
    for x, y in zip(a._bits, b._bits):
        if x != y:
            break
        n += 1
    return n
