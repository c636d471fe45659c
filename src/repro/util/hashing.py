"""Hash functions mapping mediation-layer values to overlay keys.

The paper indexes every triple three times, "generating separate keys
based on their subject, predicate and object values.  The binary keys
are generated using an order-preserving hash function Hash() on the
data" (§2.2).  Order preservation matters because P-Grid is a binary
*search* trie: lexicographically close values land in nearby leaves,
which enables prefix/range searches and makes load balancing a trie-
shaping concern rather than a hashing concern.

Two functions are provided:

:func:`order_preserving_hash`
    Maps a string to a fixed-width binary :class:`~repro.util.keys.Key`
    such that ``a <= b`` (as strings) implies ``Hash(a) <= Hash(b)``.

:func:`uniform_hash`
    A deterministic uniform hash (SHA-256 based) used where order does
    not matter, e.g. to mint globally unique identifiers.
"""

from __future__ import annotations

import hashlib

from repro.util.keys import Key, MemoCache

#: Default number of bits in a data key.  Each printable-ASCII
#: character consumes ~6.6 bits of an order-preserving key, so two
#: strings sharing an n-character prefix collide in their first
#: ~6.6*n key bits; 128 bits resolve ~19 characters, enough to
#: distinguish accession-style identifiers ("SwissProt:P10001") that
#: share long namespace prefixes.
DEFAULT_KEY_BITS = 128

#: Alphabet used for the positional interpretation of characters.  Any
#: character outside the alphabet is clamped to the nearest edge, which
#: keeps the mapping monotone.
_ALPHABET_LO = 0x20  # space
_ALPHABET_HI = 0x7E  # tilde
_ALPHABET_SIZE = _ALPHABET_HI - _ALPHABET_LO + 1

#: memo for :func:`order_preserving_hash` — (value, bits) -> Key.
#: Triple indexing hashes every subject/predicate/object string three
#: ways and queries re-hash the same vocabulary terms constantly; at
#: 10k-peer scale this is one of the hottest pure functions in the
#: system (named in ROADMAP's hot-path list).
HASH_CACHE = MemoCache(maxsize=1 << 16)

#: memo for :func:`prefix_interval` — (prefix, bits) -> (low, high)
PREFIX_INTERVAL_CACHE = MemoCache(maxsize=1 << 14)


def clear_hash_caches() -> None:
    """Empty both memo caches (isolation hook for tests/benchmarks)."""
    HASH_CACHE.clear()
    PREFIX_INTERVAL_CACHE.clear()


def order_preserving_hash(value: str, bits: int = DEFAULT_KEY_BITS) -> Key:
    """Hash a string to a ``bits``-wide key, preserving string order.

    The string is read as a base-``|alphabet|`` fraction in ``[0, 1)``
    (the standard order-preserving embedding) and the leading ``bits``
    binary digits of that fraction form the key.  Consequently::

        a <= b  (str order, over the printable-ASCII alphabet)
            implies
        order_preserving_hash(a) <= order_preserving_hash(b)

    Results are memoized (:data:`HASH_CACHE`): the mediation layer
    hashes the same subject / predicate / object strings for every
    triple key, every query pattern and every covering-prefix lookup,
    so the hot path is overwhelmingly repeat values.  :class:`Key` is
    immutable, so returning the shared cached instance is safe.

    >>> a = order_preserving_hash("EMBL#Organism")
    >>> b = order_preserving_hash("EMP#SystematicName")
    >>> (a <= b) == ("EMBL#Organism" <= "EMP#SystematicName")
    True
    """
    if bits <= 0:
        raise ValueError("bits must be positive")
    cache_key = (value, bits)
    cached = HASH_CACHE.get(cache_key)
    if cached is not None:
        return cached
    # Interpret the string as a fraction in [0, 1) with one "digit"
    # per character.  Work in exact integer arithmetic to avoid float
    # rounding breaking monotonicity for long common prefixes: compute
    # floor(fraction * 2**bits) digit by digit.
    numerator = 0
    denominator = 1
    for ch in value[: (bits // 4) + 16]:  # more chars than bits can resolve
        code = min(max(ord(ch), _ALPHABET_LO), _ALPHABET_HI) - _ALPHABET_LO
        numerator = numerator * _ALPHABET_SIZE + code
        denominator *= _ALPHABET_SIZE
        if denominator >= (1 << (bits + 8)):
            break
    scaled = (numerator << bits) // denominator if denominator else 0
    if scaled >= (1 << bits):  # defensive; cannot happen for code < size
        scaled = (1 << bits) - 1
    result = Key.from_int(scaled, bits)
    HASH_CACHE.put(cache_key, result)
    return result


def prefix_interval(value_prefix: str, bits: int = DEFAULT_KEY_BITS) -> tuple[Key, Key]:
    """The key interval holding every string starting with the prefix.

    Because the hash is order-preserving, all strings with a common
    prefix occupy one contiguous key interval: from the hash of the
    prefix itself (the smallest such string) to the hash of the prefix
    padded with the largest alphabet character.  Combined with
    :func:`repro.util.keys.covering_prefixes`, this turns prefix
    searches into a few subtree queries.

    The interval *over-approximates* by at most one key at the top:
    the supremum of the prefix's fraction range coincides, at finite
    key width, with the key of the immediately following string (e.g.
    the "Asp" interval's last key is also ``hash("Asq")``).  Range
    consumers filter results by actual value, so the stray boundary
    key costs one extra candidate, never a missed match.

    >>> low, high = prefix_interval("Asp")
    >>> low <= order_preserving_hash("Aspergillus") <= high
    True
    """
    cache_key = (value_prefix, bits)
    cached = PREFIX_INTERVAL_CACHE.get(cache_key)
    if cached is not None:
        return cached
    low = order_preserving_hash(value_prefix, bits)
    padded = value_prefix + chr(_ALPHABET_HI) * ((bits // 4) + 16)
    high = order_preserving_hash(padded, bits)
    PREFIX_INTERVAL_CACHE.put(cache_key, (low, high))
    return low, high


def uniform_hash(value: str, bits: int = DEFAULT_KEY_BITS) -> Key:
    """Hash a string to a ``bits``-wide key with uniform distribution.

    Deterministic across processes (SHA-256 based, unlike Python's
    builtin ``hash``).  Used for identifier minting and anywhere key
    order is irrelevant.
    """
    if bits <= 0:
        raise ValueError("bits must be positive")
    digest = hashlib.sha256(value.encode("utf-8")).digest()
    needed_bytes = (bits + 7) // 8
    as_int = int.from_bytes(digest[:needed_bytes], "big") >> (needed_bytes * 8 - bits)
    return Key.from_int(as_int, bits)
