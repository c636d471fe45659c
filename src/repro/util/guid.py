"""Globally unique identifiers for local resources and schemas.

Per §2.2 of the paper: "Whenever necessary, globally unique identifiers
are created for local resources and schemas by concatenating the
logical address pi(p) of the peer p posting the item with a hash of the
local identifier or schema name."
"""

from __future__ import annotations

from repro.util.hashing import uniform_hash
from repro.util.keys import Key

#: Separator between the peer path and the local-hash component.  It is
#: not a binary digit, so the two parts can be split unambiguously.
_SEPARATOR = "@"

#: Width of the local-identifier hash inside a GUID.
_LOCAL_HASH_BITS = 32


def mint_guid(peer_path: Key, local_identifier: str) -> str:
    """Create a globally unique identifier for a local item.

    The GUID is ``<pi(p)>@<hex hash of local id>``; two peers with
    different paths can never mint the same GUID, and one peer mints
    distinct GUIDs for distinct local names (up to hash collision).

    >>> mint_guid(Key("0110"), "my-schema").startswith("0110@")
    True
    """
    local_hash = uniform_hash(local_identifier, _LOCAL_HASH_BITS)
    return f"{peer_path.bits}{_SEPARATOR}{local_hash.to_int():08x}"
