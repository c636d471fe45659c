"""Property tests: the overlay's draws are ``random.Random``'s draws.

*The routing-table draw is ``Random.sample``'s draw.*
:func:`repro.pgrid.construction._draw` draws every level's references
from the words of :func:`~repro.pgrid.construction._word_stream`,
without going through ``Random.sample``.  For a drawn seed, a drawn
number of words skipped first (up to two chunks and more, so draws
straddle a chunk's end), and a run of draws, each an index range
``[lo, lo + n)`` with ``n`` on both sides of the small-set size 21
(where ``Random.sample`` switches from a pool to a rejection set) and
``k`` up to ``min(n, 8)`` or ``min(n, 30)`` (every path: no pick, one,
two, and the general loop, across the ``k > 5`` set-size rule), it
must return, draw by draw, ``sample(range(lo, lo + n), k)`` of
``random.Random(seed)``, sorted, and once the stream is closed leave
the rng in the same state.  An interpreter whose ``Random.sample``
draws differently fails here before any routing table changes.

*A peer's reference draw is ``Random.choice``'s draw.*
:meth:`repro.pgrid.peer.PGridPeer._pick_reference` draws from the
buffered first words of its seed's stream, then from a generator of
its own.  For every kind of seed a peer is given and pools of one to
nine references, its picks must equal ``Random(seed)._randbelow``'s
step for step, across the end of the buffer, and leave the stream at
the same position (the next eight whole words agree).

*An entity draw is ``Random``'s draw.*
:func:`repro.datagen.entities._below` draws every generated entity's
``randint``, ``randrange`` and ``choice`` (the sequence letters too)
from the generator's ``getrandbits``.  For a drawn seed and bounds on
both sides of a power of two, ``a + _below(bits, b - a + 1)``,
``_below(bits, n)`` and ``seq[_below(bits, len(seq))]`` must equal
``randint(a, b)``, ``randrange(n)`` and ``choice(seq)`` of
``random.Random(seed)`` value for value, and leave the same state.
"""

import random

from hypothesis import given
from hypothesis import strategies as st

from repro.datagen.entities import _below
from repro.pgrid.construction import _CHUNK, _draw, _word_stream
from repro.pgrid.peer import _WORDS, PGridPeer
from repro.util.keys import Key

from strategies import DETERMINISM_SETTINGS


@st.composite
def draws(draw):
    """One draw: ``(lo, n, k)``."""
    lo = draw(st.integers(min_value=0, max_value=50))
    n = draw(st.one_of(st.integers(min_value=0, max_value=40),
                       st.integers(min_value=0, max_value=3000)))
    k = draw(st.integers(min_value=0,
                         max_value=min(n, draw(st.sampled_from((8, 30))))))
    return lo, n, k


@DETERMINISM_SETTINGS
@given(seed=st.integers(min_value=0, max_value=2**32),
       skip=st.one_of(st.integers(min_value=0, max_value=8),
                      st.integers(min_value=_CHUNK - 8,
                                  max_value=2 * _CHUNK + 8)),
       run=st.lists(draws(), min_size=1, max_size=6))
def test_the_draw_is_random_sample(seed, skip, run):
    reference = random.Random(seed)
    rng = random.Random(seed)
    next_word, close = _word_stream(rng)
    assert [next_word() for _ in range(skip)] == [
        reference.getrandbits(32) for _ in range(skip)]
    seq = range(max(lo + n for lo, n, _k in run))
    assert _draw(next_word, seq, run) == tuple(
        tuple(sorted(reference.sample(range(lo, lo + n), k)))
        for lo, n, k in run)
    close()
    assert rng.getstate() == reference.getstate()


#: a pool whose draws are whole 32-bit words (``k`` is 32; the one
#: out-of-range word is rejected by the peer and the reference alike)
WORD_POOL = range(2**32 - 1)

seeds = st.one_of(
    st.integers(max_value=-1),
    st.integers(min_value=2**64 + 1),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.text(max_size=12),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    st.none())


@DETERMINISM_SETTINGS
@given(seed=seeds,
       pool=st.integers(min_value=1, max_value=9),
       run=st.integers(min_value=_WORDS - 7, max_value=4 * _WORDS))
def test_a_peer_draws_its_seeds_stream(seed, pool, run):
    refs = [f"r{i}" for i in range(pool)]
    peer = PGridPeer("n0", Key("00"), rng=seed)
    peer.routing_table = [refs, WORD_POOL]
    reference = random.Random(0 if seed is None else seed)
    for _ in range(run):
        assert peer._pick_reference(0) == refs[reference._randbelow(pool)]
    words = [peer._pick_reference(1) for _ in range(8)]
    assert words == [reference._randbelow(len(WORD_POOL))
                     for _ in range(8)]
    # at least _WORDS + 1 words drawn: the peer left its buffer
    assert "rng" in vars(peer)


#: bounds of one entity draw: small pools, exact powers of two and
#: their neighbours (where an off-by-one moves the bit count), and
#: wide ranges
widths = st.one_of(
    st.integers(min_value=1, max_value=40),
    st.sampled_from([2**k + d for k in range(1, 33) for d in (-1, 0, 1)]),
    st.integers(min_value=1, max_value=2**40))


@DETERMINISM_SETTINGS
@given(seed=st.integers(min_value=0, max_value=2**32),
       low=st.integers(min_value=-5, max_value=2000),
       width=widths,
       run=st.integers(min_value=1, max_value=24))
def test_an_entity_draw_is_randoms_draw(seed, low, width, run):
    high = low + width - 1
    seq = range(low, high + 1)
    reference = random.Random(seed)
    rng = random.Random(seed)
    bits = rng.getrandbits
    for _ in range(run):
        assert low + _below(bits, width) == reference.randint(low, high)
        assert _below(bits, width) == reference.randrange(width)
        assert seq[_below(bits, len(seq))] == reference.choice(seq)
    assert rng.getstate() == reference.getstate()
