"""Property test: the routing-table draw is ``Random.sample``'s draw.

:func:`repro.pgrid.construction._sample` draws every level's references
without going through ``Random.sample``.  For a drawn seed, population
size ``n`` (on both sides of the small-set size 21, where
``Random.sample`` switches from a pool to a rejection set) and ``k`` up
to ``min(n, 8)`` (across the ``k > 5`` set-size rule), it must return
the same picks as ``random.Random(seed).sample(range(n), k)`` and leave
the rng in the same state.  An interpreter whose ``Random.sample``
draws differently fails here before any routing table changes.
"""

import random

from hypothesis import given
from hypothesis import strategies as st

from repro.pgrid.construction import _sample

from strategies import DETERMINISM_SETTINGS


@st.composite
def draws(draw):
    seed = draw(st.integers(min_value=0, max_value=2**32))
    n = draw(st.one_of(st.integers(min_value=0, max_value=40),
                       st.integers(min_value=0, max_value=3000)))
    k = draw(st.integers(min_value=0, max_value=min(n, 8)))
    return seed, n, k


@DETERMINISM_SETTINGS
@given(draws())
def test_the_draw_is_random_sample(case):
    seed, n, k = case
    expected_rng = random.Random(seed)
    expected = expected_rng.sample(range(n), k)
    rng = random.Random(seed)
    assert _sample(rng, list(range(n)), k) == expected
    assert rng.getstate() == expected_rng.getstate()
