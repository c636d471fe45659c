"""Hypothesis strategies for stat bags (``obs.registry.CounterGroup``).

One sample bag using every kind of declaration — scalar counters,
per-key counts, a derived reading and an unreported counter — and a
strategy filling it from tiny pools, so generated bags collide on keys
(where a per-key sum could go wrong) and include the all-zero bag.
"""

from hypothesis import strategies as st

from repro.obs.registry import CounterGroup


class SampleBag(CounterGroup):
    _fields = ("sent", "dropped", "latency")
    _keyed = ("by_kind", "by_reason")
    _derived = ("delivered",)
    _unreported = ("latency",)
    __slots__ = _fields + _keyed

    @property
    def delivered(self) -> int:
        return self.sent - self.dropped


_counts = st.integers(min_value=0, max_value=9)
_keyed_counts = st.dictionaries(st.sampled_from(["route", "reply", "probe"]),
                                st.integers(min_value=1, max_value=9),
                                max_size=3)


@st.composite
def stat_bags(draw) -> SampleBag:
    """A :class:`SampleBag` with every declared counter drawn."""
    bag = SampleBag()
    for name in bag._fields:
        setattr(bag, name, draw(_counts))
    for name in bag._keyed:
        getattr(bag, name).update(draw(_keyed_counts))
    return bag
