"""Hypothesis strategies for multi-peer fan-outs and their deliveries.

A fan-out is a small tree of requests — request 0 is the root, every
other request was spawned by an earlier one — with a per-request
``executes`` flag (whether a separate results message follows the
report).  What the origin's ledger sees of it is a *schedule*: every
report and results message at least once, in any order, so a child's
report may precede its parent's and any message may be duplicated.
"""

from hypothesis import strategies as st


@st.composite
def request_trees(draw, max_requests=7):
    """``(parents, executes)``: ``parents[i] < i`` spawned request
    ``i`` (``None`` for the root), ``executes[i]`` is its flag."""
    count = draw(st.integers(min_value=1, max_value=max_requests))
    parents = [None] + [draw(st.integers(min_value=0, max_value=i - 1))
                        for i in range(1, count)]
    executes = draw(st.lists(st.booleans(), min_size=count, max_size=count))
    return parents, executes


def required_events(tree):
    """The distinct ``(kind, request)`` deliveries that settle ``tree``."""
    _parents, executes = tree
    return ([("report", i) for i in range(len(executes))]
            + [("results", i) for i, flag in enumerate(executes) if flag])


@st.composite
def fanout_schedules(draw):
    """``(tree, schedule)``: every required event once, plus duplicates,
    arbitrarily interleaved."""
    tree = draw(request_trees())
    events = required_events(tree)
    duplicates = draw(st.lists(st.sampled_from(events),
                               max_size=len(events)))
    return tree, list(draw(st.permutations(events + duplicates)))
