"""Hypothesis strategies for multi-peer fan-outs and their deliveries.

A fan-out is a small tree of requests — request 0 is the root, every
other request was spawned by an earlier one — with a per-request
``executes`` flag (whether a separate results message follows the
report).  What the origin's ledger sees of it is a *schedule*: every
report and results message at least once, in any order, so a child's
report may precede its parent's and any message may be duplicated.

A split write is a tree of the same shape whose requests answer keys:
each key is answered by one request, and a request that answers none is
a relay, which sends no report at all.
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


@st.composite
def split_write_schedules(draw, max_keys=6):
    """``(tree, answered_by, schedule)``: a request tree, the request
    that answers each of one to ``max_keys`` keys, and the reports of
    the answering requests — each at least once, in any order."""
    tree = draw(request_trees())
    answered_by = draw(st.lists(
        st.integers(min_value=0, max_value=len(tree[0]) - 1),
        min_size=1, max_size=max_keys))
    reporting = sorted(set(answered_by))
    duplicates = draw(st.lists(st.sampled_from(reporting),
                               max_size=len(reporting)))
    return tree, answered_by, list(draw(st.permutations(
        reporting + duplicates)))
