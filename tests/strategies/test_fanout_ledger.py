"""Property tests: the fan-out ledger's termination rule.

:class:`~repro.pgrid.peer.FanoutTask` is the one place that decides
when a multi-peer operation is over.  The rule, stated without the
ledger's own bookkeeping: the task finishes complete at exactly the
delivery after which *every request of the tree* has reported and —
where its report said ``executes`` — delivered its results; whatever
the order, however often a message is duplicated.  Short of that it
finishes incomplete at its timeout and not before.  Either way
``on_finish`` runs once and nothing is left behind.

A split op's ledger (:class:`~repro.pgrid.peer.SplitTask`) counts
keys instead: a split write finishes complete at exactly the delivery
that answers its last key, though its relays — requests that answered
no key — never report.

The peer under test routes nothing: the test plays the delegates,
delivering reports through ``PGridPeer._complete`` (so the
``<op>!<task>!<n>`` id dispatch is covered too, and a split op's
reports carry its ledger's own id) and results through
``FanoutTask.on_result``.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.pgrid.peer import FanoutTask, PGridPeer
from repro.simnet.network import SimNetwork
from repro.util.keys import Key

from .fanouts import fanout_schedules, required_events, split_write_schedules
from .settings import STANDARD_SETTINGS

TIMEOUT = 50.0


def request_id(task_id, index):
    return f"fan!{task_id}!origin:{index}"


class _Origin(PGridPeer):
    """Sub-requests go nowhere; the root's id is request 0's."""

    def _send_subrequest(self, op, task_id, key, value):
        return request_id(task_id, 0)

    def _send_split(self, *request):
        pass


class _Fanout:
    """One started task plus what its callbacks observed."""

    def __init__(self, tree):
        self.parents, self.executes = tree
        self.peer = _Origin("origin", Key(""))
        SimNetwork().attach(self.peer)
        self.finishes = []
        self.results = []
        self.task = FanoutTask(self.peer, self.finishes.append,
                               on_results=self.results.append)
        self.task.start("fan", Key(""), {}, TIMEOUT)

    def deliver(self, event):
        kind, index = event
        task_id = self.task.task_id
        if kind == "results":
            # As ``_handle_refo_results`` does: only a live task hears.
            task = self.peer._tasks.get(task_id)
            if task is not None:
                task.on_result(request_id(task_id, index), index)
            return
        self.peer._complete({
            "op_id": request_id(task_id, index),
            "hops": 0,
            "values": {
                "spawned": [request_id(task_id, child)
                            for child, parent in enumerate(self.parents)
                            if parent == index],
                "executes": self.executes[index],
            },
        })

    def assert_closed(self, complete):
        assert self.finishes == [complete]
        assert self.peer._tasks == {}
        assert self.task.timeout_handle.cancelled


@STANDARD_SETTINGS
@given(fanout_schedules())
def test_finishes_complete_exactly_when_the_whole_tree_has_settled(case):
    tree, schedule = case
    fanout = _Fanout(tree)
    outstanding = set(required_events(tree))
    for event in schedule:
        assert fanout.finishes == []
        fanout.deliver(event)
        outstanding.discard(event)
        if not outstanding:
            break
    fanout.assert_closed(True)
    heard = list(fanout.results)
    # Everything after the finish is ignored: the rest of the
    # schedule, a replay of every message, and the (cancelled) timer.
    for event in schedule + required_events(tree):
        fanout.deliver(event)
    fanout.peer.loop.run_until(2 * TIMEOUT)
    fanout.assert_closed(True)
    assert fanout.results == heard
    assert set(heard) == {i for i, flag in enumerate(tree[1]) if flag}


@STANDARD_SETTINGS
@given(fanout_schedules(), st.data())
def test_one_message_short_it_finishes_incomplete_at_the_timeout(case, data):
    tree, schedule = case
    withheld = data.draw(st.sampled_from(required_events(tree)))
    fanout = _Fanout(tree)
    for event in schedule:
        if event != withheld:
            fanout.deliver(event)
    fanout.peer.loop.run_until(TIMEOUT - 1e-6)
    assert fanout.finishes == [] and fanout.task.task_id in fanout.peer._tasks
    fanout.peer.loop.run_until(TIMEOUT)
    fanout.assert_closed(False)
    fanout.deliver(withheld)  # too late to matter
    fanout.assert_closed(False)


@STANDARD_SETTINGS
@given(split_write_schedules())
def test_a_split_write_finishes_complete_though_its_relays_never_report(case):
    (parents, _executes), answered_by, schedule = case
    peer = _Origin("origin", Key(""))
    SimNetwork().attach(peer)
    keys = [Key(format(index, "03b")) for index in range(len(answered_by))]
    future = peer.update_many({key: (index,) for index, key in enumerate(keys)})
    (task,) = peer._tasks.values()
    silent = set(range(len(parents))) - set(answered_by)
    unheard = set(answered_by)
    for index in schedule:
        assert not future.done and index not in silent
        peer._complete({
            "op_id": task.task_id,
            "hops": 0,
            "values": {"answers": {key.bits: None for key, by
                                   in zip(keys, answered_by) if by == index},
                       "carried": 0},
        })
        unheard.discard(index)
        if not unheard:
            break
    assert future.done and peer._tasks == {}
    assert task.timeout_handle.cancelled
    assert [result.key for result in future.result()] == keys
    assert all(result.success for result in future.result())
    # Replays after the finish are dropped, and no retry fires.
    for index in schedule:
        peer._complete({"op_id": task.task_id, "hops": 0,
                        "values": {"answers": {}, "carried": 0}})
    peer.loop.run_until(2 * TIMEOUT)
    assert peer.failover_stats.retries == 0
