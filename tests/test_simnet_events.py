"""Tests for the discrete-event loop and futures."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.simnet import events
from repro.simnet.events import EventLoop, Future, SimulationError, gather

from strategies import STANDARD_SETTINGS


class TestEventLoop:
    def test_fires_in_time_order(self):
        loop = EventLoop()
        fired = []
        loop.schedule(2.0, fired.append, "b")
        loop.schedule(1.0, fired.append, "a")
        loop.schedule(3.0, fired.append, "c")
        loop.run_until_idle()
        assert fired == ["a", "b", "c"]

    def test_same_time_fires_in_schedule_order(self):
        loop = EventLoop()
        fired = []
        for tag in ("first", "second", "third"):
            loop.schedule(1.0, fired.append, tag)
        loop.run_until_idle()
        assert fired == ["first", "second", "third"]

    def test_clock_advances_to_event_time(self):
        loop = EventLoop()
        seen = []
        loop.schedule(2.5, lambda: seen.append(loop.now))
        loop.run_until_idle()
        assert seen == [2.5]
        assert loop.now == 2.5

    def test_negative_delay_rejected(self):
        loop = EventLoop()
        with pytest.raises(SimulationError):
            loop.schedule(-1.0, lambda: None)

    def test_cancel_prevents_firing(self):
        loop = EventLoop()
        fired = []
        handle = loop.schedule(1.0, fired.append, "x")
        handle.cancel()
        loop.run_until_idle()
        assert fired == []

    def test_cancel_is_idempotent(self):
        loop = EventLoop()
        handle = loop.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        loop.run_until_idle()

    def test_events_scheduled_during_run_fire(self):
        loop = EventLoop()
        fired = []
        loop.schedule(1.0, lambda: loop.schedule(1.0, fired.append, "n"))
        loop.run_until_idle()
        assert fired == ["n"]
        assert loop.now == 2.0

    def test_run_until_stops_at_time(self):
        loop = EventLoop()
        fired = []
        loop.schedule(1.0, fired.append, "a")
        loop.schedule(5.0, fired.append, "b")
        loop.run_until(2.0)
        assert fired == ["a"]
        assert loop.now == 2.0
        loop.run_until_idle()
        assert fired == ["a", "b"]

    def test_schedule_at_absolute_time(self):
        loop = EventLoop()
        seen = []
        loop.schedule_at(4.0, lambda: seen.append(loop.now))
        loop.run_until_idle()
        assert seen == [4.0]

    def test_run_until_idle_event_budget(self):
        loop = EventLoop()

        def reschedule():
            loop.schedule(1.0, reschedule)

        loop.schedule(1.0, reschedule)
        with pytest.raises(SimulationError):
            loop.run_until_idle(max_events=100)

    def test_events_processed_counter(self):
        loop = EventLoop()
        for _ in range(5):
            loop.schedule(1.0, lambda: None)
        loop.run_until_idle()
        assert loop.events_processed == 5


class TestTombstoneSweep:
    """Cancelled timers leave the queue once they outnumber the live
    ones; nothing observable may depend on whether they did."""

    def test_a_queue_of_mostly_tombstones_is_swept(self):
        loop = EventLoop()
        fired = []
        handles = [loop.schedule(1.0 + i, fired.append, i)
                   for i in range(300)]
        for handle in handles[:200]:
            handle.cancel()
        assert loop.live_events == 100
        assert len(loop._queue) < 200  # not 300: tombstones were dropped
        assert loop.next_live_event_time() == 201.0
        loop.run_until_idle()
        assert fired == list(range(200, 300))
        assert loop.events_processed == 100

    @staticmethod
    def replay(program, floor):
        """Run ``program`` on a fresh loop that sweeps past ``floor``
        tombstones; returns everything a caller can observe."""
        saved, events._SWEEP_FLOOR = events._SWEEP_FLOOR, floor
        try:
            loop = EventLoop()
            handles, log, longest = [], [], [0]

            def fire(index, victim, follow_up):
                log.append(("fired", index, loop.now))
                if victim is not None:
                    handles[victim % len(handles)].cancel()
                if follow_up is not None:
                    add(follow_up, None, None)

            def add(delay, victim, follow_up):
                handles.append(loop.schedule(
                    delay, fire, len(handles), victim, follow_up))

            for step in program:
                if step[0] == "schedule":
                    delay, victim, follow_up, copies = step[1:]
                    for copy in range(copies):
                        add(delay + copy / 4, victim, follow_up)
                elif step[0] == "cancel":
                    start, count = step[1:]
                    for handle in handles[start:start + count]:
                        handle.cancel()
                elif step[0] == "run_until":
                    loop.run_until(loop.now + step[1])
                longest[0] = max(longest[0], len(loop._queue))
                log.append((loop.live_events, loop.events_processed,
                            loop.next_live_event_time(), loop.now))
            loop.run_until_idle()
            log.append((loop.live_events, loop.events_processed, loop.now))
            return log, longest[0]
        finally:
            events._SWEEP_FLOOR = saved

    delays = st.floats(min_value=0.0, max_value=4.0)
    steps = st.one_of(
        # bursts, and runs of handles cancelled at once: sweeping needs
        # tombstones to outnumber what is left
        st.tuples(st.just("schedule"), delays,
                  st.none() | st.integers(0, 80), st.none() | delays,
                  st.integers(1, 12)),
        st.tuples(st.just("cancel"), st.integers(0, 40), st.integers(1, 12)),
        st.tuples(st.just("run_until"), delays),
    )

    @STANDARD_SETTINGS
    @given(program=st.lists(steps, max_size=80))
    def test_same_firing_sequence_with_and_without_sweeping(self, program):
        swept, swept_longest = self.replay(program, floor=0)
        lazy, lazy_longest = self.replay(program, floor=10 ** 9)
        assert swept == lazy
        assert swept_longest <= lazy_longest


class TestFuture:
    def test_result_before_resolution_raises(self):
        with pytest.raises(SimulationError):
            Future().result()

    def test_set_result_and_read(self):
        f = Future()
        f.set_result(42)
        assert f.done
        assert f.result() == 42

    def test_double_resolution_rejected(self):
        f = Future()
        f.set_result(1)
        with pytest.raises(SimulationError):
            f.set_result(2)

    def test_exception_propagates(self):
        f = Future()
        f.set_exception(RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            f.result()

    def test_callback_after_resolution_fires_immediately(self):
        f = Future()
        f.set_result("x")
        seen = []
        f.add_done_callback(lambda fut: seen.append(fut.result()))
        assert seen == ["x"]

    def test_callback_before_resolution_fires_on_set(self):
        f = Future()
        seen = []
        f.add_done_callback(lambda fut: seen.append(fut.result()))
        assert seen == []
        f.set_result("y")
        assert seen == ["y"]

    @pytest.mark.parametrize("resolve", ["result", "exception"])
    @pytest.mark.parametrize("count", [0, 1, 2, 5])
    def test_each_callback_fires_once_in_registration_order(
            self, count, resolve):
        f = Future()
        fired = []
        for index in range(count):
            f.add_done_callback(lambda fut, index=index: fired.append(index))
        assert fired == []
        if resolve == "result":
            f.set_result("x")
        else:
            f.set_exception(RuntimeError("boom"))
        assert fired == list(range(count))
        # Added after resolution: runs at once, and alone.
        f.add_done_callback(lambda fut: fired.append("late"))
        assert fired == list(range(count)) + ["late"]
        with pytest.raises(SimulationError):
            f.set_result("again")
        assert fired == list(range(count)) + ["late"]

    def test_run_until_complete(self):
        loop = EventLoop()
        f = Future()
        loop.schedule(3.0, f.set_result, "done")
        assert loop.run_until_complete(f) == "done"
        assert loop.now == 3.0

    def test_run_until_complete_detects_starvation(self):
        loop = EventLoop()
        with pytest.raises(SimulationError):
            loop.run_until_complete(Future())


class TestGather:
    def test_empty_resolves_immediately(self):
        g = gather([])
        assert g.done
        assert g.result() == []

    def test_preserves_order(self):
        f1, f2, f3 = Future(), Future(), Future()
        g = gather([f1, f2, f3])
        f2.set_result("b")
        f3.set_result("c")
        assert not g.done
        f1.set_result("a")
        assert g.result() == ["a", "b", "c"]

    def test_with_already_resolved_inputs(self):
        f1 = Future()
        f1.set_result(1)
        f2 = Future()
        g = gather([f1, f2])
        f2.set_result(2)
        assert g.result() == [1, 2]

    def test_nested_gather(self):
        f1, f2 = Future(), Future()
        inner = gather([f1])
        outer = gather([inner, f2])
        f1.set_result("i")
        f2.set_result("o")
        assert outer.result() == [["i"], "o"]

    def test_failing_input_raises_to_its_resolver(self):
        f1, f2 = Future(), Future()
        g = gather([f1, f2])
        with pytest.raises(RuntimeError, match="boom"):
            f1.set_exception(RuntimeError("boom"))
        f2.set_result(2)
        assert not g.done  # a gather with a failed input never resolves

    def test_already_failed_input_raises_at_gather(self):
        f1 = Future()
        f1.set_exception(RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            gather([Future(), f1])

    #: a gather tree: ``None`` is an input future, a list a nested
    #: gather of its children (possibly empty)
    trees = st.recursive(st.none(), lambda children: st.lists(
        children, max_size=4), max_leaves=12)

    @STANDARD_SETTINGS
    @given(tree=st.lists(trees, max_size=5), data=st.data())
    def test_input_order_under_every_completion_order(self, tree, data):
        leaves = []

        def plant(node):
            if node is None:
                leaves.append(Future())
                return len(leaves) - 1
            return [plant(child) for child in node]

        def combine(node):
            if isinstance(node, int):
                return leaves[node]
            return gather([combine(child) for child in node])

        def expected(node):
            if isinstance(node, int):
                return ("leaf", node)
            return [expected(child) for child in node]

        shape = plant(tree)
        order = data.draw(st.permutations(range(len(leaves))))
        # Some inputs may be resolved before the gathers are built.
        early = data.draw(st.integers(0, len(order)))
        for index in order[:early]:
            leaves[index].set_result(("leaf", index))
        root = combine(shape)
        for index in order[early:]:
            assert not root.done
            leaves[index].set_result(("leaf", index))
        assert root.done
        assert root.result() == expected(shape)
