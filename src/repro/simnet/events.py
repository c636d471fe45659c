"""Event loop and futures for the discrete-event simulation.

A minimal, deterministic scheduler: events are ``(time, seq, handle)``
entries in a binary heap, where the slot-only :class:`EventHandle`
carries the callback and its arguments.  The ``seq`` tiebreaker makes
same-time events fire in scheduling order, which keeps whole
simulations reproducible bit-for-bit under a fixed seed.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable


class SimulationError(RuntimeError):
    """Raised for scheduling misuse or when a simulation cannot progress."""


#: a queue is swept only past this many tombstones (below it the
#: rebuild costs more than skipping them at pop time)
_SWEEP_FLOOR = 64


class EventHandle:
    """A cancellable reference to a scheduled event.

    Cancellation is *lazy*: the heap entry stays queued and is skipped
    when popped — or swept out earlier, once such tombstones outnumber
    the live entries (see :meth:`EventLoop._sweep`).  The owning loop
    keeps a live-event counter so callers (e.g. the sharded transport's
    window stepper) can tell "queue still holds work" from "queue holds
    only cancelled tombstones" without draining it.

    The handle also *is* the event: callback and arguments live in
    slots here (no per-event dict, no separate heap payload), so a
    heap entry is just ``(time, seq, handle)``.
    """

    __slots__ = ("time", "seq", "cancelled", "_loop", "_fired",
                 "_callback", "_args")

    def __init__(self, time: float, seq: int,
                 loop: "EventLoop | None" = None,
                 callback: "Callable | None" = None,
                 args: tuple = ()) -> None:
        self.time = time
        self.seq = seq
        self.cancelled = False
        self._loop = loop
        self._fired = False
        self._callback = callback
        self._args = args

    def cancel(self) -> None:
        """Prevent the event from firing (idempotent)."""
        if not self.cancelled:
            self.cancelled = True
            # Never fires: drop what it would have called, so neither a
            # queued tombstone nor a handle its callback's owner keeps
            # pins anything.
            self._callback = None
            self._args = ()
            loop = self._loop
            if loop is not None and not self._fired:
                loop._live -= 1
                # Every queue entry is live or a tombstone.
                tombstones = len(loop._queue) - loop._live
                if tombstones > loop._live and tombstones > _SWEEP_FLOOR:
                    loop._sweep()


class CancelToken:
    """Cooperative cancellation shared by one streaming computation.

    The token generalizes :class:`EventHandle`'s ``cancel()`` /
    ``cancelled`` protocol to whole *operations*: anything started on
    behalf of a cancellable computation (pattern fetches, retry
    timers, reformulation fan-out) keeps a reference to the token,
    checks :attr:`cancelled` before issuing new work, and may register
    an :meth:`on_cancel` callback to tear down in-flight state (for
    scheduled events that usually means calling
    :meth:`EventHandle.cancel` via :meth:`link`).

    Cancellation is cooperative and idempotent: messages already on
    the wire still arrive, but no *new* work is started once the token
    fires — which is exactly what limit pushdown needs to stop a
    distributed query the moment it has enough answers.

    >>> token = CancelToken()
    >>> fired = []
    >>> token.on_cancel(lambda: fired.append("a"))
    >>> token.cancel(); token.cancel()  # idempotent
    >>> (token.cancelled, fired)
    (True, ['a'])
    """

    __slots__ = ("cancelled", "_callbacks")

    def __init__(self) -> None:
        self.cancelled = False
        self._callbacks: list[Callable[[], None]] = []

    def cancel(self) -> None:
        """Fire the token (idempotent); runs callbacks synchronously."""
        if self.cancelled:
            return
        self.cancelled = True
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback()

    def on_cancel(self, callback: Callable[[], None]) -> None:
        """Run ``callback()`` when cancelled (immediately if already)."""
        if self.cancelled:
            callback()
        else:
            self._callbacks.append(callback)

    def link(self, handle: EventHandle) -> None:
        """Cancel a scheduled event when the token fires."""
        self.on_cancel(handle.cancel)


class Future:
    """A one-shot result container resolved by a later event.

    Unlike asyncio futures there is no event-loop affinity or thread
    safety — the simulation is single-threaded by construction.

    Callbacks fire once each, in registration order.  Almost every
    future has exactly one (its consumer), so that one is stored as is
    and a list appears only for a second.
    """

    __slots__ = ("_done", "_result", "_exception", "_callbacks")

    def __init__(self) -> None:
        self._done = False
        self._result: Any = None
        self._exception: BaseException | None = None
        #: ``None``, the one callback, or a list of several
        self._callbacks: Any = None

    @property
    def done(self) -> bool:
        """Whether a result or exception has been set."""
        return self._done

    def set_result(self, result: Any) -> None:
        """Resolve the future; fires callbacks synchronously."""
        if self._done:
            raise SimulationError("future already resolved")
        self._done = True
        self._result = result
        self._fire_callbacks()

    def set_exception(self, exc: BaseException) -> None:
        """Resolve the future with a failure."""
        if self._done:
            raise SimulationError("future already resolved")
        self._done = True
        self._exception = exc
        self._fire_callbacks()

    def result(self) -> Any:
        """The resolved value (raises the stored exception on failure)."""
        if not self._done:
            raise SimulationError("future not resolved yet")
        if self._exception is not None:
            raise self._exception
        return self._result

    def add_done_callback(self, callback: Callable[["Future"], None]) -> None:
        """Call ``callback(self)`` on resolution (immediately if done)."""
        if self._done:
            callback(self)
            return
        callbacks = self._callbacks
        if callbacks is None:
            self._callbacks = callback
        elif type(callbacks) is list:
            callbacks.append(callback)
        else:
            self._callbacks = [callbacks, callback]

    def _fire_callbacks(self) -> None:
        callbacks, self._callbacks = self._callbacks, None
        if type(callbacks) is list:
            for callback in callbacks:
                callback(self)
        elif callbacks is not None:
            callbacks(self)


def gather(futures: list[Future]) -> Future:
    """A future resolving to the list of results of ``futures``.

    Resolves once every input is done; results keep input order.  Used
    e.g. by triple insertion, which fans a whole upload out into three
    overlay updates a triple.  An empty input resolves immediately.  An
    input that fails raises its exception to whoever resolved it, and
    the gather never resolves.

    The inputs are read back when the last one resolves, so the list
    must not change while the gather is pending.
    """
    if not futures:
        combined: Future = Future()
        combined.set_result([])
        return combined
    gatherer = _Gather(futures)
    for fut in futures:
        fut.add_done_callback(gatherer)
    return gatherer.combined


class _Gather:
    """Shared state of one :func:`gather` call, and the done-callback
    of every input: it counts resolutions down and collects the results
    in input order at the last one, so an input costs nothing here."""

    __slots__ = ("combined", "futures", "left")

    def __init__(self, futures: list[Future]) -> None:
        self.combined: Future = Future()
        self.futures = futures
        self.left = len(futures)

    def __call__(self, fut: Future) -> None:
        fut.result()  # a failed input raises here
        self.left -= 1
        if self.left == 0:
            futures, self.futures = self.futures, None
            self.combined.set_result([f._result for f in futures])


class EventLoop:
    """Deterministic discrete-event scheduler.

    >>> loop = EventLoop()
    >>> fired = []
    >>> _ = loop.schedule(2.0, fired.append, "b")
    >>> _ = loop.schedule(1.0, fired.append, "a")
    >>> loop.run_until_idle()
    >>> fired
    ['a', 'b']
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = itertools.count()
        self._queue: list[tuple[float, int, EventHandle]] = []
        self._events_processed = 0
        self._live = 0

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events fired so far (for diagnostics)."""
        return self._events_processed

    @property
    def live_events(self) -> int:
        """Queued events that are not cancelled (pending real work)."""
        return self._live

    def next_live_event_time(self) -> float | None:
        """Virtual time of the earliest *non-cancelled* queued event.

        Cancelled tombstones at the head of the heap are discarded on
        the way (they could never fire anything), so repeated calls
        are amortized O(1).  This is what lets the sharded transport's
        window stepper jump over timeout tails that resolved early.
        """
        queue = self._queue
        while queue and queue[0][2].cancelled:
            heapq.heappop(queue)
        return queue[0][0] if queue else None

    def _sweep(self) -> None:
        """Drop every cancelled entry and restore the heap (in place:
        the run loops hold the list).  Pops follow the total ``(time,
        seq)`` order whatever the heap's layout, so nothing observable
        changes."""
        queue = self._queue
        queue[:] = [entry for entry in queue if not entry[2].cancelled]
        heapq.heapify(queue)

    def schedule(self, delay: float, callback: Callable, *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        time = self._now + delay
        handle = EventHandle(time, next(self._seq), self, callback, args)
        heapq.heappush(self._queue, (time, handle.seq, handle))
        self._live += 1
        return handle

    def schedule_at(self, time: float, callback: Callable, *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute virtual time ``time``."""
        return self.schedule(max(0.0, time - self._now), callback, *args)

    def run_until_idle(self, max_events: int | None = None) -> None:
        """Fire events until the queue drains (or ``max_events`` fire)."""
        queue = self._queue
        pop = heapq.heappop
        fired = 0
        while queue:
            if max_events is not None and fired >= max_events:
                raise SimulationError(
                    f"run_until_idle exceeded {max_events} events"
                )
            fired += 1
            time, _seq, handle = pop(queue)
            if handle.cancelled:
                continue
            handle._fired = True
            self._live -= 1
            self._now = time
            self._events_processed += 1
            handle._callback(*handle._args)

    def run_until(self, time: float) -> None:
        """Fire all events scheduled strictly up to virtual time ``time``."""
        queue = self._queue
        pop = heapq.heappop
        while queue and queue[0][0] <= time:
            event_time, _seq, handle = pop(queue)
            if handle.cancelled:
                continue
            handle._fired = True
            self._live -= 1
            self._now = event_time
            self._events_processed += 1
            handle._callback(*handle._args)
        self._now = max(self._now, time)

    def run_until_complete(self, future: Future, max_events: int = 10_000_000) -> Any:
        """Drive the loop until ``future`` resolves; return its result.

        Raises :class:`SimulationError` if the queue drains without the
        future resolving — that indicates a lost message or a protocol
        bug, and failing loudly beats hanging.
        """
        queue = self._queue
        pop = heapq.heappop
        fired = 0
        # Direct slot access: the ``done`` property would cost one
        # Python frame per fired event in the hottest loop.
        while not future._done:
            if not queue:
                raise SimulationError(
                    "event queue drained but future is unresolved"
                )
            if fired >= max_events:
                raise SimulationError(f"exceeded {max_events} events")
            fired += 1
            time, _seq, handle = pop(queue)
            if handle.cancelled:
                continue
            handle._fired = True
            self._live -= 1
            self._now = time
            self._events_processed += 1
            handle._callback(*handle._args)
        return future.result()
