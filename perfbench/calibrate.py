"""Calibrated seconds: host time divided by the machine's speed right now.

The sandbox this benchmark runs in is a small shared box whose speed
drifts by tens of percent between (and within) processes, so raw wall
seconds cannot hold a 10 % regression bound.  :func:`spin` is a fixed
pure-Python kernel doing the kind of work the simulator does — heap
push/pop, dict writes, slot-object allocation, bound-method calls.
Every timed stretch of work is bracketed by one spin before and one
after (:mod:`perfbench.harness` says where), and reported as::

    calibrated = wall * CAL_REF_S / mean(spin_before, spin_after)

so work done while the box was 30 % slow is scaled back by the 30 % its
neighbouring spins also lost.  On the reference machine, in its fast
state, a spin takes ``CAL_REF_S`` seconds, which keeps calibrated
seconds numerically close to real seconds there.

This file is frozen: it imports nothing from ``repro`` and must not
change once baselines exist, or every recorded number shifts.
"""

from __future__ import annotations

import gc
import heapq
import time

#: seconds one :func:`spin` takes on the machine the baselines in
#: ``README.md`` were recorded on, when that machine is quiet
CAL_REF_S = 0.030

_SPIN_EVENTS = 24000


class _Event:
    __slots__ = ("time", "seq", "payload")

    def __init__(self, time: float, seq: int, payload: dict) -> None:
        self.time = time
        self.seq = seq
        self.payload = payload

    def fire(self, counts: dict) -> int:
        kind = self.seq & 15
        counts[kind] = counts.get(kind, 0) + 1
        return kind


def spin() -> float:
    """Run the fixed kernel once; returns the wall seconds it took.

    The cyclic collector is paused for the duration: a collection
    triggered by the kernel's allocations would cost time in proportion
    to the *workload's* heap, and the spin must not depend on it.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _kernel()
    finally:
        if gc_was_enabled:
            gc.enable()


def _kernel() -> float:
    started = time.perf_counter()
    queue: list = []
    counts: dict = {}
    store: dict = {}
    state = 12345
    push = heapq.heappush
    pop = heapq.heappop
    for seq in range(_SPIN_EVENTS):
        # 31-bit LCG: deterministic "delivery times" without `random`
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        event = _Event(state / 0x7FFFFFFF, seq, {"hops": seq & 7})
        push(queue, (event.time, seq, event))
        if seq & 3 == 3:
            _time, _seq, fired = pop(queue)
            kind = fired.fire(counts)
            store.setdefault(f"k{kind}", []).append(fired.payload["hops"])
    while queue:
        _time, _seq, fired = pop(queue)
        fired.fire(counts)
    return time.perf_counter() - started
