"""Timing plumbing shared by every workload.

One *repetition* is: ``gc.collect()``, a calibration spin, the
workload's timed region, a second spin, then the (untimed) correctness
check.  Workloads that issue their ops one by one also spin *between*
ops, every :data:`SLICE_S` seconds of work, so each slice of ops is
calibrated by the two spins next to it: the machine's speed wanders on
every timescale from milliseconds to minutes, and many adjacent
(work, spin) pairs average that out where two spins around a
one-second block cannot.

Repetitions repeat until the ``--seconds`` window is used up; headline
values are medians over repetitions in calibrated seconds (see
:mod:`perfbench.calibrate`); simulated statistics come from the first
repetition only, so they do not depend on how many repetitions fitted
in the window.
"""

from __future__ import annotations

import gc
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, ContextManager

from perfbench.calibrate import CAL_REF_S, spin

#: never report a median over fewer repetitions than this
MIN_REPS = 3

#: host seconds of ops between two calibration spins inside a repetition
SLICE_S = 0.1


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1,
                      int(round(q / 100.0 * (len(ordered) - 1)))))
    return ordered[rank]


@dataclass
class RunResult:
    """What one timed region produced (filled by the workload)."""

    #: workload operations completed
    ops: int
    #: raw host seconds of the timed region (in-loop spins excluded)
    wall_s: float
    #: raw host seconds of each op, or ``None`` when the ops overlap
    #: inside one simulator call
    op_times: list[float] | None = None
    #: calibration spins taken between ops: ``(ops completed before the
    #: spin, spin seconds)``
    spins: list[tuple[int, float]] = field(default_factory=list)
    #: simulated messages attributed to the op stream
    sim_msgs: int = 0
    #: simulated latency of each op, in simulated seconds
    sim_latencies: list[float] = field(default_factory=list)
    #: ops that raised or came back unsuccessful / incomplete
    failed: int = 0
    #: simulator events, network messages and (uploads only) data
    #: triples processed in the region; reported as rates
    events: int = 0
    messages: int = 0
    triples: int = 0
    #: counts read from the program's public counters (layer metrics)
    counters: dict[str, float] = field(default_factory=dict)
    #: raw host seconds per op, grouped by op kind
    kind_times: dict[str, list[float]] = field(default_factory=dict)
    #: whatever :meth:`Workload.check` needs to verify the outputs
    payload: Any = None


@dataclass
class Check:
    """Outcome of verifying one repetition against ground truth."""

    #: additional failed ops found by the check (wrong / missing rows)
    failed: int = 0
    #: ground-truth answers returned / expected
    recall: float = 1.0
    errors: list[str] = field(default_factory=list)


@dataclass
class Timed:
    """One calibrated measurement."""

    raw_s: float
    spin_s: float

    @property
    def factor(self) -> float:
        """Multiply raw seconds by this to get calibrated seconds."""
        return CAL_REF_S / self.spin_s

    @property
    def cal_s(self) -> float:
        return self.raw_s * self.factor


@dataclass
class Rep:
    """One repetition: its timed region, check and calibration."""

    result: RunResult
    check: Check
    #: ``spin_s`` is the effective spin of the whole region, i.e. the
    #: op-time-weighted mean over its slices
    timed: Timed
    #: calibrated host seconds of each op (``None`` like ``op_times``)
    cal_op_times: list[float] | None

    @property
    def ops_per_s(self) -> float:
        return self.result.ops / self.timed.cal_s

    @property
    def op_p50_ms(self) -> float:
        """Median calibrated host time of one op; where ops overlap
        inside one simulator call, the repetition's time per op."""
        if self.cal_op_times:
            return statistics.median(self.cal_op_times) * 1e3
        return self.timed.cal_s / self.result.ops * 1e3


def calibrate_rep(result: RunResult, check: Check, before: float,
                  after: float) -> Rep:
    """Calibrate each slice of ops by the two spins next to it."""
    times = result.op_times
    if not times:
        return Rep(result, check,
                   Timed(result.wall_s, (before + after) / 2.0), None)
    bounds = [(0, before), *result.spins, (len(times), after)]
    cal_times = [
        seconds * CAL_REF_S / ((spin_a + spin_b) / 2.0)
        for (start, spin_a), (end, spin_b) in zip(bounds, bounds[1:])
        for seconds in times[start:end]
    ]
    factor = sum(cal_times) / sum(times)
    return Rep(result, check, Timed(result.wall_s, CAL_REF_S / factor),
               cal_times)


class GcWatch:
    """Times cyclic-GC pauses through ``gc.callbacks``."""

    def __init__(self) -> None:
        self.pause_s = 0.0
        self.gen2 = 0
        self._started = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._started
            if info["generation"] == 2:
                self.gen2 += 1

    def __enter__(self) -> "GcWatch":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc: Any) -> None:
        gc.callbacks.remove(self._callback)


def timed_setup(workload: Any, seed: int) -> tuple[Any, Timed]:
    """Build the workload's state between two calibration spins."""
    gc.collect()
    before = spin()
    started = time.perf_counter()
    state = workload.setup(seed)
    raw = time.perf_counter() - started
    return state, Timed(raw, (before + spin()) / 2.0)


def timed_rep(workload: Any, state: Any,
              around_run: ContextManager = nullcontext()) -> Rep:
    """Run and verify one repetition.

    ``around_run`` is entered around the timed region only — not the
    spins, the collection before or the check after — which is where a
    traced run hangs its GC watch and separates its spans.
    """
    gc.collect()
    before = spin()
    with around_run:
        result = workload.run(state)
    after = spin()
    check = workload.check(state, result)
    result.payload = None  # outcomes are verified; do not hoard them
    return calibrate_rep(result, check, before, after)


def measure(workload: Any, seed: int, seconds: float,
            fixed_reps: int | None = None) -> tuple[list[Timed], list[Rep]]:
    """Set up and repeat the workload for about ``seconds`` seconds.

    Workloads that mutate their deployment (``workload.fresh``) rebuild
    it for every repetition, which also yields one set-up sample per
    repetition; the others build it ``workload.setup_reps`` times up
    front and repeat on the last build.  ``fixed_reps`` (smoke runs)
    replaces the time window by a repetition count.
    """
    started = time.perf_counter()
    deadline = started + seconds
    setups: list[Timed] = []
    reps: list[Rep] = []
    state = None
    if not workload.fresh:
        for _ in range(1 if fixed_reps else workload.setup_reps):
            state = None  # drop the previous build before the next
            state, timed = timed_setup(workload, seed)
            setups.append(timed)
    loop_started = time.perf_counter()
    while True:
        if workload.fresh:
            state = None
            state, timed = timed_setup(workload, seed)
            setups.append(timed)
        reps.append(timed_rep(workload, state))
        count = len(reps)
        if fixed_reps is not None:
            if count >= fixed_reps:
                break
            continue
        now = time.perf_counter()
        per_rep = (now - loop_started) / count
        # start another repetition only if most of it fits the window
        if count >= MIN_REPS and now + 0.6 * per_rep > deadline:
            break
    return setups, reps
