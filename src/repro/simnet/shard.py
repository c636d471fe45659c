"""The two engines: one event loop, or N shards stepping in windows.

One gate, one driver, two clocks.  Every message on either engine
passes the single send/deliver gate in ``simnet/network.py``
(:class:`ShardTransport` *is* a :class:`SimNetwork` with an outbox and
a liveness map, and has no send code of its own), and both
engines expose one driver surface (:class:`_Engine`) whose kickoff,
attribution, trace roots and reports come from the same :class:`Shard`
code.  What differs is the clock: :class:`SingleLoopEngine` runs one
:class:`~repro.simnet.events.EventLoop`; :class:`ShardedTransport`
partitions the P-Grid trie key space across N *shards*, each owning a
contiguous run of trie leaves and simulating its peers on a private
event loop (its logical clock), and synchronizes the shards with a
classic conservative lookahead scheme:

Window rule
    Let ``W`` be the minimum cross-shard latency (the *lookahead*,
    :meth:`~repro.simnet.latency.LatencyModel.min_delay`).  All shards
    repeatedly run their local loops over the same window
    ``(T, T + W]``.  A message sent at ``t > T`` arrives no earlier
    than ``t + W > T + W``, so nothing sent inside a window can affect
    another shard *within* that window — shards are causally
    independent between barriers and may run in parallel.

Deterministic cross-shard ordering
    At each barrier, shards exchange their outboxes.  Every envelope
    carries ``(deliver_time, src_shard, src_seq)`` and the receiving
    shard enqueues arrivals sorted by exactly that triple; local events
    keep their ``(time, seq)`` heap order.  The merged order of the two
    logical clocks is therefore a pure function of the seed — worker
    scheduling (process interleaving, pipe timing) cannot perturb it,
    which is what lets faultlab's seed-replay and shrinking discipline
    survive at scale.

Liveness under churn
    The *owning* shard applies churn toggles as exact-time local
    events, so the authoritative delivery-time online check (drops with
    reason ``"in_flight"``) is the single loop's — the same inherited
    ``_deliver``.  Remote shards learn toggles from a liveness map
    refreshed at the start of the window containing the toggle —
    send-time online checks against remote peers may be stale by up to
    one window, mirroring how a real WAN's failure detectors lag the
    failures themselves.  A peer's own liveness probe
    (:meth:`~repro.simnet.network.SimNetwork.is_online`) reads the same
    two sources by the gate's own rule.

Worker modes
    ``mode="inline"`` runs every shard in this process (deterministic,
    zero dependencies — the default, and what tests use).
    ``mode="process"`` forks one worker per shard and drives them over
    pipes; the per-window algorithm is byte-for-byte the same, so both
    modes produce identical observables, but windows execute
    concurrently on multi-core hosts.  A handler exception inside a
    worker comes back over the pipe and re-raises in the controller as
    a :class:`SimulationError` naming the shard and the window.
"""

from __future__ import annotations

import itertools
import random
import resource
import traceback
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

from repro.simnet.events import SimulationError
from repro.simnet.latency import ConstantLatency, LatencyModel
from repro.simnet.metrics import NetworkMetrics
from repro.simnet.network import Message, Node, SimNetwork


def partition_paths(assignment: dict[str, Any], num_shards: int
                    ) -> dict[str, int]:
    """Assign each node to a shard by contiguous trie key-space slices.

    Leaves (distinct paths) are sorted in trie (DFS / lexicographic)
    order and dealt to shards in contiguous runs of roughly equal peer
    count, so each shard owns an interval of the key space — replica
    groups never straddle shards, and prefix-local traffic (replication
    pushes, deep routing hops) stays intra-shard.

    ``assignment`` maps node id to a path (any object with ``.bits``).
    Returns node id -> shard index.
    """
    if num_shards <= 0:
        raise SimulationError("num_shards must be positive")
    members: dict[str, list[str]] = {}
    for node_id, path in assignment.items():
        members.setdefault(path.bits, []).append(node_id)
    leaves = sorted(members)
    total = len(assignment)
    owner: dict[str, int] = {}
    shard, filled = 0, 0
    for leaf in leaves:
        for node_id in members[leaf]:
            owner[node_id] = shard
        filled += len(members[leaf])
        # advance once this shard reached its proportional share
        while shard < num_shards - 1 and filled * num_shards >= total * (shard + 1):
            shard += 1
    return owner


class _EveryTag(dict):
    """A shard's ``metrics.operations``: every stamped tag is tracked.

    The single loop counts a tag only between ``begin_operation`` and
    ``end_operation``.  A causal chain can land on a shard that never
    saw the submission, so here the gate's ``op_tag in operations``
    test always passes and a tag's count starts from zero wherever it
    first shows up; the controller sums the per-shard counts.
    """

    def __contains__(self, op_tag: object) -> bool:
        return True

    def __missing__(self, op_tag: str) -> int:
        return 0


class ShardTransport(SimNetwork):
    """The transport one shard's peers are attached to.

    A :class:`SimNetwork` with an outbox: state, not a second gate.
    Every send and every delivery (local, or arriving from another
    shard at a barrier) runs the inherited gate, which parks a message
    for a peer *another* shard owns in :attr:`_outbox` for the next
    barrier exchange, so merged per-shard counters equal the single
    loop's.  :meth:`_remote_online` tells the gate such a peer's
    liveness from the barrier-refreshed map; any other id not attached
    here (unknown, or owned here but detached) is offline.
    """

    #: perfbench's span target ``repro.simnet.shard:ShardTransport.send``
    #: looks the method up in this class's own dict (ROADMAP 0(f)); the
    #: alias is the gate itself, so it adds no frame to a send
    send = SimNetwork.send

    def __init__(
        self,
        shard_id: int,
        owner_of: dict[str, int],
        latency: LatencyModel,
        rng: random.Random,
    ) -> None:
        super().__init__(latency=latency, rng=rng)
        self.shard_id = shard_id
        self.metrics.operations = _EveryTag()
        self._owner_of = owner_of
        #: barrier-refreshed knowledge of remote peers' liveness
        self._liveness: dict[str, bool] = {}
        #: ``(deliver_time, seq, message)`` per cross-shard send
        self._outbox: list[tuple[float, int, Message]] = []
        self._out_seq = itertools.count()

    def _remote_online(self, node_id: str) -> bool:
        # Another shard's peer, as of the last barrier (window-stale).
        return (self._owner_of.get(node_id, self.shard_id) != self.shard_id
                and self._liveness.get(node_id, True))


def summarize_op_result(result: Any) -> tuple:
    """Default completion summary: a plain, picklable tuple.

    Works for :class:`repro.pgrid.peer.OpResult`; sharded harnesses
    reduce completions to plain data at the barrier so process workers
    never ship peer objects.
    """
    return (result.success, result.hops, round(result.latency, 9),
            result.attempts,
            None if result.values is None else len(result.values))


class Shard:
    """One transport, its peers, and the submissions issued on it.

    The sharded controller steps N of these (over
    :class:`ShardTransport`) through windows; the single-loop engine
    holds one over a plain :class:`SimNetwork` and uses only
    :meth:`_issue` and :meth:`stats` — which is what makes a submitted
    operation's attribution tag, trace root and report identical on
    both.
    """

    def __init__(self, shard_id: int, transport: SimNetwork) -> None:
        self.shard_id = shard_id
        self.transport = transport
        #: op ref -> completion summary, handed over at each barrier
        self._completions: dict[int, Any] = {}
        #: op ref -> future of an op still pending: filled by the single
        #: loop, whose :meth:`SingleLoopEngine.result` waits on one, and
        #: emptied here on completion (a sharded shard keeps none)
        self._futures: dict[int, Any] = {}

    def window(
        self,
        horizon: float,
        liveness: dict[str, bool],
        toggles: list[tuple[float, str, bool]],
        ops: list[tuple[int, str, str, tuple, Callable | None, str | None]],
        arrivals: list[tuple[float, int, int, Message]],
    ) -> tuple[list, dict, int, float | None]:
        """One window, barrier to barrier: apply the controller's
        inputs in this exact order, run to ``horizon``, and report
        (outbox, completions, live count, next live event time).

        Inline shards and forked workers both run this one method, so
        the step order determinism depends on is theirs by
        construction.  The trailing pair is the logical-clock status
        the controller needs for quiescence detection and window jumps.
        """
        transport = self.transport
        loop = transport.loop
        if liveness:
            transport._liveness.update(liveness)
        for at, node_id, online in toggles:
            loop.schedule_at(at, transport.set_online, node_id, online)
        for ref, node_id, method, args, summarize, tag in ops:
            self._issue(ref, node_id, method, args, summarize, tag)
        for deliver_time, _src_shard, _src_seq, message in arrivals:
            loop.schedule_at(deliver_time, transport._deliver, message)
        self.run_window(horizon)
        outbox, transport._outbox = transport._outbox, []
        completions, self._completions = self._completions, {}
        return outbox, completions, loop.live_events, \
            loop.next_live_event_time()

    def run_window(self, horizon: float) -> None:
        self.transport.loop.run_until(horizon)

    # -- helpers -------------------------------------------------------

    def _issue(self, ref: int, node_id: str, method: str, args: tuple,
               summarize: Callable | None, tag: str | None) -> Any:
        """Call ``peer.<method>(*args)`` now; summarize on completion
        (by default with :func:`summarize_op_result`).  Returns the
        operation's future.

        ``tag`` is the attribution tag ``op:<ref>`` of an attributed
        submission (``None`` otherwise): the synchronous kickoff runs
        inside that scope and every asynchronous continuation inherits
        the tag through the messages themselves (across shard
        boundaries too), so the ``operations`` counters give an exact
        per-op message count.  With a tracer installed the kickoff is
        also the root span of trace ``op:<ref>``: refs come from the
        engine's global submit order, so the trace id — and the root
        span's per-peer sequence — do not depend on how peers are
        sharded.
        """
        transport = self.transport
        peer = transport.node(node_id)
        tracer = transport.tracer
        root = context = None
        if tracer is not None:
            root = tracer.start_trace(tag or f"op:{ref}", f"op:{method}",
                                      peer=node_id, start=transport.loop.now)
            context = tracer.context_of(root)
        if tag is None and root is None:
            future = getattr(peer, method)(*args)
        else:
            # ``transport.resume((tag, context))``, inlined as at the gate
            scopes = transport._scopes
            scopes.append((tag, context))
            try:
                future = getattr(peer, method)(*args)
            finally:
                scopes.pop()
        # A partial, not a closure: a closure keeps a cell per captured
        # name alive for each of the thousands of operations in flight.
        future.add_done_callback(partial(
            self._record_completion, ref, summarize or summarize_op_result,
            root))
        return future

    def _record_completion(self, ref: int, summarize: Callable,
                           root: Any, future: Any) -> None:
        self._futures.pop(ref, None)
        result = future.result()
        if root is not None:
            transport = self.transport
            transport.tracer.finish(root, transport.loop.now,
                                    "ok" if getattr(result, "success", True)
                                    else "failed")
        self._completions[ref] = summarize(result)

    def stats(self) -> dict:
        """Per-shard report (metrics + footprint + spans)."""
        transport = self.transport
        report = {
            "shard": self.shard_id,
            "peers": len(transport._nodes),
            # The live bag (a worker's stats pipe pickles it by value);
            # its ``operations`` ledger holds the per-op attribution
            # counters of every tag this shard's traffic carried.
            "metrics": transport.metrics,
            "events_processed": transport.loop.events_processed,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }
        if transport.tracer is not None:
            # Span records are plain dicts, so process-mode workers
            # ship them over the stats pipe unchanged; the controller
            # merges per-shard buffers deterministically.
            report["spans"] = transport.tracer.records
            report["spans_dropped"] = transport.tracer.dropped
        return report


def _shard_worker(shard: Shard, conn: Any) -> None:
    """Process-mode worker loop: :meth:`Shard.window` on demand.

    A handler exception ends the worker, but not silently: the
    formatted traceback goes back over the pipe as a
    :class:`SimulationError` naming the shard and the window, which the
    controller re-raises from the barrier.
    """
    try:
        while True:
            command = conn.recv()
            op = command[0]
            if op == "window":
                try:
                    reply = shard.window(*command[1:])
                except Exception:
                    conn.send(SimulationError(
                        f"shard {shard.shard_id} failed in the window "
                        f"ending at {command[1]}:\n{traceback.format_exc()}"))
                    return
                conn.send(reply)
            else:  # "stats", or the final ones with "stop"
                conn.send(shard.stats())
                if op == "stop":
                    return
    except (EOFError, ConnectionError, KeyboardInterrupt):
        return  # parent went away


@dataclass
class _WindowInput:
    """Per-shard inputs accumulated between barriers."""

    liveness: dict[str, bool] = field(default_factory=dict)
    toggles: list[tuple[float, str, bool]] = field(default_factory=list)
    ops: list[tuple[int, str, str, tuple, Callable | None, str | None]] = \
        field(default_factory=list)
    arrivals: list[tuple[float, int, int, Message]] = field(
        default_factory=list)

    def take(self) -> tuple[dict, list, list, list]:
        out = (self.liveness, self.toggles, self.ops,
               sorted(self.arrivals, key=lambda a: (a[0], a[1], a[2])))
        self.liveness, self.toggles, self.ops, self.arrivals = {}, [], [], []
        return out

    def empty(self) -> bool:
        return not (self.liveness or self.toggles or self.ops
                    or self.arrivals)


class _Engine:
    """What the two engines share: installs, reporting and lifetime.

    An engine is what a workload driver or query facade runs a
    deployment on: ``add_peer / set_online_at / install_tracer /
    install_fault_plan / submit / result / run_until /
    run_until_quiescent / stop / metrics_snapshot /
    attributed_messages / completed / trace_records / now``.
    Subclasses supply the clock (one loop, or N windowed ones) and say
    where their transports are (``_transports()``, what tracers and
    injectors install on) and their per-shard :meth:`Shard.stats`
    reports (``shard_stats()`` mid-run, ``stop()`` for the final ones).
    """

    seed: int

    def install_tracer(self, seed: int | None = None,
                       capacity: int = 200_000) -> None:
        """Install one :class:`~repro.obs.tracer.Tracer` per transport.

        All tracers share one trace seed, so span ids depend only on
        ``(seed, peer, per-peer sequence)`` — identical across engines,
        shard counts and worker modes.
        """
        from repro.obs.tracer import Tracer

        trace_seed = self.seed if seed is None else seed
        for transport in self._transports():
            transport.install_tracer(
                Tracer(seed=trace_seed, capacity=capacity))

    def install_fault_plan(self, plan: Any) -> Any:
        """Install one :class:`~repro.faultlab.injector.FaultInjector`
        per transport, all driven by the same :class:`FaultPlan` (what
        :func:`repro.faultlab.injector.install_plan` calls).

        Per-clause RNG streams are seeded by ``(plan.seed, clause,
        ordinal)`` on every shard, and each shard consumes its streams
        in its own deterministic event order — so a faulted sharded run
        replays bit-identically from its seed, inline or forked.

        Semantics across the shard boundary: partitions and drop
        clauses are send-side and apply to *all* traffic (including
        cross-shard envelopes); delay/duplicate/reorder clauses own
        delivery scheduling and therefore apply to intra-shard
        deliveries only (cross-shard envelopes are latency-stamped at
        the sender and exchanged at the barrier).  Crash/restart
        clauses fire on the owning shard exactly; remote shards keep
        sending until the owner drops the deliveries as ``in_flight``
        — the same one-window staleness as barrier-start liveness.

        Returns an :class:`~repro.faultlab.injector.InstalledPlan`
        aggregating the injectors.
        """
        from repro.faultlab.injector import FaultInjector, InstalledPlan

        return InstalledPlan([FaultInjector(transport, plan).install()
                              for transport in self._transports()])

    def trace_records(self) -> list[dict]:
        """Merged, deterministically ordered span/event records.

        The merge order is a pure function of the records, so every
        engine configuration exports byte-identical JSONL for the same
        spans.
        """
        from repro.obs.tracer import merge_records

        return merge_records([entry.get("spans", [])
                              for entry in self.shard_stats()])

    def metrics_snapshot(self) -> dict:
        """The transports' :class:`NetworkMetrics` summed (live mid-run,
        final after stop), in :meth:`NetworkMetrics.snapshot`'s shape on
        every engine.  Host numbers — events processed, peak RSS — are
        per shard and stay in :meth:`shard_stats`."""
        return NetworkMetrics.total(
            entry["metrics"] for entry in self.shard_stats()).snapshot()

    def attributed_messages(self, ref: int) -> int:
        """Messages counted under ``op:<ref>``: a cross-shard
        operation's tag appears on every shard its causal chain
        touched, and the per-op total is the sum."""
        tag = f"op:{ref}"
        return sum(entry["metrics"].operations.get(tag, 0)
                   for entry in self.shard_stats())

    def __enter__(self) -> "_Engine":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.stop()


class SingleLoopEngine(_Engine):
    """The engine surface over one plain :class:`SimNetwork`.

    One event loop, no windows, no outbox: submissions issue
    immediately, toggles are ordinary loop events, and running to
    quiescence is ``run_until_idle``.  Kickoff, attribution, trace
    roots and the report come from the same :class:`Shard` code the
    sharded engine runs, so the two differ by the window barrier and
    nothing else.  An op's future is held only while it is pending and
    its attribution tag only if it is attributed, so once the loop is
    quiet the engine holds exactly the summaries in :attr:`completed`,
    as the sharded engine does.  The engine builds its own network,
    whose latency draws come from ``Random(f"{seed}/latency")``.
    """

    num_shards = 1

    def __init__(self, latency: LatencyModel | None = None,
                 seed: int = 0) -> None:
        self.seed = seed
        #: the network this engine drives
        self.net = SimNetwork(latency=latency,
                              rng=random.Random(f"{seed}/latency"))
        self._shard = Shard(0, self.net)
        self._refs = itertools.count()
        #: op ref -> the operation's future, while it is pending (the
        #: shard's table: the completion path drops the entry, so a
        #: finished op leaves only its summary in :attr:`completed`)
        self._futures = self._shard._futures
        #: op ref -> attribution tag, for attributed ops until
        #: :meth:`result` collects them
        self._tags: dict[int, str] = {}

    @property
    def now(self) -> float:
        return self.net.loop.now

    @property
    def completed(self) -> dict[int, Any]:
        return self._shard._completions  # no barrier ever takes them

    def _transports(self) -> list[SimNetwork]:
        return [self.net]

    def add_peer(self, peer: Node, shard_id: int = 0) -> None:
        self.net.attach(peer)

    def set_online_at(self, time: float, node_id: str, online: bool) -> None:
        """Schedule a churn toggle at virtual ``time``."""
        self.net.node(node_id)  # unknown nodes fail here, not at ``time``
        self.net.loop.schedule_at(time, self.net.set_online, node_id, online)

    def submit(self, node_id: str, method: str, *args: Any,
               summarize: Callable | None = None,
               attribute: bool = False) -> int:
        """Call ``peer.<method>(*args)`` now; see
        :meth:`ShardedTransport.submit` for the contract."""
        ref = next(self._refs)
        tag = None
        if attribute:
            tag = self._tags[ref] = f"op:{ref}"
            self.net.metrics.begin_operation(tag)
        try:
            future = self._shard._issue(ref, node_id, method, args,
                                        summarize, tag)
        except BaseException:
            self.net.metrics.end_operation(self._tags.pop(ref, None))
            raise
        if not future.done:
            self._futures[ref] = future
        return ref

    def result(self, ref: int) -> tuple[Any, int]:
        """Drive the loop until op ``ref`` completes; return its
        summary and attributed message count, and forget the op.

        Waits on the op's own future, not for quiescence: a deployment
        with maintenance or churn timers never goes idle.  An op that
        has completed already answers at once, firing no event.  A
        handler exception propagates unchanged, with the op forgotten
        all the same.
        """
        future = self._futures.pop(ref, None)
        try:
            if future is not None:
                self.net.loop.run_until_complete(future)
        except BaseException:
            # The op may still complete later (its retry timers are
            # queued); nobody will collect that summary.
            future.add_done_callback(lambda _f: self.completed.pop(ref, None))
            raise
        finally:
            messages = self.net.metrics.end_operation(
                self._tags.pop(ref, None))
        return self.completed.pop(ref), messages

    def run_until(self, t_end: float) -> None:
        self.net.loop.run_until(t_end)

    def run_until_quiescent(self, max_events: int = 10_000_000) -> None:
        self.net.loop.run_until_idle(max_events=max_events)

    def shard_stats(self) -> list[dict]:
        return [self._shard.stats()]

    def stop(self) -> list[dict]:
        return self.shard_stats()  # nothing to join


class ShardedTransport(_Engine):
    """Controller of N shards stepping the conservative window protocol.

    Build the deployment (attach peers with :meth:`add_peer`), then
    drive virtual time with :meth:`run_until` /
    :meth:`run_until_quiescent`; submit operations against peers with
    :meth:`submit` and read their summaries from :attr:`completed`.
    ``mode="process"`` forks its workers on the first run (or an
    explicit :meth:`start`); use the transport as a context manager —
    ``with transport: ...`` — so they are stopped and joined however
    the block ends.  A handler exception inside a worker surfaces from
    the barrier as a :class:`SimulationError` naming the shard and the
    window, carrying the worker's traceback.
    """

    def __init__(
        self,
        num_shards: int,
        latency: LatencyModel | None = None,
        seed: int = 0,
        mode: str = "inline",
    ) -> None:
        if num_shards <= 0:
            raise SimulationError("num_shards must be positive")
        if mode not in ("inline", "process"):
            raise SimulationError(f"unknown worker mode {mode!r}")
        self.latency = latency if latency is not None else ConstantLatency()
        #: the lookahead: no cross-shard message arrives sooner
        self.window = getattr(self.latency, "min_delay", lambda: 0.0)()
        if self.window <= 0.0:
            raise SimulationError(
                "latency model has no positive min_delay(): without a "
                "lower bound on cross-shard delay there is no "
                "conservative window to shard it by")
        self.mode = mode
        self.seed = seed
        self._owner_of: dict[str, int] = {}
        self.shards = [
            Shard(i, ShardTransport(
                i, self._owner_of, self.latency,
                random.Random(f"{seed}/shard-{i}")))
            for i in range(num_shards)
        ]
        self._inputs = [_WindowInput() for _ in range(num_shards)]
        #: pending churn toggles, (time, seq, node_id, online), kept
        #: sorted with consumption cursors (cheaper than a heap for
        #: the bulk pre-registered schedules churn produces).  The
        #: event cursor dispatches exact-time toggles to owner shards
        #: up to each window's horizon; the liveness cursor trails it,
        #: publishing remote liveness only up to the window *start* —
        #: senders know the liveness state as of the last barrier,
        #: never the future.
        self._toggles: list[tuple[float, int, str, bool]] = []
        self._toggle_event_cursor = 0
        self._toggle_liveness_cursor = 0
        self._toggles_sorted = True
        self._toggle_seq = itertools.count()
        self._live = [0] * num_shards
        #: per-shard next live event time as of the last barrier
        self._next_live: list[float | None] = [None] * num_shards
        self._now = 0.0
        self._refs = itertools.count()
        #: op ref -> completion summary
        self.completed: dict[int, Any] = {}
        self._conns: list[Any] = []
        self._procs: list[Any] = []
        self._started = False
        self._final_stats: list[dict] | None = None

    # -- deployment ----------------------------------------------------

    @property
    def now(self) -> float:
        return self._now

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def add_peer(self, peer: Node, shard_id: int) -> None:
        """Attach ``peer`` to a shard and record ownership."""
        if self._started:
            raise SimulationError("cannot add peers after start()")
        if peer.node_id in self._owner_of:
            raise SimulationError(f"duplicate node id {peer.node_id!r}")
        self._owner_of[peer.node_id] = shard_id
        self.shards[shard_id].transport.attach(peer)

    def _forked(self) -> bool:
        return self.mode == "process" and self._started

    def _transports(self) -> list[SimNetwork]:
        if self._forked():
            # Tracers and injectors fork with the shards (and a plan's
            # epoch is the common barrier time 0).
            raise SimulationError(
                "tracers and fault plans must be installed before "
                "start() in process mode")
        return [shard.transport for shard in self.shards]

    # -- process workers -----------------------------------------------

    def start(self) -> None:
        """Read the shards' clocks; fork one worker per shard, once
        (``mode="process"`` only)."""
        if self._forked():
            return
        # Every barrier refreshes the clock status from the shards'
        # reports.  Until the fork the shard objects are still ours to
        # touch between runs, so each run starts by re-reading them.
        for shard in self.shards:
            loop = shard.transport.loop
            self._live[shard.shard_id] = loop.live_events
            self._next_live[shard.shard_id] = loop.next_live_event_time()
        self._started = True
        if self.mode != "process":
            return
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        for shard in self.shards:
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(target=_shard_worker,
                               args=(shard, child_conn), daemon=True)
            proc.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(proc)

    def _request(self, commands: list[tuple]) -> list:
        """Send each worker its command and gather the replies; a
        failure a worker shipped back re-raises here."""
        if not self._conns:
            raise SimulationError(
                "process workers are gone without final stats (call "
                "stop() while they run to collect them)")
        for conn, command in zip(self._conns, commands):
            conn.send(command)
        replies = []
        for shard_id, conn in enumerate(self._conns):
            try:
                reply = conn.recv()
            except EOFError:
                reply = SimulationError(
                    f"shard {shard_id} worker exited without replying "
                    f"to {commands[shard_id][0]!r}")
            if isinstance(reply, SimulationError):
                self._reap()  # the run is over: no worker outlives it
                raise reply
            replies.append(reply)
        return replies

    def _reap(self) -> None:
        """Tell every worker still listening to stop, close the pipes
        and join (at worst kill) the processes."""
        conns, procs = self._conns, self._procs
        self._conns, self._procs = [], []
        for conn in conns:
            try:
                conn.send(("stop",))
            except OSError:
                pass  # that worker is already gone
            conn.close()
        for proc in procs:
            proc.join(timeout=30)
            if proc.is_alive():
                proc.terminate()
                proc.join()

    def stop(self) -> list[dict]:
        """Collect final per-shard stats; join process workers."""
        if self._final_stats is None:
            if self._forked():
                try:
                    self._final_stats = self._request(
                        [("stop",)] * len(self._conns))
                finally:
                    self._reap()
            else:
                self._final_stats = [shard.stats() for shard in self.shards]
        return self._final_stats

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if exc_type is None:
            self.stop()
        else:
            self._reap()  # the block failed: do not wait on reports

    # -- external inputs -----------------------------------------------

    def submit(self, node_id: str, method: str, *args: Any,
               summarize: Callable | None = None,
               attribute: bool = False) -> int:
        """Queue ``peer.<method>(*args)`` for the owner's next window.

        The call is issued at the window boundary (all logical clocks
        agree there); the future's result, reduced by ``summarize``
        (default :func:`summarize_op_result`), lands in
        :attr:`completed` under the returned ref.  In process mode the
        args and the summary must be picklable, and ``summarize`` must
        be a module-level function.

        ``attribute=True`` opens an ``op:<ref>`` attribution scope
        around the submission: every message the operation causes —
        on any shard — is counted under that tag
        (:meth:`attributed_messages`).  Bulk workloads leave it off and
        pay nothing.
        """
        if node_id not in self._owner_of:
            raise SimulationError(f"unknown node {node_id!r}")
        ref = next(self._refs)
        self._inputs[self._owner_of[node_id]].ops.append(
            (ref, node_id, method, args, summarize,
             f"op:{ref}" if attribute else None))
        return ref

    def result(self, ref: int) -> tuple[Any, int]:
        """Run to quiescence; return op ``ref``'s summary and its
        attributed message count — the sum of the ``op:<ref>`` counter
        over every shard its causal chain touched — and drop the
        summary from :attr:`completed`."""
        self.run_until_quiescent()
        return self.completed.pop(ref), self.attributed_messages(ref)

    def set_online_at(self, time: float, node_id: str, online: bool) -> None:
        """Schedule a churn toggle at virtual ``time`` (exact at the
        owner, liveness-map visible to other shards at the first
        barrier at or after it)."""
        if node_id not in self._owner_of:
            raise SimulationError(f"unknown node {node_id!r}")
        if time < self._now:
            raise SimulationError(
                f"cannot toggle in the past ({time} < {self._now})")
        entry = (time, next(self._toggle_seq), node_id, online)
        if self._toggles_sorted and self._toggles and \
                entry < self._toggles[-1]:
            self._toggles_sorted = False
        self._toggles.append(entry)

    # -- the window protocol -------------------------------------------

    def _sort_toggle_tail(self) -> None:
        if not self._toggles_sorted:
            # Late submissions landed out of order; re-sort the tail
            # (guaranteed > everything already dispatched, since
            # past-time toggles are rejected at submission).
            cursor = self._toggle_event_cursor
            self._toggles[cursor:] = sorted(self._toggles[cursor:])
            self._toggles_sorted = True

    def _dispatch_toggles(self, horizon: float) -> None:
        toggles = self._toggles
        total = len(toggles)
        if self._toggle_liveness_cursor >= total:
            return
        self._sort_toggle_tail()
        inputs, owner_of = self._inputs, self._owner_of
        # Remote liveness: publish the state as of the window *start*.
        cursor = self._toggle_liveness_cursor
        while cursor < total and toggles[cursor][0] <= self._now:
            _at, _seq, node_id, online = toggles[cursor]
            cursor += 1
            owner = owner_of[node_id]
            for shard_id, inp in enumerate(inputs):
                if shard_id != owner:
                    inp.liveness[node_id] = online
        self._toggle_liveness_cursor = cursor
        # Exact-time toggle events at the owning shard, up to horizon.
        cursor = self._toggle_event_cursor
        while cursor < total and toggles[cursor][0] <= horizon:
            at, _seq, node_id, online = toggles[cursor]
            cursor += 1
            inputs[owner_of[node_id]].toggles.append((at, node_id, online))
        self._toggle_event_cursor = cursor
        if self._toggle_liveness_cursor >= total and cursor >= total:
            self._toggles.clear()
            self._toggle_event_cursor = 0
            self._toggle_liveness_cursor = 0

    def _step(self, horizon: float) -> None:
        self._dispatch_toggles(horizon)
        if self._forked():
            results = self._request([("window", horizon, *inp.take())
                                     for inp in self._inputs])
        else:
            results = [shard.window(horizon, *inp.take())
                       for shard, inp in zip(self.shards, self._inputs)]
        self._now = horizon
        owner_of = self._owner_of
        for src_shard, (outbox, completions, live, next_live) in \
                enumerate(results):
            self._live[src_shard] = live
            self._next_live[src_shard] = next_live
            self.completed.update(completions)
            for deliver_time, src_seq, message in outbox:
                self._inputs[owner_of[message.dst]].arrivals.append(
                    (deliver_time, src_shard, src_seq, message))

    def _next_horizon(self) -> float:
        """End of the next window, skipping ahead over dead time.

        The default step is ``now + window``.  Two jumps shorten long
        quiet stretches:

        *Event jump* — when every shard's earliest queued event and
        every pending arrival lies beyond the base window, the window
        may end exactly at the earliest such time: events fire no
        earlier than it, so anything they send still arrives strictly
        after it.

        *Quiet jump* — when no shard holds a *live* event and no
        arrivals are pending, nothing in the system can send a message
        at all: only churn toggles remain, and toggles just flip
        ``online`` flags.  The horizon becomes unbounded
        (``inf``) and the caller clamps it to its own target time —
        one window replaces ``O(idle / window)`` barrier spins, with
        every toggle inside it still fired at its exact virtual time
        by the owning shard's loop.

        Pending op submissions pin the horizon to the base window:
        they issue at the window's start and may send immediately.
        """
        base = self._now + self.window
        earliest = float("inf")
        quiet = True
        for live, next_time in zip(self._live, self._next_live):
            if live:
                quiet = False
                if next_time is not None and next_time < earliest:
                    earliest = next_time
        for inp in self._inputs:
            if inp.ops:
                return base
            if inp.arrivals:
                quiet = False
                for deliver_time, _s, _q, _m in inp.arrivals:
                    if deliver_time < earliest:
                        earliest = deliver_time
            if inp.liveness or inp.toggles:
                quiet = False
        if quiet:
            # Pending churn toggles do not constrain the horizon: the
            # owner fires them at their exact times inside whatever
            # window contains them, and nothing that could *send* is
            # pending, so remote liveness staleness is unobservable.
            return float("inf")
        if earliest <= base or earliest == float("inf"):
            return base
        return earliest

    def run_until(self, t_end: float) -> None:
        """Step windows until virtual time reaches ``t_end``."""
        self.start()
        while self._now < t_end:
            self._step(min(t_end, self._next_horizon()))

    def busy(self) -> bool:
        """Whether any live event, arrival, op or toggle is pending."""
        return (any(self._live)
                or any(not inp.empty() for inp in self._inputs)
                or self._toggle_event_cursor < len(self._toggles))

    def run_until_quiescent(self, max_windows: int = 10_000_000) -> None:
        """Step windows until no shard holds live work.

        Pending ops drain fully — worst case their timeout/retry chains
        fire and resolve the futures — so this terminates for any
        protocol that cannot schedule unboundedly far ahead.
        """
        self.start()
        windows = 0
        while self.busy():
            if windows >= max_windows:
                raise SimulationError(
                    f"run_until_quiescent exceeded {max_windows} windows")
            horizon = self._next_horizon()
            if horizon == float("inf"):
                # Quiet jump with no external bound: only toggles are
                # left, so one window covering them all drains the run.
                # busy() implies the toggle tail is non-empty here (the
                # other busy sources all bound _next_horizon), but an
                # empty tail must not crash an empty-workload run — fall
                # back to one plain window.
                tail = self._toggles[self._toggle_event_cursor:]
                horizon = (max(t for t, _s, _n, _o in tail) if tail
                           else self._now + self.window)
            self._step(horizon)
            windows += 1

    # -- reporting -----------------------------------------------------

    def shard_stats(self) -> list[dict]:
        """Live per-shard stats reports, safe to call mid-run.

        Inline mode reads the shard objects directly.  Process mode
        fetches fresh reports over the workers' ``stats`` pipes — the
        parent-side shard objects stopped advancing at the fork, so
        reading them would silently report the pre-fork zeros.  After
        :meth:`stop`, the final collected reports are returned.
        """
        if self._final_stats is not None:
            return self._final_stats
        if self._forked():
            return self._request([("stats",)] * len(self._conns))
        return [shard.stats() for shard in self.shards]
