"""Randomized fault-scenario exploration with replay and shrinking.

The explorer closes the loop the fault lab exists for:

1. **generate** — :func:`generate_plan` derives a whole fault
   schedule (partitions with heals, lossy/duplicating/reordering
   links, crash-restarts) from a single integer seed;
2. **run** — :meth:`ScenarioExplorer.run_trial` executes the schedule
   against a scripted :class:`~repro.resilience.scenario.
   ScenarioSpec` deployment, then drives the network to a healed,
   anti-entropied quiescent state and checks every system invariant
   (:mod:`repro.faultlab.invariants`);
3. **replay** — the *same seed* rebuilds the deployment, the corpus,
   the churn timeline and the fault schedule, so any failure the
   explorer prints is reproducible from that one number;
4. **shrink** — :meth:`ScenarioExplorer.shrink` greedily deletes
   clauses from a failing schedule while the failure persists,
   yielding a minimal reproducer (per-clause RNG seeding makes clause
   deletion side-effect-free — see :mod:`repro.faultlab.plan`).

Intensity profiles scale how hostile generated schedules are:
``"light"`` (a few mild clauses, everything heals early — the CI
smoke profile), ``"heavy"`` (more and harsher clauses), and
``"extreme"`` (heavy plus one kill-every-reply clause that caps
under-fault recall at whatever the origin can answer from its own
leaf; paired with a strict ``min_live_recall`` floor it is the
built-in failing case used to exercise replay and shrinking end to
end).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from repro.faultlab.injector import FaultInjector
from repro.faultlab.invariants import (
    InvariantReport,
    LabContext,
    run_invariants,
)
from repro.faultlab.plan import (
    CrashRestart,
    FaultPlan,
    MessageDelay,
    MessageDrop,
    MessageDuplicate,
    MessageReorder,
    Partition,
)
from repro.resilience.scenario import (
    ScenarioReport,
    ScenarioRunner,
    ScenarioSpec,
)
from repro.stats.gossip import StatsAntiEntropy

INTENSITIES = ("light", "heavy", "extreme")


def default_spec() -> ScenarioSpec:
    """The small deployment generated trials run against (each trial
    sets its own seed)."""
    return ScenarioSpec(
        num_peers=20,
        replication=2,
        refs_per_level=2,
        seed=0,
        num_schemas=3,
        num_entities=24,
        churn=False,  # the fault plan owns the outage schedule
        maintenance=True,
        maintenance_interval=15.0,
        warmup=30.0,
        num_queries=6,
        query_interval=30.0,
        strategy="iterative",
        max_hops=8,
    )


def spec_horizon(spec: ScenarioSpec) -> float:
    """Virtual seconds a spec's scripted run covers."""
    return spec.warmup + spec.num_queries * spec.query_interval


def generate_plan(seed: int, node_ids: list[str], horizon: float,
                  intensity: str = "light",
                  protected: tuple[str, ...] = ()) -> FaultPlan:
    """Derive a fault schedule from ``seed`` alone.

    ``node_ids`` and ``horizon`` come from the spec (not from a live
    network), so the plan exists before anything is built — replay
    needs only the seed.  ``protected`` nodes are never crashed (the
    query origin must stay able to issue operations); partitions may
    still isolate them, which is exactly the interesting case.
    """
    if intensity not in INTENSITIES:
        raise ValueError(f"unknown intensity {intensity!r}")
    rng = random.Random(seed)
    nodes = sorted(node_ids)
    crashable = [n for n in nodes if n not in protected]
    clauses: list = []

    heavy = intensity in ("heavy", "extreme")
    count = rng.randint(2, 4) if not heavy else rng.randint(4, 7)
    max_p = 0.10 if not heavy else 0.35
    for _ in range(count):
        kind = rng.choice(("drop", "delay", "duplicate", "reorder",
                           "partition", "crash"))
        start = rng.uniform(0.0, 0.6 * horizon)
        length = rng.uniform(0.1, 0.25 if not heavy else 0.5) * horizon
        until = min(start + length, 0.9 * horizon)
        if kind == "drop":
            clauses.append(MessageDrop(
                probability=round(rng.uniform(0.02, max_p), 3),
                start=round(start, 1), until=round(until, 1),
            ))
        elif kind == "delay":
            clauses.append(MessageDelay(
                probability=round(rng.uniform(0.05, 0.3), 3),
                jitter_min=round(rng.uniform(0.5, 2.0), 1),
                jitter_max=round(rng.uniform(5.0, 25.0), 1),
                start=round(start, 1), until=round(until, 1),
            ))
        elif kind == "duplicate":
            clauses.append(MessageDuplicate(
                probability=round(rng.uniform(0.05, 0.3), 3),
                copies=rng.randint(1, 2),
                spread=round(rng.uniform(1.0, 8.0), 1),
                start=round(start, 1), until=round(until, 1),
            ))
        elif kind == "reorder":
            clauses.append(MessageReorder(
                probability=round(rng.uniform(0.05, 0.25), 3),
                hold_max=round(rng.uniform(5.0, 20.0), 1),
                start=round(start, 1), until=round(until, 1),
            ))
        elif kind == "partition":
            shuffled = list(nodes)
            rng.shuffle(shuffled)
            cut = rng.randint(max(1, len(nodes) // 5),
                              max(2, len(nodes) // 2))
            side_b = tuple(sorted(shuffled[:cut]))
            side_a = tuple(sorted(shuffled[cut:]))
            clauses.append(Partition(
                side_a=side_a, side_b=side_b,
                start=round(start, 1),
                heal_at=round(until, 1),
                symmetric=rng.random() < 0.7,
            ))
        else:  # crash
            if not crashable:
                continue
            node = rng.choice(crashable)
            downtime = rng.uniform(10.0, 0.2 * horizon)
            clauses.append(CrashRestart(
                node=node, at=round(start, 1),
                restart_at=round(min(start + downtime, 0.9 * horizon), 1),
            ))
    if intensity == "extreme":
        # Every reply vanishes for the whole run (stalled queries
        # stretch virtual time past any finite horizon, so the window
        # is unbounded — uninstall ends it): queries keep only what
        # the origin answers from its own leaf, so a strict
        # live-recall floor reliably fails.  Exercised by tests of
        # failure replay and schedule shrinking.
        clauses.append(MessageDrop(kinds=("reply",), probability=1.0))
    return FaultPlan(seed=seed, faults=tuple(clauses))


@dataclass
class Trial:
    """One explored scenario: schedule, measurements, verdict."""

    seed: int
    plan: FaultPlan
    report: ScenarioReport
    invariants: InvariantReport

    @property
    def ok(self) -> bool:
        return self.invariants.ok

    def summary(self) -> list[str]:
        verdict = "PASS" if self.ok else "FAIL"
        lines = [
            f"seed {self.seed}: {verdict} — {len(self.plan)} fault "
            f"clause(s), recall {self.report.recall:.3f} under faults, "
            f"{self.report.messages_dropped} drop(s)",
        ]
        if not self.ok:
            lines += [f"  violated {name}"
                      for name in self.invariants.failed_invariants()]
        return lines


@dataclass
class ShrinkResult:
    """Outcome of shrinking one failing schedule."""

    seed: int
    original: FaultPlan
    shrunk: FaultPlan
    #: trials executed while shrinking (including the reproduction)
    trials: int
    #: invariants the original failure violated
    failed_invariants: list[str] = field(default_factory=list)

    @property
    def removed(self) -> int:
        return len(self.original) - len(self.shrunk)

    def summary(self) -> list[str]:
        lines = [
            f"shrunk {len(self.original)} -> {len(self.shrunk)} fault "
            f"clause(s) in {self.trials} trial(s); still violates "
            + ", ".join(self.failed_invariants),
        ]
        if len(self.shrunk) == 0:
            lines.append("failure is fault-independent: it persists "
                         "with no faults injected (check the "
                         "configured floors against the fault-free "
                         "deployment)")
        else:
            lines.append("minimal reproducer:")
            lines += ["  " + line for line in self.shrunk.describe()]
        return lines


class ScenarioExplorer:
    """Seeded random exploration of fault schedules over one spec.

    Parameters
    ----------
    spec:
        Scenario shape every trial runs (per-trial ``seed`` and
        ``faults`` are filled in by the explorer); defaults to
        :func:`default_spec`.
    intensity:
        Schedule-generation profile (``light`` / ``heavy`` /
        ``extreme``).
    min_recall / min_live_recall:
        Floors for the post-heal and under-faults recall invariants.
    """

    def __init__(self, spec: ScenarioSpec | None = None,
                 intensity: str = "light",
                 min_recall: float = 0.9,
                 min_live_recall: float = 0.4) -> None:
        if intensity not in INTENSITIES:
            raise ValueError(f"unknown intensity {intensity!r}")
        self.spec = spec if spec is not None else default_spec()
        self.intensity = intensity
        self.min_recall = min_recall
        self.min_live_recall = min_live_recall

    # ------------------------------------------------------------------
    # Plan derivation
    # ------------------------------------------------------------------

    def plan_for_seed(self, seed: int) -> FaultPlan:
        """The fault schedule trial ``seed`` will run (pure function)."""
        node_ids = [f"peer-{i}" for i in range(self.spec.num_peers)]
        # ScenarioRunner's origin is the first sorted peer id.
        origin = sorted(node_ids)[0]
        return generate_plan(seed, node_ids, spec_horizon(self.spec),
                             intensity=self.intensity,
                             protected=(origin,))

    # ------------------------------------------------------------------
    # Trials
    # ------------------------------------------------------------------

    def run_trial(self, seed: int,
                  plan: FaultPlan | None = None,
                  trace_path: str | None = None) -> Trial:
        """Run one seeded trial: scenario, stabilization, invariants.

        ``plan`` overrides the seed-derived schedule (used by the
        shrinker); everything else still derives from ``seed``.
        ``trace_path`` installs a span recorder before the scenario
        runs and exports the trial's trace (queries, retries, injected
        faults) as sorted JSONL afterwards — tracing changes no
        behaviour, so a traced trial reproduces the untraced one.
        """
        plan = self.plan_for_seed(seed) if plan is None else plan
        spec = replace(self.spec, seed=seed, faults=plan)
        runner = ScenarioRunner.from_spec(spec)
        if trace_path is not None:
            runner.network.install_tracer()
        report = runner.run()
        self._stabilize(runner)
        if trace_path is not None:
            runner.network.export_trace(trace_path)
        # The cache-coherence invariant audits the cache the workload
        # actually exercised (an "engine"-strategy run, whose cached
        # plans lived through every mapping event and fault).  Other
        # strategies have no engine cache, so the check is skipped —
        # warming a throwaway cache post-run would compare it against
        # an unchanged graph, a check that can never fail.
        ctx = LabContext(
            net=runner.network,
            panel=runner.panel,
            origin=runner.origin,
            engine=runner.engine,
            report=report,
            min_recall=self.min_recall,
            min_live_recall=self.min_live_recall,
            strategy=spec.strategy if spec.strategy in
            ("local", "iterative", "recursive") else "iterative",
            max_hops=spec.max_hops,
        )
        return Trial(seed=seed, plan=plan, report=report,
                     invariants=run_invariants(ctx))

    def _stabilize(self, runner: ScenarioRunner) -> None:
        """Drive the healed network to the eventually-consistent state
        the eventual invariants are defined over.

        The scenario already uninstalled its injector (healing every
        fault) and stopped its background processes; what remains is
        to drain in-flight traffic, let failure-detector quarantines
        expire and run the overlay's own repair machinery explicitly:
        routing-table repair sweeps (levels emptied during a partition
        have no refs left to probe, so the periodic path alone would
        never refill them), one replica anti-entropy exchange (each
        peer pushes its store to its whole replica group — one round
        gives pairwise convergence) and one synopsis anti-entropy
        sweep from the origin.
        """
        from repro.pgrid.maintenance import MaintenanceProcess

        net = runner.network
        spec = runner.spec
        net.settle()
        # Blacklist entries quarantine refs for 2x the maintenance
        # interval past the drop; advance past the last possible
        # expiry so repair may re-adopt recovered peers.
        net.engine.run_until(net.engine.now
                             + 2 * spec.maintenance_interval + 1.0)
        repair = MaintenanceProcess(
            net.peers,
            interval=spec.maintenance_interval,
            refs_per_level=getattr(net, "refs_per_level",
                                   spec.refs_per_level),
            rng=random.Random(spec.seed + 404),
        )
        for _sweep in range(3):
            if repair.repair_sweep() == 0:
                break
            net.settle()
        for node_id in sorted(net.peers):
            peer = net.peers[node_id]
            if not peer.online:
                continue
            for replica in sorted(peer.replicas):
                peer.send(replica, "sync_push", peer.sync_payload())
        net.settle()
        sweep = StatsAntiEntropy(net.peers, runner.origin)
        sweep.sweep()
        net.settle()

    def explore(self, budget: int, start_seed: int = 0) -> list[Trial]:
        """Run ``budget`` consecutive seeded trials."""
        return [self.run_trial(seed)
                for seed in range(start_seed, start_seed + budget)]

    # ------------------------------------------------------------------
    # Shrinking
    # ------------------------------------------------------------------

    def shrink(self, seed: int,
               trial: Trial | None = None) -> ShrinkResult:
        """Minimize the failing schedule of trial ``seed``.

        Reproduces the failure first (a non-failing seed raises
        ``ValueError``; pass an already-run ``trial`` to skip the
        reproduction — scenario runs are the expensive unit here),
        then greedily deletes clauses while at least one of the
        originally violated invariants keeps failing.  The result is
        locally minimal: deleting any single remaining clause makes
        the failure disappear.  A shrink all the way to the *empty*
        plan means the failure is fault-independent (the deployment
        misses the configured floors even without faults) — reported
        as such rather than fingering an arbitrary clause.
        """
        original = self.plan_for_seed(seed)
        trials = 0
        if trial is None or trial.plan != original:
            trial = self.run_trial(seed, plan=original)
            trials += 1
        if trial.ok:
            raise ValueError(f"seed {seed} does not fail; "
                             "nothing to shrink")
        target = set(trial.invariants.failed_invariants())
        current = original
        progress = True
        while progress and len(current) > 0:
            progress = False
            for index in range(len(current)):
                candidate = current.without(index)
                attempt = self.run_trial(seed, plan=candidate)
                trials += 1
                if target & set(attempt.invariants.failed_invariants()):
                    current = candidate
                    progress = True
                    break
        return ShrinkResult(
            seed=seed,
            original=original,
            shrunk=current,
            trials=trials,
            failed_invariants=sorted(target),
        )


# FaultInjector is re-exported here for callers scripting their own
# trials next to the explorer.
__all__ = [
    "FaultInjector",
    "INTENSITIES",
    "ScenarioExplorer",
    "ShrinkResult",
    "Trial",
    "default_spec",
    "generate_plan",
    "spec_horizon",
]
