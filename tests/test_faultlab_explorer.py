"""Tests for the scenario explorer: seed replay, verdicts, shrinking.

The explorer's contract is FoundationDB-flavoured: a printed seed is a
complete reproducer, and a failing schedule shrinks to a strictly
smaller one that still fails.  Small specs keep each trial under a
second; everything is deterministic, no flake budget needed.
"""

from dataclasses import asdict, replace

import pytest

from repro.faultlab import (
    FaultPlan,
    MessageDrop,
    ScenarioExplorer,
    generate_plan,
    replay,
)
from repro.faultlab.explorer import default_spec, spec_horizon
from repro.faultlab.plan import CrashRestart


class TestPlanGeneration:
    def test_same_seed_same_plan(self):
        nodes = [f"peer-{i}" for i in range(16)]
        a = generate_plan(7, nodes, 300.0, intensity="heavy")
        b = generate_plan(7, nodes, 300.0, intensity="heavy")
        assert a == b

    def test_different_seeds_differ(self):
        nodes = [f"peer-{i}" for i in range(16)]
        plans = {generate_plan(s, nodes, 300.0) for s in range(6)}
        assert len(plans) > 1

    def test_protected_nodes_never_crash(self):
        nodes = [f"peer-{i}" for i in range(8)]
        for seed in range(24):
            plan = generate_plan(seed, nodes, 300.0, intensity="heavy",
                                 protected=("peer-0",))
            for clause in plan.faults:
                if isinstance(clause, CrashRestart):
                    assert clause.node != "peer-0"

    def test_extreme_always_includes_reply_killer(self):
        nodes = [f"peer-{i}" for i in range(8)]
        plan = generate_plan(0, nodes, 300.0, intensity="extreme")
        killers = [c for c in plan.faults
                   if isinstance(c, MessageDrop)
                   and c.kinds == ("reply",) and c.probability == 1.0]
        assert len(killers) == 1

    def test_unknown_intensity_rejected(self):
        with pytest.raises(ValueError):
            generate_plan(0, ["n0"], 100.0, intensity="apocalyptic")
        with pytest.raises(ValueError):
            ScenarioExplorer(intensity="apocalyptic")


class TestSeedReplay:
    def test_trial_reproducible_from_seed_alone(self):
        """The acceptance contract: a printed seed rebuilds the
        deployment, schedule and verdict bit-for-bit."""
        explorer = ScenarioExplorer(intensity="heavy")
        a = explorer.run_trial(5)
        b = replay(5, intensity="heavy")
        assert a.plan == b.plan
        assert asdict(a.report) == asdict(b.report)
        assert [str(v) for v in a.invariants.violations] == \
            [str(v) for v in b.invariants.violations]

    def test_explore_runs_consecutive_seeds(self):
        explorer = ScenarioExplorer(intensity="light")
        trials = explorer.explore(3, start_seed=10)
        assert [t.seed for t in trials] == [10, 11, 12]
        for trial in trials:
            assert trial.report.queries_issued == \
                explorer.spec.num_queries
            assert trial.summary()  # printable

    def test_faulted_run_reports_injections(self):
        explorer = ScenarioExplorer(intensity="heavy")
        trial = explorer.run_trial(2)
        assert trial.report.faults_injected  # something fired
        assert sum(trial.report.faults_injected.values()) > 0


class TestShrinking:
    def test_shrink_emits_strictly_smaller_still_failing_schedule(self):
        explorer = ScenarioExplorer(intensity="extreme",
                                    min_live_recall=0.8)
        original = explorer.plan_for_seed(0)
        failing = explorer.run_trial(0)
        assert not failing.ok
        result = explorer.shrink(0)
        assert len(result.shrunk) < len(result.original)
        assert result.original == original
        # the minimal reproducer still fails on its own
        rerun = explorer.run_trial(0, plan=result.shrunk)
        assert not rerun.ok
        assert set(result.failed_invariants) & \
            set(rerun.invariants.failed_invariants())
        # and it is locally minimal: dropping any remaining clause
        # loses the failure
        for index in range(len(result.shrunk)):
            attempt = explorer.run_trial(
                0, plan=result.shrunk.without(index))
            assert not (set(result.failed_invariants)
                        & set(attempt.invariants.failed_invariants()))

    def test_shrink_detects_fault_independent_failure(self):
        """A failure that persists with zero faults (here: an
        unsatisfiable recall floor) must shrink to the empty plan and
        say so, not finger an arbitrary surviving clause."""
        explorer = ScenarioExplorer(intensity="light", min_recall=1.01)
        result = explorer.shrink(0)
        assert len(result.shrunk) == 0
        assert any("fault-independent" in line
                   for line in result.summary())

    def test_shrink_reuses_precomputed_trial(self):
        explorer = ScenarioExplorer(intensity="extreme",
                                    min_live_recall=0.8)
        trial = explorer.run_trial(0)
        result = explorer.shrink(0, trial=trial)
        assert len(result.shrunk) < len(result.original)
        # the reproduction run was skipped: only deletion attempts
        assert result.trials == 8

    def test_shrink_refuses_passing_seed(self):
        explorer = ScenarioExplorer(intensity="light")
        with pytest.raises(ValueError):
            explorer.shrink(0)

    def test_shrink_summary_prints_reproducer(self):
        explorer = ScenarioExplorer(intensity="extreme",
                                    min_live_recall=0.8)
        result = explorer.shrink(0)
        text = "\n".join(result.summary())
        assert "minimal reproducer" in text
        assert "live_recall" in text


class TestStabilizedInvariants:
    def test_light_budget_is_green(self):
        """The CI chaos-smoke contract: the fixed light budget keeps
        every invariant green (deterministic, so green here means
        green in CI)."""
        explorer = ScenarioExplorer(intensity="light")
        for trial in explorer.explore(4):
            assert trial.ok, "\n".join(trial.invariants.summary())

    def test_partition_heavy_seed_recovers_after_heal(self):
        """A partition that wrecks live recall must still leave a
        repairable network: the post-heal eventual invariants hold
        even when the under-faults floor was violated."""
        explorer = ScenarioExplorer(intensity="extreme",
                                    min_live_recall=0.8)
        trial = explorer.run_trial(0)
        assert trial.invariants.failed_invariants() == ["live_recall"]

    def test_engine_strategy_trial_audits_the_workload_engine(self):
        """An ``"engine"`` workload's own plan cache — the one that
        lived through the faults and mapping events — reaches the
        cache-coherence checker populated; other strategies have no
        engine cache and the check is skipped by design."""
        from unittest import mock

        from repro.faultlab import invariants as inv

        captured = {}
        original = inv.check_engine_cache

        def spy(ctx):
            captured["engine"] = ctx.engine
            return original(ctx)

        explorer = ScenarioExplorer(
            spec=replace(default_spec(), strategy="engine",
                         num_queries=3),
            intensity="light")
        with mock.patch.dict(inv.INVARIANTS, {"engine_cache": spy}):
            trial = explorer.run_trial(1)
        assert trial.ok
        assert captured["engine"] is not None
        assert len(captured["engine"].cache) > 0

        explorer = ScenarioExplorer(intensity="light")
        with mock.patch.dict(inv.INVARIANTS, {"engine_cache": spy}):
            trial = explorer.run_trial(0)
        assert trial.ok
        assert captured["engine"] is None  # no engine workload ran

    def test_explicit_fault_plan_override(self):
        explorer = ScenarioExplorer(intensity="light",
                                    min_live_recall=0.8)
        plan = FaultPlan(seed=0, faults=(
            MessageDrop(kinds=("reply",), probability=1.0),
        ))
        trial = explorer.run_trial(0, plan=plan)
        assert not trial.ok
        assert "live_recall" in trial.invariants.failed_invariants()


class TestRecursiveStrategyUnderFaults:
    """The recursive fan-out's termination ledger under duplicated,
    reordered, delayed, dropped and partitioned reports: every
    invariant holds, a seed replays bit for bit, and the counts are
    pinned (recorded before the two fan-out accountings became one
    ``FanoutTask``, so they also say the merge moved nothing)."""

    #: (intensity, seed) -> (recall, queries_complete, query_messages,
    #: total_messages)
    PINNED = {
        ("light", 0): (1.0, 6, 33, 1542),
        ("light", 1): (0.944444, 5, 60, 2178),
        ("light", 2): (1.0, 6, 66, 1431),
        ("light", 3): (0.833333, 5, 54, 2209),
        ("light", 4): (0.75, 5, 50, 2174),
        ("light", 5): (0.75, 5, 59, 2258),
        ("heavy", 0): (1.0, 5, 34, 2480),
        ("heavy", 1): (0.944444, 5, 62, 2224),
        ("heavy", 2): (0.791667, 5, 63, 2035),
        ("heavy", 3): (0.888889, 5, 51, 2280),
    }

    @pytest.mark.parametrize("intensity, seed", sorted(PINNED))
    def test_invariants_hold_and_counts_are_pinned(self, intensity, seed):
        spec = replace(default_spec(), strategy="recursive")
        trial = ScenarioExplorer(spec=spec,
                                 intensity=intensity).run_trial(seed)
        assert trial.ok, "\n".join(trial.invariants.summary())
        report = trial.report
        assert (round(report.recall, 6), report.queries_complete,
                report.query_messages, report.total_messages
                ) == self.PINNED[intensity, seed]
        again = replay(seed, spec=spec, intensity=intensity)
        assert asdict(again.report) == asdict(report)


class TestSpecPlumbing:
    def test_default_spec_horizon(self):
        spec = default_spec()
        assert spec_horizon(spec) == spec.warmup + \
            spec.num_queries * spec.query_interval

    def test_spec_faults_default_is_inert(self):
        """ScenarioSpec.faults=None keeps reports identical to a spec
        predating the fault lab (bit-identical no-fault path)."""
        from repro.resilience import ScenarioRunner
        spec = replace(default_spec(), churn=True, num_queries=3)
        a = ScenarioRunner.from_spec(spec).run()
        b = ScenarioRunner.from_spec(replace(spec, faults=None)).run()
        assert asdict(a) == asdict(b)
        assert a.faults_injected == {}
