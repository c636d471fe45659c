"""Deterministic fault lab: injectable faults, invariants, exploration.

The resilience results of the churn scenarios (PR 2) and the adaptive
optimizer (PR 4) were only ever exercised under latency and clean
offline drops.  This package opens the full hostile-network axis in
the FoundationDB simulation-testing style, on top of the deterministic
event loop the repo already has:

:mod:`repro.faultlab.plan`
    Immutable, printable fault schedules: seeded message drops,
    duplicates, delay jitter and reordering, symmetric/asymmetric
    partitions with scheduled heals, and crash-restarts.

:mod:`repro.faultlab.injector`
    Executes a plan against a :class:`~repro.simnet.network.
    SimNetwork` through two hook points in the transport; with no
    injector installed every simulation stays bit-identical to before
    the fault lab existed.

:mod:`repro.faultlab.invariants`
    Ground-truth checkers: routing-table/trie coverage, replica store
    agreement, synopsis-registry CRDT convergence, engine plan-cache
    coherence, and recall lower bounds (both under faults and after
    heal + anti-entropy).

:mod:`repro.faultlab.explorer`
    Randomized scenario exploration where every trial — deployment,
    corpus, fault schedule, verdict — derives from one integer seed,
    plus greedy shrinking of failing schedules to minimal
    reproducers.  Exposed on the command line as ``python -m repro
    chaos`` (``run`` / ``explore`` / ``replay --shrink``).
"""

from repro.faultlab.explorer import (
    ScenarioExplorer,
    ShrinkResult,
    Trial,
    default_spec,
    generate_plan,
)
from repro.faultlab.injector import FaultInjector
from repro.faultlab.invariants import (
    INVARIANTS,
    InvariantReport,
    LabContext,
    Violation,
    run_invariants,
)
from repro.faultlab.plan import (
    CrashRestart,
    FOREVER,
    FaultPlan,
    MessageDelay,
    MessageDrop,
    MessageDuplicate,
    MessageReorder,
    Partition,
)

__all__ = [
    "CrashRestart",
    "FOREVER",
    "FaultInjector",
    "FaultPlan",
    "INVARIANTS",
    "InvariantReport",
    "LabContext",
    "MessageDelay",
    "MessageDrop",
    "MessageDuplicate",
    "MessageReorder",
    "Partition",
    "ScenarioExplorer",
    "ShrinkResult",
    "Trial",
    "Violation",
    "default_spec",
    "generate_plan",
    "run_invariants",
]
