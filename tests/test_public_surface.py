"""Structural rules over ``src/repro``, checked on the source text.

Every name defined is used by something.  A function, method or class
whose name occurs exactly once across the package, the benchmarks,
perfbench and the examples — its own definition — has no caller there:
it is surface that still has to be read, kept importable and
documented for the sake of its own tests.  The tests are not counted as
a user; the few definitions the suite needs that nothing else calls
are named, each with its reason, in ``KEPT_FOR_TESTS``.  The rule is a
word count, so it cannot tell two same-named definitions apart (one
live ``snapshot`` hides a dead one); it is a floor, not a proof.
Package ``__init__.py`` files are left out of the count: a re-export is
not a use.

A statistic is declared once.  Every stat bag subclasses
``obs.registry.CounterGroup``, which is where ``snapshot`` / ``reset``
/ ``add`` are written; a bag with something extra to report extends
them through ``super()``.  The hand merges and the registry's native
series that idiom replaced stay gone, and the facade reports network
metrics without asking which engine it runs on.

One module pair knows how causal scope propagates.  The scope stack
(``Transport._scopes``) is touched by the transport, its gate, the
cross-shard branch of the gate and the tracer that pushes on it;
everything else goes through ``Transport.operation`` / ``scope`` /
``resume`` and ``Tracer.activate`` / ``current``.

One class knows when a multi-peer operation is over.  The fan-out
ledger (``FanoutTask``), its table and the sub-request sender live on
the overlay peer; the mediation peer uses them for the recursive
strategy, and nothing else — the operator algebra least of all — mints
a request id or keeps a task table.

One function runs a peer operation to completion.  Outside ``simnet/``
nothing spins an event loop on a future, and exactly one function pairs
``engine.submit`` with ``engine.result`` — the facade spine's ``call``.
Writes, reads, queries, engine batches and the self-organization
controller's fetches all go through it, which is what makes each of
them attributed, traced and runnable on either engine.

One evaluator matches a pattern, and rows are tuples from the store to
the sink.  A pattern is prepared once into a set-at-a-time scan
(``TriplePattern.prepared``); the per-candidate matcher closure and the
dict-row batch constructor it fed stay gone, and the layers that
produce rows (``rdf/``, ``storage/``) never import the operator plane
that consumes them.

A stored value is the value itself.  The overlay holds a triple or a
schema as it is, not in a wrapper record, and the peer's triple
database counts the copies its store holds instead of walking every
bucket to find out whether one is left.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
USERS = ("src", "benchmarks", "perfbench", "examples")

#: defined under ``src/repro`` and called only by the tests, on purpose
KEPT_FOR_TESTS = {
    "responsible_peers": "ground truth: the peers whose path prefixes a "
                         "key, which routing tests check the protocol with",
    "storage_load": "ground truth: per-peer load, an observable of the "
                    "determinism goldens and the membership tests",
    "all_triples": "ground truth: a store's sorted contents, what the "
                   "sync-merge, datagen and model-based store tests compare",
    "clear_hash_caches": "isolation: memo-cache tests start from cold caches",
    "remove_triple": "paper primitive: the deleting Update of §2.2",
    "set_exception": "error handling: a Future resolves to a failure",
}


def _defined_names():
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if not (node.name.startswith("__")
                        and node.name.endswith("__")):
                    yield node.name, f"{path.relative_to(ROOT)}:{node.lineno}"


def test_no_definition_without_a_reference():
    words: Counter = Counter()
    for top in USERS:
        for path in (ROOT / top).rglob("*.py"):
            if top == "src" and path.name == "__init__.py":
                continue
            words.update(re.findall(r"\w+", path.read_text()))
    unreferenced = sorted(f"{name} ({where})"
                          for name, where in _defined_names()
                          if words[name] <= 1 and name not in KEPT_FOR_TESTS)
    assert not unreferenced, (
        "defined under src/repro, used by nothing but tests:\n  "
        + "\n  ".join(unreferenced))
    stale = sorted(name for name in KEPT_FOR_TESTS if words[name] != 1)
    assert not stale, f"no longer test-only (or gone): {stale}"


#: where ``snapshot`` / ``reset`` may be written out in full: the stat
#: idiom itself and the tracer (a span buffer, not a counter bag)
STAT_IDIOM_OWNERS = {"obs/registry.py", "obs/tracer.py"}
#: a version read, not a stat bag (and pinned by perfbench)
NOT_A_STAT_BAG = {("engine/versioning.py", "MappingVersionClock", "snapshot")}
#: the hand merges, the relay hook and the registry's native series
RETIRED_STATS = ("_SUMMED", "_SUMMED_BY_KEY", "_add_counts", "register_into",
                 "_failover_totals", "set_gauge", "counter_value")


def test_statistics_are_declared_once():
    from repro.engine import BatchFetchStats, EngineStats, PlanCacheStats
    from repro.exec import OperatorStats
    from repro.faultlab.injector import FaultCounters
    from repro.obs.registry import (
        CounterGroup,
        FailoverCounters,
        MaintenanceCounters,
    )
    from repro.simnet.metrics import NetworkMetrics

    for bag in (NetworkMetrics, FailoverCounters, MaintenanceCounters,
                OperatorStats, PlanCacheStats, EngineStats, BatchFetchStats,
                FaultCounters):
        assert issubclass(bag, CounterGroup), bag

    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        text = path.read_text()
        words = set(re.findall(r"\w+", text))
        offenders += [f"{module}: {name}" for name in RETIRED_STATS
                      if name in words]
        if module in STAT_IDIOM_OWNERS:
            continue
        for cls in ast.walk(ast.parse(text)):
            if not isinstance(cls, ast.ClassDef):
                continue
            for method in cls.body:
                if (isinstance(method, ast.FunctionDef)
                        and method.name in ("snapshot", "reset")
                        and (module, cls.name, method.name)
                        not in NOT_A_STAT_BAG
                        and not any(isinstance(n, ast.Name)
                                    and n.id == "super"
                                    for n in ast.walk(method))):
                    offenders.append(
                        f"{module}: {cls.name}.{method.name} is hand-written")
    facade = ast.parse((SRC / "mediation" / "network.py").read_text())
    for node in ast.walk(facade):
        if (isinstance(node, ast.FunctionDef)
                and node.name == "metrics_snapshot"
                and "getattr" in {n.id for n in ast.walk(node)
                                  if isinstance(n, ast.Name)}):
            offenders.append("mediation/network.py: metrics_snapshot "
                             "asks which engine it is on")
    assert not offenders, (
        "a statistic declared or merged by hand:\n  "
        + "\n  ".join(offenders))


#: the only modules that may touch the causal scope stack
SCOPE_STACK_OWNERS = {"simnet/transport.py", "simnet/network.py",
                      "simnet/shard.py", "obs/tracer.py"}
#: the two stacks and the second delivery path it replaced
RETIRED = ("_op_stack", "_deliver_traced", "tracer._stack", "trace_stack")


def test_scope_stack_has_four_owners_and_no_twin():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        text = path.read_text()
        offenders += [f"{module}: {name}" for name in RETIRED
                      if name in text]
        if "_scopes" in text and module not in SCOPE_STACK_OWNERS:
            offenders.append(f"{module}: _scopes")
    assert not offenders, (
        "causal scope handled outside the transport:\n  "
        + "\n  ".join(offenders))


#: the only modules that may mint fan-out ids or reach the task table
FANOUT_OWNERS = {"pgrid/peer.py", "mediation/peer.py"}
FANOUT_INTERNALS = ("_op_ids", "_tasks", "_send_subrequest")
#: the two accountings, tables, senders and report hooks it replaced
RETIRED_FANOUT = ("_RangeTask", "_range_tasks", "_refo_tasks",
                  "_send_range", "_send_refo", "_on_range_report",
                  "_on_refo_report")


def test_fanout_termination_has_one_ledger():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        words = set(re.findall(r"\w+", path.read_text()))
        offenders += [f"{module}: {name}" for name in RETIRED_FANOUT
                      if name in words]
        if module not in FANOUT_OWNERS:
            offenders += [f"{module}: {name}" for name in FANOUT_INTERNALS
                          if name in words]
    assert not offenders, (
        "fan-out bookkeeping outside the peer's ledger:\n  "
        + "\n  ".join(offenders))


def _attribute_names(node):
    return {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def test_one_function_runs_a_peer_operation():
    loop_drivers, blocking_calls = [], []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        if module.startswith("simnet/"):
            continue
        tree = ast.parse(path.read_text())
        if "run_until_complete" in _attribute_names(tree):
            loop_drivers.append(module)
        blocking_calls += [
            f"{module}:{node.name}" for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and {"submit", "result"} <= _attribute_names(node)]
    assert not loop_drivers, (
        "an event loop driven outside simnet/ (use the facade's call): "
        + ", ".join(loop_drivers))
    assert blocking_calls == ["pgrid/overlay.py:call"], blocking_calls


#: the tuple-at-a-time matcher and the dict-row wire format's converter
RETIRED_ROW_PATHS = {"_compile_matcher", "_matcher", "from_bindings"}


def test_rows_have_one_evaluator_and_one_format():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            names = [getattr(node, field, None)
                     for field in ("name", "attr", "id", "value")]
            offenders += [f"{module}: {name}" for name in names
                          if isinstance(name, str)
                          and name in RETIRED_ROW_PATHS]
            if module.startswith(("rdf/", "storage/")):
                imported = ([alias.name for alias in node.names]
                            if isinstance(node, ast.Import)
                            else [node.module or ""]
                            if isinstance(node, ast.ImportFrom) else [])
                offenders += [f"{module}: imports {name}"
                              for name in imported
                              if name.startswith("repro.exec")]
    assert not offenders, (
        "a second row evaluator or row format:\n  "
        + "\n  ".join(sorted(set(offenders))))


#: the wrappers a stored triple and a stored schema used to travel in
RETIRED_RECORDS = ("TripleRecord", "SchemaRecord")


def _iterates_self_store(function) -> bool:
    return any(
        isinstance(loop, (ast.For, ast.comprehension))
        and any(isinstance(n, ast.Attribute) and n.attr == "store"
                and isinstance(n.value, ast.Name) and n.value.id == "self"
                for n in ast.walk(loop.iter))
        for loop in ast.walk(function))


def test_a_stored_value_is_the_value():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        words = set(re.findall(r"\w+", path.read_text()))
        offenders += [f"{module}: {name}" for name in RETIRED_RECORDS
                      if name in words]
    peer = ast.parse((SRC / "mediation" / "peer.py").read_text())
    (local_remove,) = [
        method for cls in ast.walk(peer)
        if isinstance(cls, ast.ClassDef) and cls.name == "GridVinePeer"
        for method in cls.body
        if isinstance(method, ast.FunctionDef)
        and method.name == "local_remove"]
    if _iterates_self_store(local_remove):
        offenders.append("mediation/peer.py: GridVinePeer.local_remove "
                         "walks the store to count a triple's copies")
    assert not offenders, (
        "a stored value wrapped, or its copies searched for:\n  "
        + "\n  ".join(offenders))
