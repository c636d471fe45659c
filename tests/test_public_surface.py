"""Structural rules over ``src/repro``, checked on the source text.

Every name defined is referenced somewhere.  A function, method or class whose name occurs exactly once across the
code base — its own definition — has no caller in the package, a
benchmark, perfbench, an example or even a test: it is dead surface
that still has to be read, kept importable and documented.  The rule
is a word count, so it cannot tell two same-named definitions apart
(one live ``register_into`` hides a dead one); it is a floor, not a
proof.  Package ``__init__.py`` files are left out of the count: a
re-export is not a use.

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
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
USERS = ("src", "tests", "benchmarks", "perfbench", "examples")


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
                          if words[name] <= 1)
    assert not unreferenced, (
        "defined under src/repro but never referenced:\n  "
        + "\n  ".join(unreferenced))


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
