"""Structural rules over ``src/repro``, checked on the source text.

Every name defined is used by something.  A function, method or class
under ``src/repro`` that nothing in the code of the package, the
benchmarks, perfbench and the examples refers to has no caller there:
it is surface that still has to be read, kept importable and documented
for the sake of its own tests.  The code is read through its syntax
tree, and a reference is a name or an attribute (inside f-strings
too), the method a dispatching call names as a string (``call("m",
...)``, ``submit(node, "m", ...)``), the attribute ``getattr`` /
``hasattr`` names, the ``module:Class.attr`` path of a perfbench span
target, or a counter a ``CounterGroup`` declares in ``_fields`` /
``_derived`` / ``_keyed``.  Any other string literal, a docstring, a
comment and a definition's own name are not uses.  The tests are not
counted as a user; the few definitions the suite needs that nothing
else calls are named, each with its reason, in ``KEPT_FOR_TESTS``.
The rule counts names, so it cannot tell two same-named definitions
apart (one live ``snapshot`` hides a dead one); it is a floor, not a
proof.  Package ``__init__.py`` files are left out of the count: a
re-export is not a use.

Every option is set by something.  A defaulted parameter of a
module-level function or of a method that no call in that code passes,
by keyword or by position, has one value in use: it is a constant
spelled as a parameter.  Calls dispatched by name (``call("m", ...)``,
``submit(node, "m", ...)``) pass their trailing arguments positionally;
a constructor is called through its class name, ``cls(...)`` and
``super().__init__(...)``.  A field of a frozen dataclass, slotted or
not, is a parameter of the constructor its dataclass writes: a call of
its class or of any subclass passes it, and so does a
``dataclasses.replace`` call by keyword, whatever it replaces in.  A
``**`` inside a class body passes the keys of the ``dict(...)`` /
``{...}`` class attributes of that class, its bases and its subclasses
in the same module (perfbench's workload sizes), and any other ``**``
passes everything.  A mutable dataclass is a run record, not an
option.  The parameters kept anyway are named, each with its reason,
in ``KEPT_DEFAULTS``.  Calls are matched by the callee's name, so this
too is a floor, not a proof.

A value object is a frozen dataclass.  Immutability, equality, hashing
and pickling are what ``@dataclass(frozen=True, slots=True)`` writes;
no class writes ``__reduce__`` or a ``__setattr__`` that raises by hand,
except the four in ``HAND_WRITTEN_VALUES``, each with its reason.

A statistic is declared once.  Every stat bag subclasses
``obs.registry.CounterGroup``, which is where ``snapshot`` / ``reset``
/ ``add`` are written; a bag with something extra to report extends
them through ``super()``.  The hand merges and the registry's native
series that idiom replaced stay gone, and the facade reports network
metrics without asking which engine it runs on.

One module pair knows how causal scope propagates.  The scope stack
(``SimNetwork._scopes``) is touched by the network and its gate, a
shard's submission kickoff and the tracer that pushes on it;
everything else goes through ``SimNetwork.scope`` / ``resume`` and
``Tracer.activate`` / ``current``.

One gate sends a message.  ``SimNetwork.send`` is the only code that
counts a send or a drop: outside the network and its metrics no module
records a drop, writes the sent counters or defines a ``send`` of its
own.  A shard's transport keeps the gate itself under its own name, for
the span target that looks it up there.

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

An upload is one write, and writes and reads are one machine.
Triples are grouped by key, and the groups travel as one split op that
divides where the keys diverge; a lost share is re-issued by the op's
own ledger, never key by key, and no per-triple path survives beside
it.  A one-key ``update`` is the same split op and routes like a
single op.  Reads are the same machine: a one-key ``retrieve`` or
pattern search is a one-key split read, so there is no pending-op
table beside the ledgers, and the id-rule ledger is left to the two
fan-outs whose origin cannot list their answerers.

A reformulation is computed in one place.  The planner, the iterative
operator and the recursive handler all take their translations from
``reformulation.planner.translations``; nothing outside
``reformulation/`` calls ``translate_query`` itself, and the plan has no
option to leave the original query out.

A reformulation's answer is one operator.  Its join, projection and
dedup are one ``Answer``, on every plan shape; the three operators it
replaced stay gone.

An engine batch runs the plan its cache holds.  Neither the engine
nor the path a batch takes into the deployment accepts an optimizer,
so the live pruning of ``strategy="auto"`` is the one pruning rule and
no second one rewrites cached plans.
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
    "to_bindings": "ground truth: a batch as binding dicts, what the "
                   "operator properties compare with a naive join",
    "clear_hash_caches": "isolation: memo-cache tests start from cold caches",
    "remove_triple": "paper primitive: the deleting Update of §2.2",
    "set_exception": "error handling: a Future resolves to a failure",
    "UniformLatency": "jittered delivery: the batch strategies reorder "
                      "messages with it",
    "leave": "membership: the graceful-departure primitive the "
             "membership tests exercise",
}
#: calls that name the method they run: ``name -> index of the name``
NAME_DISPATCH = {"call": 0, "submit": 1}
#: calls that name the attribute they read: ``name -> index of the name``
NAME_ARGUMENTS = {**NAME_DISPATCH, "getattr": 1, "hasattr": 1}
#: a ``CounterGroup``'s counters, declared by name
COUNTER_DECLARATIONS = {"_fields", "_derived", "_keyed"}
#: a perfbench span target: ``module:Class.attr``
SPAN_TARGET = re.compile(r"repro(?:\.\w+)+:([\w.]+)")


def _name_of(func):
    """The name a call's callee goes by: a name or an attribute."""
    return (func.id if isinstance(func, ast.Name) else
            func.attr if isinstance(func, ast.Attribute) else None)


def _string(node):
    return (node.value if isinstance(node, ast.Constant)
            and isinstance(node.value, str) else None)


def _code_references(tree):
    """The names ``tree`` refers to as code: its names and attributes
    (f-string expressions included), the name a dispatching call or
    ``getattr`` / ``hasattr`` passes as a string, the attribute path of
    a span target and the counters a ``CounterGroup`` declares.  Any
    other string literal, a docstring, a comment and a definition's own
    name are not references."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Call):
            at = NAME_ARGUMENTS.get(_name_of(node.func))
            if at is not None and len(node.args) > at:
                name = _string(node.args[at])
                if name is not None:
                    yield name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            if node.value is not None and any(
                    isinstance(t, ast.Name) and t.id in COUNTER_DECLARATIONS
                    for t in targets):
                yield from (name for n in ast.walk(node.value)
                            if (name := _string(n)) is not None)
        if (span := SPAN_TARGET.fullmatch(_string(node) or "")) is not None:
            yield from span.group(1).split(".")


def _user_trees():
    for top in USERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            if not (top == "src" and path.name == "__init__.py"):
                yield ast.parse(path.read_text()), path.relative_to(ROOT)


def _src_trees():
    for path in sorted(SRC.rglob("*.py")):
        yield ast.parse(path.read_text()), path.relative_to(ROOT)


def _defined_names(tree, where):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            if not (node.name.startswith("__")
                    and node.name.endswith("__")):
                yield node.name, f"{where}:{node.lineno}"


def _unreferenced(definitions, users):
    """``name (where)`` of each definition in ``definitions`` that
    nothing in ``users`` refers to, and the ``KEPT_FOR_TESTS`` entries
    something does."""
    references = Counter(name for tree, _ in users
                         for name in _code_references(tree))
    unreferenced = sorted(f"{name} ({where})"
                          for tree, module in definitions
                          for name, where in _defined_names(tree, module)
                          if not references[name]
                          and name not in KEPT_FOR_TESTS)
    return unreferenced, sorted(name for name in KEPT_FOR_TESTS
                                if references[name])


def test_no_definition_without_a_reference():
    unreferenced, stale = _unreferenced(list(_src_trees()),
                                        list(_user_trees()))
    assert not unreferenced, (
        "defined under src/repro, used by nothing but tests:\n  "
        + "\n  ".join(unreferenced))
    assert not stale, f"no longer test-only (or gone): {stale}"


def test_a_docstring_mention_is_not_a_use():
    text = ('"""Calls ``ghost`` (module docstring)."""\n'
            "def f():\n"
            '    """``ghost`` again."""  # and ghost in a comment\n'
            "    return call('handler_kind', ghost_arg)\n")
    references = Counter(_code_references(ast.parse(text)))
    assert references["ghost"] == 0
    assert references["handler_kind"] == references["ghost_arg"] == 1
    # a definition's own name is not a reference to it
    assert references["f"] == 0


def test_a_string_named_like_a_definition_is_not_a_use():
    tree = ast.parse(
        "class Fault:\n"
        "    def drop(self):\n"
        "        return 'drop'\n"
        "    def describe(self):\n"
        "        return f'{self.action}: drop'\n"
        "    def action(self):\n"
        "        return getattr(self, 'describe')()\n")
    unreferenced, _ = _unreferenced([(tree, "t.py")], [(tree, "t.py")])
    assert unreferenced == ["Fault (t.py:1)", "drop (t.py:2)"]


#: defaulted parameters no code passes, kept on purpose:
#: ``(function, parameter): reason``
KEPT_DEFAULTS = {
    ("EventLoop.run_until_complete", "max_events"):
        "safety: a runaway-loop guard",
    ("SingleLoopEngine.run_until_quiescent", "max_events"):
        "safety: a runaway-loop guard",
    ("ShardedTransport.run_until_quiescent", "max_windows"):
        "safety: a runaway-loop guard",
    ("assign_paths", "key_bits"):
        "test strategies draw narrow key spaces to build unbalanced tries",
    ("build_by_exchanges", "meetings"):
        "test strategies draw short exchange runs the default cannot",
    ("build_by_exchanges", "max_depth"):
        "the construction tests bound trie depth below the default",
    ("SelfOrganizationController.__init__", "reference_attribute_hint"):
        "test strategies select reference attributes by name",
    ("GridVineNetwork.insert_schema", "origin"):
        "tests place a schema from a chosen peer",
    ("GridVineNetwork.insert_triples", "origin"):
        "tests upload from a chosen peer",
    ("PGridOverlay.update_sync", "action"):
        "paper primitive: the deleting Update of §2.2",
    ("MappingGraph.__init__", "mappings"):
        "test fixtures build a graph in one expression",
    ("MappingGraph.find_paths", "max_hops"):
        "a perfbench span target; its bound is what its tests check",
    ("MappingGraph.reachable_schemas", "max_hops"):
        "a perfbench span target; its bound is what its tests check",
    ("run_invariants", "names"):
        "tests check one invariant family at a time on a bare overlay",
    ("ScaleoutSpec.__init__", "mean_uptime"):
        "test_shard_transport's small_spec shrinks the churn trace to fit "
        "the test budget",
    ("ScaleoutSpec.__init__", "mean_downtime"):
        "test_shard_transport's small_spec shrinks the churn trace to fit "
        "the test budget",
    ("ScaleoutSpec.__init__", "wave_interval"):
        "test_shard_transport's small_spec shrinks the churn trace to fit "
        "the test budget",
    ("rank_candidate_pairs", "min_shared"):
        "test strategies draw a minimum of 0-3 against a brute-force ranking",
    ("ConstantLatency.__init__", "delay"):
        "the gate and injector tests time deliveries at 0.1-1.0 s",
    ("ShardedTransport.__init__", "latency"):
        "test_shard_transport runs shards under the LogNormalWANLatency "
        "lookahead",
}
#: the callee name a ``dataclasses.replace`` call is recorded under
REPLACE = "dataclasses.replace"


def _functions(tree):
    """``(qualified name, callee name, definition, is a method)`` of the
    module-level functions and the methods a call can name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.name, node, False
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if not isinstance(fn, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                    continue
                if fn.name in ("__init__", "__new__"):
                    yield f"{node.name}.{fn.name}", node.name, fn, True
                elif not fn.name.startswith("__"):
                    yield f"{node.name}.{fn.name}", fn.name, fn, True


def _is_frozen_dataclass(cls):
    """Whether ``cls`` is declared ``@dataclass(frozen=True, ...)``: an
    option object, whose generated ``__init__`` takes its fields in
    order.  A mutable dataclass is a run record, not an option."""
    return any(isinstance(d, ast.Call) and _name_of(d.func) == "dataclass"
               and any(k.arg == "frozen"
                       and getattr(k.value, "value", None) is True
                       for k in d.keywords)
               for d in cls.decorator_list)


def _frozen_dataclass_fields(sources):
    """``(qualified name, callee names, parameter, position, where)`` of
    the defaulted fields of the frozen dataclasses in ``sources``, read
    as the parameters of the ``__init__`` the dataclass writes: a call
    of the class or of any subclass passes a field, and so does a
    ``dataclasses.replace`` call by keyword (its receiver's type is not
    known)."""
    classes = {}
    for tree, where in sources:
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and _is_frozen_dataclass(cls):
                classes[cls.name] = (
                    [_name_of(base) for base in cls.bases],
                    [node for node in cls.body
                     if isinstance(node, ast.AnnAssign)
                     and isinstance(node.target, ast.Name)], where)

    def fields(name):
        bases, own, _ = classes[name]
        return ([field for base in bases if base in classes
                 for field in fields(base)]
                + [node.target.id for node in own])

    def subclasses(name):
        direct = {sub for sub, (bases, _, _) in classes.items()
                  if name in bases}
        return direct.union(*map(subclasses, direct))

    for name, (_, own, where) in classes.items():
        callees = frozenset({name, REPLACE} | subclasses(name))
        order = fields(name)
        for node in own:
            if node.value is not None:
                yield (f"{name}.__init__", callees, node.target.id,
                       order.index(node.target.id), f"{where}:{node.lineno}")


def _defaulted_parameters(sources):
    """``(qualified name, callee names, parameter, position, where)`` of
    every defaulted parameter of a function or method in ``sources``,
    a frozen dataclass's fields included; ``position`` skips ``self`` /
    ``cls`` and is ``None`` for a keyword-only parameter."""
    sources = list(sources)
    yield from _frozen_dataclass_fields(sources)
    for tree, module in sources:
        for qualified, callee, fn, is_method in _functions(tree):
            args = fn.args
            positional = args.posonlyargs + args.args
            if is_method and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in fn.decorator_list):
                positional = positional[1:]
            first = len(positional) - len(args.defaults)
            where = f"{module}:{fn.lineno}"
            for index, arg in enumerate(positional[first:], first):
                yield qualified, frozenset({callee}), arg.arg, index, where
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield qualified, frozenset({callee}), arg.arg, None, where


def _dict_keys(node):
    """The keys a ``dict(k=...)`` or ``{"k": ...}`` expression holds,
    or ``None`` for any other expression."""
    if isinstance(node, ast.Dict):
        return {key for key in map(_string, filter(None, node.keys))
                if key is not None}
    if isinstance(node, ast.Call) and _name_of(node.func) == "dict":
        return {keyword.arg for keyword in node.keywords if keyword.arg}
    return None


def _class_dict_keys(tree):
    """``class -> keys`` of the dict class attributes of each class of
    ``tree``, its bases and its subclasses in ``tree``; ``None`` where
    that family has no dict attribute."""
    own, bases = {}, {}
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            bases[cls.name] = {_name_of(base) for base in cls.bases}
            own[cls.name] = [keys for node in cls.body
                             if isinstance(node, (ast.Assign, ast.AnnAssign))
                             and node.value is not None
                             and (keys := _dict_keys(node.value)) is not None]

    def related(name, step):
        found, todo = set(), [name]
        while todo:
            for other in step(todo.pop()):
                if other in own and other not in found:
                    found.add(other)
                    todo.append(other)
        return found

    def subclasses(name):
        return [sub for sub, up in bases.items() if name in up]

    family_keys = {}
    for name in own:
        family = ({name} | related(name, bases.get)
                  | related(name, subclasses))
        dicts = [keys for member in family for keys in own[member]]
        family_keys[name] = set().union(*dicts) if dicts else None
    return family_keys


def _call_sites(users):
    """``callee name -> [(positional count, keywords, *args, **kwargs)]``
    of every call in ``users``; a ``**`` inside a class body passes the
    keys of its class's dict attributes when it has any, and everything
    when it has none."""
    sites: dict = {}

    def add(name, args, keywords, class_keys=None):
        double_star = any(k.arg is None for k in keywords)
        passed = {k.arg for k in keywords if k.arg}
        if double_star and class_keys is not None:
            passed |= class_keys
            double_star = False
        sites.setdefault(name, []).append((
            len(args), passed,
            any(isinstance(a, ast.Starred) for a in args), double_star))

    for tree, _ in users:
        class_dicts = _class_dict_keys(tree)
        replace = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   and node.module == "dataclasses"
                   for alias in node.names if alias.name == "replace"}
        owner = {}
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                owner.update((node, cls) for node in ast.walk(cls))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = _name_of(func)
            cls = owner.get(node)
            keys = class_dicts[cls.name] if cls is not None else None
            if (isinstance(func, ast.Name) and name in replace
                    or isinstance(func, ast.Attribute) and name == "replace"
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "dataclasses"):
                add(REPLACE, (), node.keywords, keys)
                continue
            if name == "cls" and cls is not None:
                name = cls.name
            elif (name == "__init__" and cls is not None
                  and isinstance(func.value, ast.Call)
                  and isinstance(func.value.func, ast.Name)
                  and func.value.func.id == "super"):
                for base in cls.bases:
                    add(_name_of(base), node.args, node.keywords, keys)
                continue
            if name is None:
                continue
            add(name, node.args, node.keywords, keys)
            at = NAME_DISPATCH.get(name)
            if at is not None and len(node.args) > at:
                dispatched = _string(node.args[at])
                if dispatched is not None:
                    add(dispatched, node.args[at + 1:], ())
    return sites


def _unset_options(sources, users):
    """The defaulted parameters in ``sources`` no call in ``users``
    passes, and the ``KEPT_DEFAULTS`` entries among them."""
    sites = _call_sites(users)
    unset, kept = [], set()
    for qualified, callees, param, index, where in _defaulted_parameters(
            sources):
        if any(param in keywords or double_star
               or (index is not None and (count > index or star))
               for callee in callees
               for count, keywords, star, double_star
               in sites.get(callee, ())):
            continue
        if (qualified, param) in KEPT_DEFAULTS:
            kept.add((qualified, param))
        else:
            unset.append(f"{qualified}({param}=) ({where})")
    return unset, kept


def test_no_option_without_a_second_value():
    unset, kept = _unset_options(_src_trees(), list(_user_trees()))
    assert not unset, (
        "an option no code under src, benchmarks, perfbench or examples "
        "sets:\n  " + "\n  ".join(unset))
    stale = sorted(set(KEPT_DEFAULTS) - kept)
    assert not stale, f"set by code now (or gone): {stale}"


def test_the_option_rule_reads_a_class_dict():
    tree = ast.parse(
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Spec:\n"
        "    size: int = 1\n"
        "    knob: float = 0.5\n"
        "class Workload:\n"
        "    full = dict(size=10)\n"
        "    def setup(self):\n"
        "        return Spec(**self.full)\n")
    unset, _ = _unset_options([(tree, "t.py")], [(tree, "t.py")])
    assert unset == ["Spec.__init__(knob=) (t.py:5)"]


def test_a_value_class_field_is_an_option():
    options = {(qualified, param, index)
               for qualified, _, param, index, _
               in _defaulted_parameters(_src_trees())}
    assert {("Schema.__init__", "domain", 2),
            ("PredicateCorrespondence.__init__", "kind", 2),
            ("PredicateCorrespondence.__init__", "score", 3),
            ("SchemaMapping.__init__", "provenance", 4),
            ("SchemaMapping.__init__", "deprecated", 5),
            ("SchemaMapping.__init__", "confidence", 6)} <= options


#: the classes that may still write ``__reduce__`` or a raising
#: ``__setattr__`` by hand, each with its reason
HAND_WRITTEN_VALUES = {
    "_BaseTerm": "interned: unpickling and copying must re-intern "
                 "through the constructor",
    "Triple": "interned: unpickling and copying must re-intern "
              "through the constructor",
    "TriplePattern": "its hash, route and prepared scan are lazy caches "
                     "a pickle must not ship",
    "ConjunctiveQuery": "its hash is a lazy cache a pickle must not ship",
}


def _hand_written_value_methods(tree):
    """``(class, method)`` for each ``__reduce__`` / ``__reduce_ex__``
    and each ``__setattr__`` that raises, per class of ``tree``."""
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and (
                        fn.name in ("__reduce__", "__reduce_ex__")
                        or fn.name == "__setattr__" and any(
                            isinstance(node, ast.Raise)
                            for node in ast.walk(fn))):
                    yield cls.name, fn.name


def test_a_value_object_is_a_frozen_dataclass():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        for cls, method in _hand_written_value_methods(
                ast.parse(path.read_text())):
            found.setdefault(cls, set()).add(
                f"{path.relative_to(SRC).as_posix()}: {cls}.{method}")
    offenders = sorted(where for cls, wheres in found.items()
                       if cls not in HAND_WRITTEN_VALUES for where in wheres)
    assert not offenders, (
        "immutability or pickling written by hand (use "
        "@dataclass(frozen=True, slots=True)):\n  " + "\n  ".join(offenders))
    stale = sorted(set(HAND_WRITTEN_VALUES) - set(found))
    assert not stale, f"no longer hand-written (or gone): {stale}"


def test_the_hand_written_rule_sees_a_raising_setattr():
    text = ("class Kit:\n"
            "    def __setattr__(self, name, value):\n"
            "        raise AttributeError(name)\n"
            "    def __reduce__(self):\n"
            "        return (Kit, ())\n"
            "class Open:\n"
            "    def __setattr__(self, name, value):\n"
            "        object.__setattr__(self, name, value)\n")
    assert set(_hand_written_value_methods(ast.parse(text))) == {
        ("Kit", "__setattr__"), ("Kit", "__reduce__")}


#: where ``snapshot`` / ``reset`` may be written out in full: the stat
#: idiom itself and the tracer (a span buffer, not a counter bag)
STAT_IDIOM_OWNERS = {"obs/registry.py", "obs/tracer.py"}
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
SCOPE_STACK_OWNERS = {"simnet/network.py", "simnet/shard.py",
                      "obs/tracer.py"}
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
        "causal scope handled outside the network:\n  "
        + "\n  ".join(offenders))


#: the network and the counters its gate fills
SEND_GATE_OWNERS = {"simnet/network.py", "simnet/metrics.py"}
SEND_COUNTERS = {"messages_sent", "messages_by_kind"}


def _send_gate_code(tree):
    """What in ``tree`` only the gate may do: record a drop, write a
    sent counter, or define a ``send``."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "record_drop"):
            yield "calls record_drop"
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Store)
              and node.attr in SEND_COUNTERS):
            yield f"writes {node.attr}"
        elif (isinstance(node, ast.Subscript)
              and isinstance(node.ctx, ast.Store)
              and isinstance(node.value, ast.Attribute)
              and node.value.attr in SEND_COUNTERS):
            yield f"writes {node.value.attr}[...]"
        elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and node.name == "send"):
            yield "defines send"


def test_one_send_gate():
    from repro.simnet.network import SimNetwork
    from repro.simnet.shard import ShardTransport

    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        if module not in SEND_GATE_OWNERS:
            offenders += [f"{module}: {what}" for what in
                          _send_gate_code(ast.parse(path.read_text()))]
    assert not offenders, (
        "a second send gate:\n  " + "\n  ".join(offenders))
    # the alias perfbench's span target resolves is the gate itself
    assert vars(ShardTransport)["send"] is SimNetwork.send


def test_the_send_gate_rule_sees_a_second_gate():
    tree = ast.parse(
        "class T:\n"
        "    def send(self, message):\n"
        "        self.metrics.messages_sent += 1\n"
        "        self.metrics.messages_by_kind[message.kind] = 1\n"
        "        self.metrics.record_drop(message.kind)\n")
    assert sorted(_send_gate_code(tree)) == [
        "calls record_drop", "defines send", "writes messages_by_kind[...]",
        "writes messages_sent"]


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


#: virtual seconds of route and reply loss in the lossy legs: the first
#: attempt of a split op falls inside, its ledger's retry (at the 15 s
#: timeout) past it
LOSSY_WINDOW = 10.0


def _lossy(transport, seed: int) -> None:
    """Drop half the routes and replies for :data:`LOSSY_WINDOW`
    virtual seconds."""
    from repro.faultlab import FaultPlan, MessageDrop
    from repro.faultlab.injector import install_plan

    install_plan(transport, FaultPlan(seed=seed, faults=(
        MessageDrop(kinds=("route", "reply"), probability=0.5,
                    until=LOSSY_WINDOW),)))


def _count_split_ops(monkeypatch):
    """The split ops (by op) started from here on."""
    from repro.pgrid.peer import SplitTask

    tasks = []
    real_start = SplitTask.start

    def counting_start(self):
        tasks.append(self.kind)
        return real_start(self)

    monkeypatch.setattr(SplitTask, "start", counting_start)
    return tasks


def test_an_upload_is_one_split_write(monkeypatch):
    """Five triples from one origin are one split write and no per-key
    op (the per-key gather started 2N + 1), and the write costs the
    same attributed messages on the single loop and on two inline
    shards.  When routes and replies are lost during its first attempt,
    the write's own ledger re-issues what it lost — still one ledger
    and no per-key op — and every peer holds the per-triple oracle."""
    from types import SimpleNamespace

    from repro.mediation.keys import triple_keys
    from repro.rdf.terms import Literal, URI
    from repro.rdf.triples import Triple
    from repro.simnet.shard import ShardedTransport, SingleLoopEngine
    from strategies import deploy_upload_case

    overlay = SimpleNamespace(num_peers=8, replication=1,
                              refs_per_level=2, seed=3)
    predicate = URI("S#shared")
    batch = [Triple(URI(f"S:e{i}"), predicate, Literal(f"v{i}"))
             for i in range(5)]
    tasks = _count_split_ops(monkeypatch)
    attributed = []
    for lossy in (False, True):
        for engine in (SingleLoopEngine(seed=3), ShardedTransport(2, seed=3)):
            with engine:
                net = deploy_upload_case(overlay, engine)
                if lossy:
                    _lossy(engine, overlay.seed)
                origin = net.peer_ids()[0]
                results, messages = net.call("insert_triples", batch,
                                             origin=origin)
                net.settle()
            assert len(results) == 2 * len(batch) + 1
            assert all(result.success for result in results)
            assert tasks == ["write"]
            tasks.clear()
            if not lossy:
                attributed.append(messages)
                continue
            assert net.peer(origin).failover_stats.retries >= 1
            for peer in net.peers.values():
                assert {(bits, value) for bits, values in peer.store.items()
                        for value in values} == {
                    (key.bits, triple) for triple in batch
                    for key in triple_keys(triple)
                    if peer.is_responsible_for(key)}
    assert attributed[0] == attributed[1] > 0


def test_a_one_key_write_routes_like_an_op(monkeypatch):
    """One ``update`` is one ``write`` split op and no ``_start_op``.
    It costs what a routed op costs: the route's hops, one
    ``replicate`` per replica and one report — no report when the
    origin answers it itself — on the single loop and on two inline
    shards."""
    from types import SimpleNamespace

    from repro.simnet.shard import ShardedTransport, SingleLoopEngine
    from repro.util.hashing import uniform_hash
    from strategies import deploy_upload_case

    overlay = SimpleNamespace(num_peers=12, replication=2,
                              refs_per_level=2, seed=4)
    key = uniform_hash("one key")
    tasks = _count_split_ops(monkeypatch)
    for engine in (SingleLoopEngine(seed=4), ShardedTransport(2, seed=4)):
        with engine:
            net = deploy_upload_case(overlay, engine)
            owners = [peer for peer in net.peers.values()
                      if peer.is_responsible_for(key)]
            remote = next(node_id for node_id in net.peer_ids()
                          if not net.peer(node_id).is_responsible_for(key))
            for origin in (remote, owners[0].node_id):
                del tasks[:]
                result, messages = net.call("update", key, ("v",),
                                            origin=origin)
                assert result.success
                assert tasks == ["write"]
                replicas = len(owners[0].replicas)
                if origin == remote:
                    assert result.hops >= 1
                    assert messages == result.hops + replicas + 1
                else:
                    assert (result.hops, messages) == (0, replicas)


def _methods(module: str):
    """Every function defined at module level or in a class body of
    ``module``, with nested closures inside it."""
    for node in ast.parse((SRC / module).read_text()).body:
        body = node.body if isinstance(node, ast.ClassDef) else [node]
        yield from (function for function in body
                    if isinstance(function, ast.FunctionDef))


#: the retired single-key read machine: its state class, its issuer
#: and the table it kept beside the ledgers
RETIRED_PENDING = ("_Pending", "_start_op", "_pending", "_cancel_op",
                   "_fail_op", "_finish_op_spans")


def test_one_op_machine_and_one_id_rule_user_pair():
    """Every operation a peer issues is a ledger: the pending-op
    machine is gone from ``src/``; the key rule's ledger
    (``SplitTask``) is built only by the two split entry points, which
    every write and every read — a one-key ``retrieve`` or pattern
    search too — goes through; and the id rule's ledger
    (``FanoutTask``) only by the two fan-outs whose origin cannot list
    their answerers."""
    retired = [f"{path.relative_to(SRC).as_posix()}: {name}"
               for path in sorted(SRC.rglob("*.py"))
               for name in RETIRED_PENDING
               if name in re.findall(r"\w+", path.read_text())]
    assert not retired, retired
    calls: dict = {"FanoutTask": [], "SplitTask": []}
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        for function in _methods(module):
            for name in calls.keys() & _called_names(function):
                calls[name].append(f"{module}:{function.name}")
    assert calls == {
        "FanoutTask": ["mediation/peer.py:recursive_query",
                       "pgrid/peer.py:range_query"],
        "SplitTask": ["pgrid/peer.py:update_many", "pgrid/peer.py:read_many"],
    }
    for module, name in (("pgrid/peer.py", "retrieve"),
                         ("mediation/peer.py", "_search_pattern")):
        assert "read_many" in _called_names(_function(module, name))


def _function(module: str, name: str) -> ast.FunctionDef:
    (function,) = [node for node in ast.walk(ast.parse(
                       (SRC / module).read_text()))
                   if isinstance(node, ast.FunctionDef) and node.name == name]
    return function


def _called_names(function: ast.FunctionDef) -> set[str]:
    return {getattr(node.func, "id", getattr(node.func, "attr", None))
            for node in ast.walk(function) if isinstance(node, ast.Call)}


def test_one_routing_table_builder():
    """Every deployment samples its tables through one builder and seeds
    its peers through one helper, and the single-loop engine always
    builds its own network."""
    import inspect

    from repro.simnet.shard import SingleLoopEngine

    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        text = path.read_text()
        if "build_routing_tables" in re.findall(r"\w+", text):
            offenders.append(f"{module}: build_routing_tables")
        if "def _stream_seed" in text and module != "pgrid/construction.py":
            offenders.append(f"{module}: a second _stream_seed")
    if "net" in inspect.signature(SingleLoopEngine.__init__).parameters:
        offenders.append("simnet/shard.py: SingleLoopEngine takes a net")
    if "sample_routing_tables" not in _called_names(
            _function("pgrid/construction.py", "populate_routing_tables")):
        offenders.append("pgrid/construction.py: populate_routing_tables "
                         "draws its own tables")
    for module, name in (("pgrid/overlay.py", "build_overlay"),
                         ("pgrid/scaleout.py", "_make_peer")):
        if "_stream_seed" not in _called_names(_function(module, name)):
            offenders.append(f"{module}: {name} seeds its peers by hand")
    assert not offenders, (
        "a second routing-table builder or seed derivation:\n  "
        + "\n  ".join(offenders))


def test_one_reformulation_step():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        text = path.read_text()
        if "include_original" in re.findall(r"\w+", text):
            offenders.append(f"{module}: include_original")
        if module.startswith("reformulation/"):
            continue
        offenders += [
            f"{module}:{node.lineno} calls translate_query"
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            == "translate_query"]
    assert not offenders, (
        "a reformulation step written outside reformulation/:\n  "
        + "\n  ".join(offenders))


def test_an_engine_batch_runs_its_cached_plan():
    import inspect

    from repro.engine.core import QueryEngine
    from repro.engine.executor import execute_batch
    from repro.mediation.network import GridVineNetwork
    from repro.mediation.peer import GridVinePeer
    from repro.reformulation import planner

    knobs = [(QueryEngine.__init__, "optimize"),
             (GridVineNetwork.create_engine, "optimize"),
             (execute_batch, "optimizer"),
             (GridVinePeer.execute_planned_batch, "optimizer"),
             (GridVineNetwork.run_batch, "optimizer")]
    offenders = [f"{function.__qualname__} takes {name}"
                 for function, name in knobs
                 if name in inspect.signature(function).parameters]
    if hasattr(planner, "prune_reformulations"):
        offenders.append("reformulation.planner has prune_reformulations")
    assert not offenders, (
        "an engine batch can still run a plan other than its cached "
        "one:\n  " + "\n  ".join(offenders))


def test_a_batch_wave_is_one_split_read(monkeypatch):
    """An engine batch starts each wave's scans as one split read and
    no other op, on the single loop and on two inline shards alike.
    When routes and replies are lost during its first attempt, the
    read's own ledger re-issues what it lost — still one read and no
    other op — and the query returns the fault-free rows.  Reads and
    writes split by one body, toward their keys' common prefix."""
    import random
    from types import SimpleNamespace

    from repro.engine.executor import _WaveScheduler
    from repro.pgrid.peer import PGridPeer
    from repro.rdf.terms import Literal, URI
    from repro.rdf.triples import Triple
    from repro.schema.model import Schema
    from repro.simnet.shard import ShardedTransport, SingleLoopEngine
    from strategies import deploy_upload_case

    overlay = SimpleNamespace(num_peers=12, replication=1,
                              refs_per_level=2, seed=5)
    schemas = [Schema(f"S{i}", ["org"], domain="w") for i in range(3)]
    corpus = [Triple(URI(f"S{i}:e{j}"), URI(f"S{i}#org"),
                     Literal(f"Asp-{i}-{j}"))
              for i in range(3) for j in range(4)]
    query = "SearchFor(x? : (x?, S0#org, %Asp%))"
    waves, reads = [], []
    real_start_next = _WaveScheduler.start_next
    real_read_many = PGridPeer.read_many

    def counting_start_next(self):
        if self.waves and not (self.satisfied and all(self.satisfied)):
            waves.append(len(self.waves[0]))
        return real_start_next(self)

    def counting_read_many(self, op, groups, on_rows, cancel=None):
        reads.append(op)
        return real_read_many(self, op, groups, on_rows, cancel)

    tasks = _count_split_ops(monkeypatch)
    monkeypatch.setattr(_WaveScheduler, "start_next", counting_start_next)
    monkeypatch.setattr(PGridPeer, "read_many", counting_read_many)
    attributed = []
    for transport in (SingleLoopEngine(seed=5), ShardedTransport(2, seed=5)):
        with transport:
            net = deploy_upload_case(overlay, transport)
            net.rng = random.Random(5)  # the engine's mirror backfill
            origin = net.peer_ids()[0]
            for schema in schemas:
                net.insert_schema(schema, origin=origin)
            net.insert_triples(corpus, origin=origin)
            for a, b in zip(schemas, schemas[1:]):
                net.create_mapping(a, b, [("org", "org")], origin=origin)
            net.settle()
            engine = net.create_engine(domain="w", max_hops=4)
            del waves[:], reads[:], tasks[:]
            unlimited = engine.search_for(query, origin=origin)
            assert (waves, reads, tasks) == ([3], ["search"], ["read"])
            del waves[:], reads[:], tasks[:]
            limited = engine.search_for(query, origin=origin, limit=6)
            assert (waves, reads, tasks) == ([1, 1], ["search"] * 2,
                                             ["read"] * 2)
            del waves[:], reads[:], tasks[:]
            retries = net.peer(origin).failover_stats.retries
            _lossy(transport, overlay.seed)
            repaired = engine.search_for(query, origin=origin)
            assert (waves, reads, tasks) == ([3], ["search"], ["read"])
            assert net.peer(origin).failover_stats.retries > retries
        assert unlimited.result_count == 12 and limited.limit_hit
        assert repaired.results == unlimited.results
        attributed.append((unlimited.messages, limited.messages))
    assert attributed[0] == attributed[1]
    assert {"_split_keys", "_send_split"} <= _called_names(
        _function("pgrid/peer.py", "_handle_split"))
    assert "common_prefix_bits" in _called_names(
        _function("pgrid/peer.py", "_send_split"))
    for retired in ("_handle_read", "_handle_write"):
        assert retired not in re.findall(
            r"\w+", (SRC / "pgrid" / "peer.py").read_text()), retired


def test_a_controller_round_reads_set_at_a_time(record_calls):
    """A fragmented self-organization round reads its state in a fixed
    number of split reads, at most six, and the same number when the
    deployment has twice the schemas: on the single loop and on two
    inline shards alike."""
    import random
    from types import SimpleNamespace

    from repro.rdf.terms import Literal, URI
    from repro.rdf.triples import Triple
    from repro.schema.model import Schema
    from repro.selforg.controller import SelfOrganizationController
    from repro.simnet.shard import ShardedTransport, SingleLoopEngine
    from strategies import deploy_upload_case

    overlay = SimpleNamespace(num_peers=12, replication=1,
                              refs_per_level=2, seed=5)
    writes = {"insert_mapping", "deprecate_mapping"}
    rounds = []
    for num_schemas in (3, 6):
        attributes = ("org", "acc")
        schemas = [Schema(f"S{i}", list(attributes), domain="w")
                   for i in range(num_schemas)]
        # Every schema holds the same values, so the round has
        # overlaps to create mappings from.
        corpus = [Triple(URI(f"S{i}:e{j}"), URI(f"S{i}#{attribute}"),
                         Literal(f"{attribute}-{j}"))
                  for i in range(num_schemas) for j in range(4)
                  for attribute in attributes]
        for transport in (SingleLoopEngine(seed=5),
                          ShardedTransport(2, seed=5)):
            with transport:
                net = deploy_upload_case(overlay, transport)
                net.rng = random.Random(5)  # the controller's origins
                origin = net.peer_ids()[0]
                for schema in schemas:
                    net.insert_schema(schema, origin=origin)
                net.insert_triples(corpus, origin=origin)
                # One mapping: a layer of isolated schemas and one
                # edge, which the indicator calls fragmented.
                net.create_mapping(schemas[0], schemas[1],
                                   [("org", "org")], origin=origin)
                net.settle()
                log = record_calls(net)
                report = SelfOrganizationController(net, domain="w").step()
            assert report.ci_before < 0.0 and report.created
            reads = [method for method, *_ in log if method not in writes]
            assert len(reads) <= 6, reads
            rounds.append(reads)
    assert all(reads == rounds[0] for reads in rounds), rounds


def _three_schema_chain():
    """Three mapped schemas of four entities each, on 16 peers;
    returns ``(net, engine)``."""
    from repro import GridVineNetwork, Literal, Schema, Triple, URI

    net = GridVineNetwork.build(num_peers=16, seed=7)
    schemas = [Schema(f"S{i}", ["org", "len"], domain="w")
               for i in range(3)]
    for schema in schemas:
        net.insert_schema(schema)
    net.insert_triples([
        triple for i in range(3) for j in range(4) for triple in (
            Triple(URI(f"S{i}:e{j}"), URI(f"S{i}#org"),
                   Literal(f"Asp-{i}-{j}")),
            Triple(URI(f"S{i}:e{j}"), URI(f"S{i}#len"),
                   Literal(str(100 + j))))])
    for a, b in zip(schemas, schemas[1:]):
        net.create_mapping(a, b, [("org", "org"), ("len", "len")])
    net.settle()
    return net, net.create_engine(domain="w")


def test_one_operator_per_reformulation():
    """A reformulation's join, projection and dedup are one operator.

    ``repro.exec`` has no ``HashJoin``, ``Project`` or ``Dedup``; a
    singleton engine batch, a ``local`` search and an ``iterative``
    search each register, besides their shared scans, the query's
    ``collect`` tail (and the iterative strategy's ``reformulate``
    source), exactly one operator per reformulation: its ``answer``."""
    import repro.exec

    for retired in ("HashJoin", "Project", "Dedup"):
        assert not hasattr(repro.exec, retired), retired
        assert retired not in repro.exec.__all__, retired
        assert not hasattr(repro.exec.operators, retired), retired

    net, engine = _three_schema_chain()
    query = ("SearchFor(x?, y? : (x?, S0#org, %Asp%) "
             "AND (x?, S0#len, y?))")
    outcomes = {"engine": engine.search_for(query)}
    for strategy in ("local", "iterative"):
        outcomes[strategy] = net.search_for(query, strategy=strategy)
    for strategy, outcome in outcomes.items():
        reformulations = outcome.reformulations_explored + 1
        assert reformulations == (1 if strategy == "local" else 3)
        assert outcome.result_count == 4 * reformulations, strategy
        per_reformulation = [
            stats["name"] for stats in outcome.operator_stats
            if not stats["name"].startswith("scan")
            and stats["name"] not in ("collect", "reformulate")]
        assert per_reformulation == ["answer"] * reformulations, strategy


def test_a_local_query_is_two_operators(monkeypatch):
    """A one-pattern ``local`` query is ``Answer -> Collect``.

    ``repro.exec`` has no ``Union`` or ``Limit``: a query's one
    ``Collect`` unions its inputs and applies the limit.  A one-pattern
    local query, limited or not, builds one ``answer`` — which fetches
    the pattern itself, one fetch — and one ``collect``; an engine
    batch builds one ``Collect`` per query beside its shared scans."""
    import repro.exec
    from repro.exec.stream import Operator

    for retired in ("Union", "Limit"):
        assert not hasattr(repro.exec, retired), retired
        assert retired not in repro.exec.__all__, retired
        assert not hasattr(repro.exec.operators, retired), retired

    net, engine = _three_schema_chain()
    built = Counter()
    real_init = Operator.__init__

    def counting_init(self, name):
        built[type(self).__name__] += 1
        real_init(self, name)

    monkeypatch.setattr(Operator, "__init__", counting_init)
    query = "SearchFor(x? : (x?, S0#org, %Asp%))"
    for limit in (None, 2):
        built.clear()
        outcome = net.search_for(query, strategy="local", limit=limit)
        assert built == {"Answer": 1, "Collect": 1}, limit
        # Registration order: the tail first, then the subplan.
        assert [stats["name"] for stats in outcome.operator_stats] == [
            "collect", "answer"]
        assert (outcome.fetches_issued, outcome.fetches_skipped) == (1, 0)
        assert outcome.result_count == (4 if limit is None else 2)
    built.clear()
    result = engine.execute_batch([
        query, "SearchFor(x? : (x?, S1#org, %Asp%))",
        "SearchFor(y? : (x?, S0#len, y?))"])
    assert len(result.outcomes) == 3
    assert built["Collect"] == 3
    assert set(built) == {"PatternScan", "Answer", "Collect"}
