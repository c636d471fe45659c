"""Every name defined under ``src/repro`` is referenced somewhere.

A function, method or class whose name occurs exactly once across the
code base — its own definition — has no caller in the package, a
benchmark, perfbench, an example or even a test: it is dead surface
that still has to be read, kept importable and documented.  The rule
is a word count, so it cannot tell two same-named definitions apart
(one live ``register_into`` hides a dead one); it is a floor, not a
proof.  Package ``__init__.py`` files are left out of the count: a
re-export is not a use.
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
