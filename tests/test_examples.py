"""Every example script runs.

Each ``examples/*.py`` runs in a fresh interpreter with its default
arguments; it must exit 0 and leave the tree as it found it (nothing
written, nothing rewritten).  A facade argument an example still
passes after it is removed then fails here, not in a reader's hands.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))
#: written by interpreters and test tools, not by the examples
SKIPPED_DIRS = {".git", "__pycache__", ".pytest_cache", ".hypothesis",
                ".benchmarks", ".ruff_cache"}


def _tree():
    """Every file under the repository with its size and mtime."""
    files = {}
    for folder, dirs, names in os.walk(ROOT):
        dirs[:] = [d for d in dirs if d not in SKIPPED_DIRS]
        for name in names:
            stat = os.stat(os.path.join(folder, name))
            files[os.path.join(folder, name)] = (stat.st_size,
                                                 stat.st_mtime_ns)
    return files


def test_the_examples_are_found():
    assert EXAMPLES, "no examples/*.py: the runs below test nothing"


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs_clean(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    before = _tree()
    proc = subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    after = _tree()
    changed = sorted(path for path in before.keys() | after.keys()
                     if before.get(path) != after.get(path))
    assert not changed, f"{script.name} left files behind: {changed}"
