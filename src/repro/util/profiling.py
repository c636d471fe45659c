"""cProfile harness behind the CLI's ``--profile`` flag.

One entry point, :func:`profile_call`: ``python -m repro
query/batch/scenario --profile`` wraps the whole command in it and
prints the top-N functions by cumulative (or internal) time
afterwards.  cProfile shifts proportions (it taxes every Python call);
measured host time per layer comes from ``python3 perfbench/run.py
--workload W --trace 1``.
"""

from __future__ import annotations

import cProfile
import io
import pstats
from typing import Any, Callable

#: rows shown by default — enough to reach past the event-loop
#: machinery into the per-message handler costs
DEFAULT_TOP = 20

#: accepted ``sort`` values (pstats sort keys)
SORT_KEYS = ("cumulative", "tottime")


def profile_call(fn: Callable[[], Any], *, top: int = DEFAULT_TOP,
                 sort: str = "cumulative") -> tuple[Any, str]:
    """Run ``fn`` under cProfile; return ``(result, report_text)``.

    The report is the ``pstats`` table of the ``top`` functions by
    ``sort`` order ("cumulative" or "tottime"), with file paths
    stripped to their trailing components.
    """
    if sort not in SORT_KEYS:
        raise ValueError(f"sort must be one of {SORT_KEYS}, not {sort!r}")
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.strip_dirs().sort_stats(sort).print_stats(top)
    return result, buffer.getvalue()


def print_profile(report: str) -> None:
    """Print a :func:`profile_call` report with a separating rule."""
    print("-" * 72)
    print(report.rstrip())
