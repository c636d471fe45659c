"""Shared infrastructure for the experiment benchmarks.

Every benchmark regenerates one table/figure/claim of the paper's
evaluation (``python -m repro experiments`` lists them; the recorded
results are the committed ``benchmarks/BENCH_E<n>.json`` baselines,
see docs/TESTING.md).  Benchmarks print their series with the ``[Ex]``
experiment tag so the harness output is self-describing, and pin the
same series through :func:`record.record`.

Scale control
-------------
``REPRO_BENCH_SCALE=full`` runs the paper-scale configurations (E2 at
340 peers / 17 000 triples / 23 000 queries).  The default ``quick``
scale shrinks the workloads ~10x so the whole suite finishes in a
couple of minutes; the *shape* of every result is preserved.
"""

import os

import pytest


def bench_scale() -> str:
    """Current scale: ``"full"`` or ``"quick"``."""
    return os.environ.get("REPRO_BENCH_SCALE", "quick")


@pytest.fixture(scope="session")
def scale() -> str:
    return bench_scale()


def peers_and_scale(env_var: str, scale: str, *, quick: int,
                    full: int) -> tuple[int, str]:
    """E18/E19 peer count, plus the scale label to record it under.

    A ``REPRO_BENCH_E<n>_PEERS`` override (CI's scale-smoke job) gets
    its own label, so its counts are never compared with the
    committed ``quick`` baseline.
    """
    override = int(os.environ.get(env_var, "0"))
    if override:
        return override, f"{override}-peers"
    return (full if scale == "full" else quick), scale


def report(tag: str, line: str) -> None:
    """Print one experiment-output line (shown with pytest -s or on
    the captured-output section of the benchmark run)."""
    print(f"[{tag}] {line}")


def run_once(benchmark, fn, *args, **kwargs):
    """Run a heavy simulation exactly once under pytest-benchmark.

    The simulations are deterministic and expensive; statistical
    repetition would only re-measure the same virtual outcome, so each
    benchmark runs a single round.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)
