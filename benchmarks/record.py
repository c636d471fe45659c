"""Count conformance: each bench compares itself to ``BENCH_<exp>.json``.

Every experiment bench calls :func:`record` once with the series it
prints — message counts, result rows, recall, virtual time, registry
snapshots.  The simulations are pure functions of their seeds, so the
payload is **deterministic**: it carries no wall time, memory or
interpreter field, and :func:`record` compares it *exactly* against
the committed ``benchmarks/BENCH_<exp>.json``.  A difference fails the
bench test with one line per differing path — it means behaviour
changed, never noise.

Shipping an intentional change re-records and commits the baselines
alongside the code::

    REPRO_BENCH_WRITE_BASELINE=1 PYTHONPATH=src python -m pytest \
        benchmarks/ --benchmark-only -q

Baselines are committed at the ``quick`` scale — the one CI runs.  A
run at another scale (``REPRO_BENCH_SCALE=full``, or a peer-count
override) is not compared.  Host time is perfbench's job
(``python3 perfbench/run.py``), not this directory's.
"""

from __future__ import annotations

import json
import os

#: where the committed BENCH_<exp>.json baselines live (next to the
#: bench sources)
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

RERECORD_HINT = ("\n(an intentional change re-records with "
                 "REPRO_BENCH_WRITE_BASELINE=1 and commits the file)")


def diff_payload(baseline, fresh, path: str) -> list[str]:
    """All mismatches between two payloads, one readable line each.

    Dicts are compared by key, lists positionally, leaves by equality.
    """
    problems: list[str] = []
    if isinstance(baseline, dict) and isinstance(fresh, dict):
        for key in sorted(baseline.keys() - fresh.keys()):
            problems.append(f"{path}.{key}: missing from this run")
        for key in sorted(fresh.keys() - baseline.keys()):
            problems.append(f"{path}.{key}: not in committed baseline")
        for key in sorted(baseline.keys() & fresh.keys()):
            problems += diff_payload(baseline[key], fresh[key],
                                     f"{path}.{key}")
    elif isinstance(baseline, list) and isinstance(fresh, list):
        if len(baseline) != len(fresh):
            return [f"{path}: {len(fresh)} entries != committed "
                    f"{len(baseline)}"]
        for index, (b, f) in enumerate(zip(baseline, fresh)):
            problems += diff_payload(b, f, f"{path}[{index}]")
    elif baseline != fresh:
        problems.append(f"{path}: {fresh!r} != committed {baseline!r}")
    return problems


def record(experiment: str, *, scale: str, runs: list[dict],
           totals: dict | None = None,
           metrics: dict | None = None) -> None:
    """Compare this run's payload with ``BENCH_<experiment>.json``.

    ``runs`` is one dict per seed/configuration/series point;
    ``totals`` merges experiment-level numbers into the top level;
    ``metrics`` attaches a unified-registry snapshot (see
    :class:`repro.obs.registry.MetricsRegistry`) under a ``metrics``
    key.  Everything passed in must be a deterministic function of the
    bench's seeds (round floats) and JSON-native (lists, string keys).

    Raises ``AssertionError`` listing every differing path when the
    committed baseline has this run's ``scale`` and differs, or when a
    ``quick`` run finds no baseline at all.  With
    ``REPRO_BENCH_WRITE_BASELINE=1`` the committed file is rewritten
    instead; nothing is ever written otherwise.
    """
    __tracebackhide__ = True  # pytest: report the bench, not this frame
    payload = {"experiment": experiment, "scale": scale,
               **(totals or {}), "runs": runs}
    if metrics is not None:
        payload["metrics"] = metrics
    path = os.path.join(BENCH_DIR, f"BENCH_{experiment}.json")
    if os.environ.get("REPRO_BENCH_WRITE_BASELINE") == "1":
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return
    try:
        with open(path, encoding="utf-8") as handle:
            committed = json.load(handle)
    except FileNotFoundError:
        committed = None
    if committed is None and scale == "quick":
        raise AssertionError(f"{experiment}: no committed baseline at "
                             f"{path}{RERECORD_HINT}")
    if committed is None or committed["scale"] != scale:
        print(f"[{experiment}] not compared: no committed baseline at "
              f"scale {scale!r}")
        return
    problems = diff_payload(committed, payload, experiment)
    if problems:
        raise AssertionError("\n".join(problems) + RERECORD_HINT)
