"""Perf gate: diff a fresh benchmark run against committed baselines.

Compares every committed ``benchmarks/BENCH_<exp>.json`` against the
fresh ``benchmarks/out/BENCH_<exp>.json`` written by a plain
``pytest benchmarks/ --benchmark-only`` run (see :mod:`record`):

* **count-like fields** (messages, rows, successes, planner
  invocations, cache hits, recall, ...) must match **exactly** — the
  whole simulation is deterministic, so any drift is a real behaviour
  change and fails the gate;
* **wall-clock fields** (``wall_clock_s``) must not exceed the
  committed value by more than a tolerance band, default 40% with a
  0.02 s absolute floor — wide enough for machine noise (shared CI
  runners drift ±20% on this workload), tight enough that a real
  regression (the kind worth a perf PR) trips it.  The check is
  one-sided: a run *faster* than the band is reported as
  ``IMPROVED`` and passes — a speed-up must never fail the gate
  (re-record the baseline so the band tightens around the new wall);
* **environment fields** (``peak_rss_kb``, ``python``,
  ``wall_clock_runs_s``, ``per_shard_peak_rss_kb``) are ignored.

A baseline whose ``scale`` differs from the fresh run (e.g. the
committed full-scale E18 vs CI's quick run) is skipped — counts are
only comparable at identical scale.

Knobs (environment):

* ``REPRO_PERF_GATE_WALL_TOL`` — relative wall tolerance as a
  fraction (default ``0.40``);
* ``REPRO_PERF_GATE_WALL_FLOOR`` — absolute wall slack in seconds
  (default ``0.02``), so sub-50 ms phases aren't judged on scheduler
  jitter.

Exit status 0 when every comparable baseline passes, 1 otherwise,
with a per-field diff of everything that failed.

Shipping an intentional perf change: re-record with
``REPRO_BENCH_WRITE_BASELINE=1 pytest benchmarks/ --benchmark-only``
and commit the rewritten baselines alongside the code.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

from record import BENCH_DIR, OUT_DIR

#: fields judged with the tolerance band instead of exact equality
WALL_FIELDS = frozenset({"wall_clock_s"})

#: fields that vary with the machine/interpreter, not the code
IGNORED_FIELDS = frozenset({
    "peak_rss_kb",
    "per_shard_peak_rss_kb",
    "python",
    "wall_clock_runs_s",
})


def wall_tolerance() -> float:
    return float(os.environ.get("REPRO_PERF_GATE_WALL_TOL", "0.40"))


def wall_floor() -> float:
    return float(os.environ.get("REPRO_PERF_GATE_WALL_FLOOR", "0.02"))


def diff_payload(baseline, fresh, *, tol: float, floor: float,
                 improved: list[str], path: str = "") -> list[str]:
    """All mismatches between two recorded payloads, as readable lines.

    Dicts are compared by key (ignored fields dropped), lists
    positionally; ``wall_clock_s`` leaves may be slower by at most the
    tolerance band (one faster than the band is no mismatch and is
    appended to ``improved`` instead), every other leaf must be equal.
    """
    problems: list[str] = []
    if isinstance(baseline, dict) and isinstance(fresh, dict):
        base_keys = set(baseline) - IGNORED_FIELDS
        fresh_keys = set(fresh) - IGNORED_FIELDS
        for key in sorted(base_keys - fresh_keys):
            problems.append(f"{path}.{key}: missing from fresh run")
        for key in sorted(fresh_keys - base_keys):
            problems.append(f"{path}.{key}: not in committed baseline")
        for key in sorted(base_keys & fresh_keys):
            problems += diff_payload(baseline[key], fresh[key],
                                     tol=tol, floor=floor,
                                     improved=improved,
                                     path=f"{path}.{key}")
        return problems
    if isinstance(baseline, list) and isinstance(fresh, list):
        if len(baseline) != len(fresh):
            return [f"{path}: {len(baseline)} entries committed, "
                    f"{len(fresh)} fresh"]
        for index, (b, f) in enumerate(zip(baseline, fresh)):
            problems += diff_payload(b, f, tol=tol, floor=floor,
                                     improved=improved,
                                     path=f"{path}[{index}]")
        return problems
    leaf = path.rsplit(".", 1)[-1].split("[", 1)[0]
    if leaf in WALL_FIELDS:
        band = max(floor, tol * float(baseline))
        drift = float(fresh) - float(baseline)
        line = (f"{path}: wall {fresh}s vs committed {baseline}s "
                f"({drift:+.3f}s, band {band:.3f}s)")
        if drift > band:
            problems.append(line)
        elif drift < -band:
            improved.append(line)
    elif baseline != fresh:
        problems.append(f"{path}: {fresh!r} != committed {baseline!r}")
    return problems


def gate(baseline_dir: str = BENCH_DIR, fresh_dir: str = OUT_DIR,
         tol: float | None = None,
         floor: float | None = None) -> tuple[int, list[str]]:
    """Run the gate; returns ``(exit_status, report_lines)``."""
    tol = wall_tolerance() if tol is None else tol
    floor = wall_floor() if floor is None else floor
    lines: list[str] = []
    failed = False
    baselines = sorted(glob.glob(os.path.join(baseline_dir,
                                              "BENCH_*.json")))
    if not baselines:
        return 1, [f"perf-gate: no committed baselines in "
                   f"{baseline_dir}"]
    for base_path in baselines:
        name = os.path.basename(base_path)
        fresh_path = os.path.join(fresh_dir, name)
        with open(base_path, encoding="utf-8") as handle:
            baseline = json.load(handle)
        if not os.path.exists(fresh_path):
            failed = True
            lines.append(f"FAIL {name}: no fresh run in {fresh_dir} "
                         f"(did pytest benchmarks/ run?)")
            continue
        with open(fresh_path, encoding="utf-8") as handle:
            fresh = json.load(handle)
        if baseline.get("scale") != fresh.get("scale"):
            lines.append(f"SKIP {name}: committed at scale "
                         f"{baseline.get('scale')!r}, fresh run is "
                         f"{fresh.get('scale')!r}")
            continue
        improved: list[str] = []
        problems = diff_payload(baseline, fresh, tol=tol, floor=floor,
                                improved=improved,
                                path=name.removesuffix(".json"))
        if problems:
            failed = True
            lines.append(f"FAIL {name}: {len(problems)} mismatch(es)")
            lines += [f"  {p}" for p in problems]
        elif improved:
            lines.append(f"IMPROVED {name}: counts exact, "
                         f"{len(improved)} wall(s) faster than the "
                         f"band — re-record the baseline")
        else:
            lines.append(f"PASS {name}: counts exact, wall within "
                         f"+{tol:.0%}")
        lines += [f"  {p}" for p in improved]
    return (1 if failed else 0), lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Diff fresh benchmark results against committed "
                    "baselines.")
    parser.add_argument("--baseline-dir", default=BENCH_DIR,
                        help="committed baselines (default: "
                             "benchmarks/)")
    parser.add_argument("--fresh-dir", default=OUT_DIR,
                        help="fresh results (default: benchmarks/out/)")
    parser.add_argument("--wall-tol", type=float, default=None,
                        help="relative wall-clock tolerance, fraction "
                             "(default: REPRO_PERF_GATE_WALL_TOL or "
                             "0.40)")
    parser.add_argument("--wall-floor", type=float, default=None,
                        help="absolute wall-clock slack in seconds "
                             "(default: REPRO_PERF_GATE_WALL_FLOOR or "
                             "0.02)")
    options = parser.parse_args(argv)
    status, lines = gate(options.baseline_dir, options.fresh_dir,
                         tol=options.wall_tol, floor=options.wall_floor)
    print("\n".join(lines))
    print("perf-gate:", "FAILED" if status else "passed")
    return status


if __name__ == "__main__":
    sys.exit(main())
