#!/usr/bin/env python3
"""Compare two perfbench results: ``compare.py A.json B.json``.

``A`` is the baseline, ``B`` the candidate; both are files written by
``run.py --out``.  One row is printed per workload and metric:

``ok``
    B is no worse than A by more than the metric's bound.
``worse``
    B is worse than A by more than the bound — or, for a simulated
    statistic, differs from A in the worse direction at all.
``changed``
    a simulated statistic differs in the better direction: the
    modelled system changed, which no speed-only change may do.
``unresolved``
    the repetitions inside A or B spread (inter-quartile range over
    median) wider than the bound — or are fewer than three, as for
    ``setup_s`` of a deployment built once per run — so the pair cannot
    be judged; also simulated statistics of runs with different seeds.

Bounds and directions of the host metrics come from ``BENCHMARK.json``;
simulated statistics (:data:`perfbench.metrics.SIMULATED`) are exact at
equal seed.  The exit code is 1 when any row is ``worse`` (which
includes a higher ``failed_share``), else 0.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.metrics import SIMULATED, load_declaration  # noqa: E402


def load(path: str) -> dict[str, dict]:
    """``{workload: record}`` from a full or single-workload file."""
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    if "workloads" in document:
        return document["workloads"]
    return {document["workload"]: document}


def spread(samples: list[float] | None) -> float:
    """Inter-quartile range over median of a run's repetitions.

    ``None`` (a metric with one value per process, like peak RSS) has no
    spread to judge; one or two samples have a spread nobody can know,
    reported as infinite.
    """
    if samples is None:
        return 0.0
    if len(samples) < 3:
        return float("inf")
    low, _mid, high = statistics.quantiles(samples, n=4)
    return (high - low) / statistics.median(samples)


def judge_host(metric: dict, base: dict, cand: dict) -> tuple[float, str]:
    """``(relative worsening, status)`` for one bounded metric."""
    name, bound = metric["name"], metric["bound"]
    old, new = base["metrics"][name], cand["metrics"][name]
    worsening = ((new - old) if metric["better"] == "lower"
                 else (old - new)) / old
    widest = max(spread(base.get("samples", {}).get(name)),
                 spread(cand.get("samples", {}).get(name)))
    if widest > bound:
        return worsening, "unresolved"
    return worsening, "worse" if worsening > bound else "ok"


def judge_simulated(name: str, base: dict, cand: dict) -> str:
    old, new = base["metrics"][name], cand["metrics"][name]
    if base["seed"] != cand["seed"]:
        return "unresolved"
    if old == new:
        return "ok"
    got_worse = new > old if SIMULATED[name] == "lower" else new < old
    return "worse" if got_worse else "changed"


def compare(base_path: str, cand_path: str) -> int:
    declaration = load_declaration()
    declared = declaration["end_to_end"]
    base, cand = load(base_path), load(cand_path)
    worse = 0
    print(f"{'workload':<14} {'metric':<18} {'A':>12} {'B':>12} "
          f"{'worse by':>9} {'bound':>6}  status")
    for workload in (w["name"] for w in declaration["workloads"]):
        if workload not in base:
            continue
        if workload not in cand:
            print(f"{workload:<14} (missing from B)")
            continue
        old, new = base[workload], cand[workload]
        if old.get("trace") or new.get("trace"):
            print(f"{workload:<14} (traced run: not comparable)")
            continue
        for metric in declared:
            name = metric["name"]
            worsening, status = judge_host(metric, old, new)
            worse += status == "worse"
            print(f"{workload:<14} {name:<18} {old['metrics'][name]:>12.5g} "
                  f"{new['metrics'][name]:>12.5g} {worsening:>+9.1%} "
                  f"{metric['bound']:>6.0%}  {status}")
        for name in SIMULATED:
            status = judge_simulated(name, old, new)
            worse += status == "worse"
            print(f"{workload:<14} {name:<18} {old['metrics'][name]:>12.5g} "
                  f"{new['metrics'][name]:>12.5g} {'':>9} {'exact':>6}  "
                  f"{status}")
    print(f"{worse} metric(s) worse")
    return 1 if worse else 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    return compare(*argv)


if __name__ == "__main__":
    sys.exit(main())
