"""Turning repetitions, counters and spans into named metrics.

``BENCHMARK.json`` at the repository root declares every metric the
benchmark emits, with its unit: the *end-to-end* list (host-time
numbers with a regression bound) and the *per-layer* list.  Two kinds
of number must never be mixed up, so every metric is one or the other:

**host**
    how fast the reproduction runs on this machine, in calibrated
    seconds (:mod:`perfbench.calibrate`).  Noisy; compared within a
    bound.
**simulated**
    what the modelled system did — messages, simulated latency,
    recall.  These are what the paper reports, repeat exactly at equal
    seed, and must stay bit-identical under any speed-only change.
    :data:`SIMULATED` lists them; ``compare.py`` demands equality.
"""

from __future__ import annotations

import json
import os
import statistics
from typing import Any

from perfbench.harness import GcWatch, Rep, Timed, percentile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: simulated statistics, exact at equal seed: name -> better direction
SIMULATED = {
    "sim_msgs_per_op": "lower",
    "sim_latency_p50_s": "lower",
    "sim_latency_p90_s": "lower",
    "recall": "higher",
    "failed_share": "lower",
}


def load_declaration() -> dict:
    """``BENCHMARK.json`` — the one place names, units and bounds live."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def host_metrics(setups: list[Timed], reps: list[Rep],
                 peak_rss_kb: int) -> dict[str, float]:
    """The bounded end-to-end metrics: medians over repetitions."""
    return {
        "setup_s": statistics.median(t.cal_s for t in setups),
        "ops_per_s": statistics.median(rep.ops_per_s for rep in reps),
        "op_p50_ms": statistics.median(rep.op_p50_ms for rep in reps),
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }


def host_samples(setups: list[Timed], reps: list[Rep]) -> dict[str, list]:
    """Per-repetition values, so ``compare.py`` can judge the spread
    (and raw seconds next to them, to show what calibration buys)."""
    return {
        "setup_s": [t.cal_s for t in setups],
        "ops_per_s": [rep.ops_per_s for rep in reps],
        "op_p50_ms": [rep.op_p50_ms for rep in reps],
        "raw_setup_s": [t.raw_s for t in setups],
        "raw_run_s": [rep.timed.raw_s for rep in reps],
        "spin_s": [rep.timed.spin_s for rep in reps],
    }


def simulated_metrics(rep: Rep) -> dict[str, float]:
    """The exact statistics of one repetition (the first, by rule)."""
    result, check = rep.result, rep.check
    latencies = result.sim_latencies
    failed = result.failed + check.failed
    return {
        "sim_msgs_per_op": result.sim_msgs / result.ops,
        "sim_latency_p50_s": percentile(latencies, 50) if latencies else 0.0,
        "sim_latency_p90_s": percentile(latencies, 90) if latencies else 0.0,
        "recall": check.recall,
        "failed_share": failed / result.ops,
    }


def counter_metrics(rep: Rep, setup: Timed, datagen_s: float,
                    gc_watch: GcWatch) -> dict[str, float]:
    """Layer metrics from public counters and the benchmark's clocks,
    taken on an untraced repetition."""
    result, timed = rep.result, rep.timed
    cal_run = timed.cal_s
    values: dict[str, float] = dict(result.counters)
    values.update({
        "simnet.msgs_per_s": result.messages / cal_run,
        "simnet.events_per_s": result.events / cal_run,
        "mediation.triples_per_s": result.triples / cal_run,
        "datagen.generate_s": datagen_s * setup.factor,
        "host.gc_pause_s": gc_watch.pause_s * timed.factor,
        "host.gc_gen2_collections": gc_watch.gen2,
        "host.spin_ms": timed.spin_s * 1e3,
        "host.raw_run_s": timed.raw_s,
        "host.raw_setup_s": setup.raw_s,
    })
    times = rep.cal_op_times
    if times:
        values["host.op_p95_ms"] = percentile(times, 95) * 1e3
        values["host.op_p99_ms"] = percentile(times, 99) * 1e3
    for kind, seconds in result.kind_times.items():
        if kind == "step":
            values["selforg.step_ms_p50"] = (
                statistics.median(seconds) * timed.factor * 1e3)
        else:
            values[f"mediation.{kind}_ms_per_query"] = (
                statistics.mean(seconds) * timed.factor * 1e3)
    return values


def self_seconds(totals: dict[str, tuple], prefix: str) -> float:
    """Summed self time of every span whose key starts with ``prefix``
    (``totals`` as returned by ``SpanRecorder.end_phase``)."""
    return sum(stats[2] for key, stats in totals.items()
               if key.startswith(prefix))


def calls(totals: dict[str, tuple], prefix: str) -> int:
    """Summed call count of every span whose key starts with ``prefix``."""
    return sum(stats[0] for key, stats in totals.items()
               if key.startswith(prefix))


def span_metrics(setup_totals: dict[str, tuple], setup: Timed,
                 run_totals: dict[str, tuple],
                 run: Timed) -> dict[str, float]:
    """Layer metrics from the traced repetition's span self times."""

    def self_s(prefix: str) -> float:
        return self_seconds(run_totals, prefix) * run.factor

    match_calls = calls(run_totals, "storage.match")
    match_rows = sum(stats[3] for key, stats in run_totals.items()
                     if key == "storage.match")
    return {
        "simnet.loop_self_s": self_s("simnet.loop."),
        "simnet.send_self_s": (self_s("simnet.send")
                               + self_s("simnet.shard.send")),
        "simnet.send_calls": (calls(run_totals, "simnet.send")
                              + calls(run_totals, "simnet.shard.send")),
        "simnet.shard_self_s": (self_s("simnet.shard.")
                                - self_s("simnet.shard.send")),
        "pgrid.build_s": (self_seconds(setup_totals, "pgrid.build.")
                          * setup.factor),
        "pgrid.handler_self_s": self_s("pgrid.handler:"),
        "pgrid.handler_calls": calls(run_totals, "pgrid.handler:"),
        "pgrid.local_merge_calls": calls(run_totals, "pgrid.local_merge"),
        "pgrid.local_merge_self_s": self_s("pgrid.local_merge"),
        "pgrid.scaleout_self_s": self_s("pgrid.scaleout."),
        "storage.add_calls": calls(run_totals, "storage.add"),
        "storage.add_self_s": self_s("storage.add"),
        "storage.match_calls": match_calls,
        "storage.match_self_s": self_s("storage.match"),
        "storage.rows_per_match": match_rows / max(1, match_calls),
        "reformulation.plan_calls": calls(run_totals, "reformulation."),
        "reformulation.plan_self_s": self_s("reformulation."),
        "mapping.graph_self_s": self_s("mapping."),
        "exec.plan_self_s": self_s("exec."),
        "engine.batch_self_s": self_s("engine."),
        "mediation.facade_self_s": self_s("mediation.facade."),
        "mediation.handler_self_s": self_s("mediation.handler:"),
        "selforg.self_s": self_s("selforg.") + self_s("connectivity."),
        "resilience.scenario_self_s": self_s("resilience."),
    }


def filled(declared: list[dict], values: dict[str, float]) -> dict[str, Any]:
    """``values`` for every declared metric, in the result-line shape.

    A layer metric a workload has nothing to say about reads 0: the
    layer did no work there (or that probe does not run on it).
    """
    unknown = set(values) - {metric["name"] for metric in declared}
    if unknown:
        raise KeyError(f"undeclared metric(s): {sorted(unknown)}")
    return {
        metric["name"]: {"value": values.get(metric["name"], 0.0),
                         "unit": metric["unit"]}
        for metric in declared
    }
