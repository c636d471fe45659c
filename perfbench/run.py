#!/usr/bin/env python3
"""perfbench: the one command that measures this repository.

    python3 perfbench/run.py [--workload W] [--seed S] [--seconds N]
                             [--trace [0|1]] [--smoke] [--out PATH]

(or ``PYTHONPATH=src python -m perfbench.run ...``).  Every workload
runs in its own subprocess with ``PYTHONHASHSEED=0``, the cyclic GC on,
one client and no threads.  The subprocess builds its inputs from
``--seed``, measures for about ``--seconds`` seconds, checks the
outputs against ground truth, prints every metric by name with its
unit, and ends with one JSON line::

    {"correct": true, "attempted": 18000, "failed": 0, "metrics": {...}}

``--trace 0`` (default) reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` re-runs one repetition with the
benchmark-side spans of :mod:`perfbench.spans` installed, adds the
layer probes, reports every per-layer metric and writes the spans to
``perfbench/out/trace_<workload>.jsonl``.  Without ``--workload`` all
eight run in turn.  The exit code is non-zero when a check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

#: the driver allows a run 180 s; give up a little earlier than that
CHILD_TIMEOUT_S = 170


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring window (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, two repetitions (for tests)")
    parser.add_argument("--out", help="write the full result as JSON")
    parser.add_argument("--hashseed", default="0", help=argparse.SUPPRESS)
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Parent: one subprocess per workload
# ----------------------------------------------------------------------

def parent(args: argparse.Namespace) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declaration = json.load(fh)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no program to measure (src/repro is missing)",
              file=sys.stderr)
        return 2
    names = [workload["name"] for workload in declaration["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            print(f"perfbench: unknown workload {args.workload!r}; "
                  f"choose from {', '.join(names)}", file=sys.stderr)
            return 2
        names = [args.workload]
    seconds = (args.seconds if args.seconds is not None
               else declaration["run_seconds"])
    env = dict(os.environ, PYTHONHASHSEED=args.hashseed)
    records = {}
    status = 0
    for name in names:
        command = [sys.executable, os.path.join(HERE, "run.py"), "--child",
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
        if args.smoke:
            command.append("--smoke")
        record_path = None
        if args.out:
            os.makedirs(OUT_DIR, exist_ok=True)
            record_path = os.path.join(OUT_DIR, f".record_{name}.json")
            command += ["--out", record_path]
        sys.stdout.flush()
        try:
            code = subprocess.run(command, env=env, cwd=ROOT,
                                  timeout=CHILD_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            # subprocess.run has killed and reaped the child already
            print(f"perfbench: {name} exceeded {CHILD_TIMEOUT_S} s",
                  file=sys.stderr)
            code = 3
        status = status or code
        if record_path and os.path.exists(record_path):
            with open(record_path, encoding="utf-8") as fh:
                records[name] = json.load(fh)
            os.remove(record_path)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed, "seconds": seconds,
                       "trace": args.trace, "smoke": args.smoke,
                       "workloads": records}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return status


# ----------------------------------------------------------------------
# Child: measure one workload in this process
# ----------------------------------------------------------------------

def child(args: argparse.Namespace) -> int:
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    import resource

    from perfbench import metrics
    from perfbench.harness import measure
    from perfbench.workloads import WORKLOADS

    declaration = metrics.load_declaration()
    workload = WORKLOADS[args.workload](smoke=args.smoke)
    fixed_reps = 2 if args.smoke else None
    record = {"workload": workload.name, "seed": args.seed,
              "trace": args.trace, "smoke": args.smoke}

    if args.trace:
        reps, values, errors = traced(workload, args)
        declared = declaration["per_layer"]
        title = "per-layer metrics (untraced repetition, traced " \
                "repetition [T], probes [P])"
    else:
        setups, reps = measure(workload, args.seed, args.seconds,
                               fixed_reps)
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = metrics.host_metrics(setups, reps, peak_rss_kb)
        errors = []
        declared = declaration["end_to_end"]
        title = "end-to-end metrics (host time in calibrated units; " \
                "medians over repetitions)"
        record["samples"] = metrics.host_samples(setups, reps)
        record["setups"] = len(setups)
    simulated = metrics.simulated_metrics(reps[0])
    values.update(simulated)

    attempted = sum(rep.result.ops for rep in reps)
    failed = sum(rep.result.failed + rep.check.failed for rep in reps)
    errors += [error for rep in reps for error in rep.check.errors]
    correct = failed == 0 and not errors
    names = {metric["name"] for metric in declared}
    line = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics.filled(
            declared, {k: v for k, v in values.items() if k in names}),
    }

    print(f"perfbench {workload.name}  seed={args.seed}  "
          f"repetitions={len(reps)}  trace={args.trace}"
          f"{'  (smoke sizes)' if args.smoke else ''}")
    print(f"  {title}")
    for name, entry in line["metrics"].items():
        print(f"    {name:<36} {entry['value']:>16.6g} {entry['unit']}")
    if not args.trace:
        print("  simulated statistics (exact at equal seed; first "
              "repetition)")
        for name, value in simulated.items():
            print(f"    {name:<36} {value:>16.6g}")
    print(f"  checks: {attempted} op(s) attempted, {failed} failed"
          f"{'' if correct else '  ** INCORRECT **'}")
    for error in errors[:10]:
        print(f"    ! {error}")

    values.update({name: entry["value"]
                   for name, entry in line["metrics"].items()})
    record.update(correct=correct, attempted=attempted, failed=failed,
                  errors=errors[:20], repetitions=len(reps),
                  metrics=dict(sorted(values.items())))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps(line))
    return 0 if correct else 1


def traced(workload, args: argparse.Namespace) -> tuple:
    """One untraced and one traced repetition plus the layer probes.

    Returns ``(reps, per-layer values, errors)``.  The traced
    repetition must reproduce the untraced one's simulated statistics
    exactly — spans observe, they must not perturb.
    """
    from perfbench import metrics
    from perfbench.harness import GcWatch, timed_rep, timed_setup
    from perfbench.probes import run_probes
    from perfbench.spans import SpanRecorder

    seed = args.seed
    # probes first, while the heap is small: a collection triggered
    # inside a probe costs in proportion to whatever else is alive
    values = run_probes(seed, smoke=args.smoke)
    state, setup = timed_setup(workload, seed)
    gc_watch = GcWatch()
    plain = timed_rep(workload, state, around_run=gc_watch)
    values.update(metrics.counter_metrics(plain, setup, state.datagen_s,
                                          gc_watch))
    values.update(workload.ratio_probe(state))
    state = None

    recorder = SpanRecorder()
    recorder.install()
    try:
        workload.recorder = recorder
        state, traced_setup = timed_setup(workload, seed)
        setup_totals = recorder.end_phase()
        run_totals: dict = {}

        @contextlib.contextmanager
        def run_spans():
            recorder.clear_spans()  # the trace file holds the run only
            yield
            run_totals.update(recorder.end_phase())

        spanned = timed_rep(workload, state, around_run=run_spans())
    finally:
        workload.recorder = None
        recorder.uninstall()
    state = None
    values.update(metrics.span_metrics(setup_totals, traced_setup,
                                       run_totals, spanned.timed))
    values["host.span_overhead_ratio"] = (spanned.timed.cal_s
                                          / plain.timed.cal_s)
    os.makedirs(OUT_DIR, exist_ok=True)
    recorder.write_jsonl(
        os.path.join(OUT_DIR, f"trace_{workload.name}.jsonl"))

    errors = []
    if (metrics.simulated_metrics(spanned)
            != metrics.simulated_metrics(plain)):
        errors.append("traced repetition's simulated statistics differ "
                      "from the untraced repetition's")
    return [plain, spanned], values, errors


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    return child(args) if args.child else parent(args)


if __name__ == "__main__":
    sys.exit(main())
