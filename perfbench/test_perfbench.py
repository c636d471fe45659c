"""Tests of the benchmark itself.

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` (not part of
the tier-1 ``testpaths``).  Every workload runs at ``--smoke`` size in a
few seconds; what is pinned here is the *contract*: which metrics come
out, that simulated statistics are exact, that spans add up, that
``compare.py`` judges as documented, and which ``repro`` names the
benchmark is allowed to touch.
"""

from __future__ import annotations

import ast
import copy
import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

from perfbench.metrics import SIMULATED

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    DECLARATION = json.load(_fh)
WORKLOAD_NAMES = [w["name"] for w in DECLARATION["workloads"]]


def run_suite(tmp_path_factory, *extra: str) -> dict:
    """All workloads at smoke size; returns the parsed ``--out`` file."""
    out = tmp_path_factory.mktemp("perfbench") / "result.json"
    proc = subprocess.run(
        [sys.executable, RUN, "--smoke", "--seed", "5", "--out", str(out),
         *extra],
        capture_output=True, text=True, timeout=600, cwd=ROOT)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    with open(out, encoding="utf-8") as handle:
        document = json.load(handle)
    document["stdout"] = proc.stdout
    return document


@pytest.fixture(scope="module")
def untraced(tmp_path_factory) -> dict:
    return run_suite(tmp_path_factory)


@pytest.fixture(scope="module")
def traced(tmp_path_factory) -> dict:
    return run_suite(tmp_path_factory, "--trace", "1")


def result_lines(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines()
            if line.startswith('{"correct"')]


# ----------------------------------------------------------------------
# The declaration file
# ----------------------------------------------------------------------

def test_benchmark_json_meets_the_contract():
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
    assert set(DECLARATION) == {"command", "paths", "run_seconds",
                                "workloads", "end_to_end", "per_layer"}
    assert DECLARATION["paths"] == ["perfbench"]
    assert DECLARATION["command"] == ["python3", "perfbench/run.py"]
    assert isinstance(DECLARATION["run_seconds"], int)
    assert 1 <= DECLARATION["run_seconds"] <= 60
    assert 2 <= len(DECLARATION["workloads"]) <= 8
    assert 1 <= len(DECLARATION["end_to_end"]) <= 16
    assert 1 <= len(DECLARATION["per_layer"]) <= 128
    names = []
    for workload in DECLARATION["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in DECLARATION["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in DECLARATION["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in DECLARATION["end_to_end"] + DECLARATION["per_layer"]:
        assert unit_re.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    assert all(name_re.match(name) for name in names)
    assert len(names) == len(set(names))
    setup = [m for m in DECLARATION["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s"
    assert setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"]
                                    for m in DECLARATION["end_to_end"])
    # the driver's budget: 4 + 22 x workloads runs within 3420 s
    runs = 4 + 22 * len(WORKLOAD_NAMES)
    assert runs * (DECLARATION["run_seconds"] + 6) <= 3420
    size = os.path.getsize(os.path.join(ROOT, "BENCHMARK.json"))
    assert size <= 64 * 1024


def test_declared_workloads_are_the_implemented_ones():
    from perfbench.workloads import WORKLOADS
    assert list(WORKLOADS) == WORKLOAD_NAMES


# ----------------------------------------------------------------------
# Smoke runs: metrics, correctness, exactness
# ----------------------------------------------------------------------

def test_untraced_run_emits_every_end_to_end_metric(untraced):
    lines = result_lines(untraced["stdout"])
    assert len(lines) == len(WORKLOAD_NAMES)
    declared = {m["name"]: m["unit"] for m in DECLARATION["end_to_end"]}
    for name, line in zip(WORKLOAD_NAMES, lines):
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0, name
        assert line["attempted"] >= 1
        assert set(line["metrics"]) == set(declared), name
        for metric, entry in line["metrics"].items():
            assert entry["unit"] == declared[metric]
            assert entry["value"] > 0, (name, metric)
        record = untraced["workloads"][name]
        for metric in SIMULATED:
            assert metric in record["metrics"], (name, metric)
        assert record["metrics"]["failed_share"] == 0
        assert 0 < record["metrics"]["recall"] <= 1
        # every name is printed with its unit
        for metric, unit in declared.items():
            assert re.search(rf"{re.escape(metric)}\s+\S+ {re.escape(unit)}",
                             untraced["stdout"])


def test_traced_run_emits_every_per_layer_metric(traced):
    lines = result_lines(traced["stdout"])
    declared = {m["name"] for m in DECLARATION["per_layer"]}
    assert len(lines) == len(WORKLOAD_NAMES)
    for name, line in zip(WORKLOAD_NAMES, lines):
        assert line["correct"] is True, name
        assert set(line["metrics"]) == declared, name
        assert all(isinstance(entry["value"], (int, float))
                   for entry in line["metrics"].values())
    # each layer metric is non-zero on at least one workload: nothing
    # declared is dead (bar counts of events too rare for smoke sizes)
    rare = {"failed_share", "pgrid.gave_up", "selforg.mappings_deprecated",
            "host.gc_gen2_collections"}
    for metric in declared - rare:
        assert any(line["metrics"][metric]["value"] != 0 for line in lines), \
            metric


def simulated_of(document: dict) -> dict:
    return {name: {metric: record["metrics"][metric] for metric in SIMULATED}
            for name, record in document["workloads"].items()}


def test_simulated_statistics_are_exact(untraced, traced, tmp_path_factory):
    again = run_suite(tmp_path_factory)
    other_hashes = run_suite(tmp_path_factory, "--hashseed", "1")
    expected = simulated_of(untraced)
    assert simulated_of(again) == expected
    assert simulated_of(other_hashes) == expected
    # the traced invocation checks traced == untraced repetition itself
    # (it reports incorrect otherwise); across invocations too:
    assert simulated_of(traced) == expected


def test_layer_predictions_hold_at_smoke_size(traced):
    """The bypass claims of the README, on counters that repeat."""
    layers = {name: record["metrics"]
              for name, record in traced["workloads"].items()}
    # planner runs on selforg only; engine_batch is all cache hits
    assert layers["engine_batch"]["engine.cache_hit_rate"] == 1.0
    assert layers["engine_batch"]["engine.planner_invocations"] == 0
    assert layers["selforg"]["engine.plans_invalidated"] > 0
    for name in ("lookup", "route", "route_sharded", "publish"):
        assert layers[name]["reformulation.per_query"] == 0
        assert layers[name]["mapping.graph_self_s"] == 0
    assert layers["reformulate"]["reformulation.per_query"] > 0
    # storage: writes on publish, reads on lookup, neither on route
    assert layers["publish"]["storage.add_calls"] > 0
    assert layers["lookup"]["storage.match_calls"] > 0
    assert layers["route"]["storage.add_calls"] == 0
    assert layers["route"]["storage.match_calls"] == 0
    # replica merge and failover only under churn
    assert layers["churn"]["pgrid.local_merge_calls"] > 0
    assert layers["churn"]["mediation.bg_msgs_share"] > 0.5
    assert layers["route"]["pgrid.local_merge_calls"] == 0
    # the sharded gate is used by route_sharded alone
    assert layers["route_sharded"]["simnet.shard_self_s"] > 0
    assert layers["route"]["simnet.shard_self_s"] == 0
    assert layers["route_sharded"]["simnet.shard_process_ratio"] > 0
    assert layers["lookup"]["faultlab.idle_injector_ratio"] > 0
    assert layers["reformulate"]["obs.tracer_overhead_ratio"] > 0


def test_span_self_times_fit_inside_the_run(traced):
    from perfbench.calibrate import CAL_REF_S
    for name, record in traced["workloads"].items():
        metrics = record["metrics"]
        plain_s = (metrics["host.raw_run_s"] * CAL_REF_S
                   / (metrics["host.spin_ms"] / 1e3))
        traced_s = plain_s * metrics["host.span_overhead_ratio"]
        self_s = sum(value for metric, value in metrics.items()
                     if metric.endswith("_self_s"))
        assert 0 < self_s <= traced_s * 1.001, name


def test_trace_files_hold_well_formed_spans(traced):
    for name in WORKLOAD_NAMES:
        path = os.path.join(HERE, "out", f"trace_{name}.jsonl")
        with open(path, encoding="utf-8") as handle:
            spans = [json.loads(line) for line in handle]
        assert spans, name
        ids = {span["id"] for span in spans}
        for span in spans:
            assert set(span) == {"id", "parent", "name", "layer", "start",
                                 "end", "op"}
            assert span["end"] >= span["start"]
            assert span["parent"] == -1 or span["parent"] in ids


# ----------------------------------------------------------------------
# spans.py on a toy
# ----------------------------------------------------------------------

def test_span_self_times_add_up_to_the_root():
    from perfbench.spans import SpanRecorder
    recorder = SpanRecorder()

    def leaf():
        time.sleep(0.002)

    leaf_w = recorder.wrap(leaf, "leaf", "toy")

    def middle():
        leaf_w()
        leaf_w()
        time.sleep(0.001)

    middle_w = recorder.wrap(middle, "middle", "toy")

    def root():
        middle_w()
        leaf_w()

    root_w = recorder.wrap(root, "root", "toy")
    root_w()
    totals = recorder.end_phase()
    assert totals["toy.leaf"][0] == 3 and totals["toy.middle"][0] == 1
    self_sum = sum(stats[2] for stats in totals.values())
    assert self_sum == pytest.approx(totals["toy.root"][1], rel=1e-9)
    assert totals["toy.middle"][2] < totals["toy.middle"][1]
    by_name = {span[2]: span for span in recorder.spans}
    assert by_name["root"][1] == -1
    assert by_name["middle"][1] == by_name["root"][0]
    assert recorder.end_phase() == {}  # reset in place


def test_span_install_is_undone_by_uninstall():
    from perfbench.api import SPAN_TARGETS
    from perfbench.spans import SpanRecorder, resolve_target
    before = [resolve_target(path)[2] for _n, _l, path in SPAN_TARGETS]
    recorder = SpanRecorder()
    recorder.install()
    try:
        during = [resolve_target(path)[2] for _n, _l, path in SPAN_TARGETS]
        assert all(a is not b for a, b in zip(before, during))
    finally:
        recorder.uninstall()
    after = [resolve_target(path)[2] for _n, _l, path in SPAN_TARGETS]
    assert all(a is b for a, b in zip(before, after))


# ----------------------------------------------------------------------
# compare.py
# ----------------------------------------------------------------------

def synthetic_result(path, scale: float = 1.0, failed_share: float = 0.0,
                     jitter: float = 0.01) -> str:
    samples = [1 - jitter, 1.0, 1.0, 1 + jitter]
    record = {
        "workload": "lookup", "seed": 11, "trace": 0,
        "metrics": {"setup_s": 1.0, "ops_per_s": 1000.0 / scale,
                    "op_p50_ms": 1.0 * scale, "peak_rss_mb": 50.0,
                    "sim_msgs_per_op": 4.5, "sim_latency_p50_s": 1.2,
                    "sim_latency_p90_s": 8.0, "recall": 1.0,
                    "failed_share": failed_share},
        "samples": {"setup_s": samples,
                    "ops_per_s": [1000.0 / scale * s for s in samples],
                    "op_p50_ms": [scale * s for s in samples]},
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return str(path)


def test_compare_passes_self_and_flags_a_slowdown(tmp_path, capsys):
    from perfbench import compare
    base = synthetic_result(tmp_path / "a.json")
    assert compare.main([base, base]) == 0
    assert "0 metric(s) worse" in capsys.readouterr().out

    bound = {m["name"]: m["bound"] for m in DECLARATION["end_to_end"]}
    # a slowdown is judged against the declared bound, in ops_per_s terms
    inside = 1 / (1 - bound["ops_per_s"] / 2)
    beyond = 1 / (1 - bound["ops_per_s"] - 0.1)
    tolerable = synthetic_result(tmp_path / "tolerable.json", scale=inside)
    assert compare.main([base, tolerable]) == 0
    capsys.readouterr()

    slow = synthetic_result(tmp_path / "slow.json", scale=beyond)
    assert compare.main([base, slow]) == 1
    out = capsys.readouterr().out
    assert re.search(r"ops_per_s .* worse", out)
    assert re.search(r"op_p50_ms .* worse", out)
    assert re.search(r"setup_s .* ok", out)

    failing = synthetic_result(tmp_path / "fail.json", failed_share=0.01)
    assert compare.main([base, failing]) == 1
    assert re.search(r"failed_share .* worse", capsys.readouterr().out)

    noisy = synthetic_result(tmp_path / "noisy.json", scale=beyond,
                             jitter=0.3)
    assert compare.main([base, noisy]) == 0
    assert re.search(r"ops_per_s .* unresolved", capsys.readouterr().out)


def test_compare_self_comparison_of_a_real_run(untraced, tmp_path):
    path = tmp_path / "real.json"
    document = copy.deepcopy(untraced)
    document.pop("stdout")
    path.write_text(json.dumps(document), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "compare.py"), str(path),
         str(path)], capture_output=True, text=True, cwd=ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("\n") >= 9 * len(WORKLOAD_NAMES)


# ----------------------------------------------------------------------
# What the benchmark may touch
# ----------------------------------------------------------------------

#: the ``repro`` import surface; extend deliberately, never by accident
ALLOWED_IMPORTS = {
    "repro": {"ConjunctiveQuery", "GridVineNetwork", "TriplePattern",
              "Variable", "parse_search_for"},
    "repro.connectivity.indicator": {"indicator_from_degrees"},
    "repro.datagen": {"BioDatasetGenerator", "QueryWorkloadGenerator"},
    "repro.engine.cache": {"PlanCache"},
    "repro.engine.versioning": {"MappingVersionClock"},
    "repro.exec": {"Batch", "join_batches"},
    "repro.faultlab": {"FaultPlan", "MessageDrop"},
    "repro.faultlab.injector": {"install_plan"},
    "repro.mapping.graph": {"MappingGraph"},
    "repro.mapping.unfolding": {"translate_query"},
    "repro.pgrid.overlay": {"PGridOverlay"},
    "repro.pgrid.scaleout": {"ScaleoutSpec", "build_deployment",
                             "run_inprocess", "run_sharded"},
    "repro.reformulation.planner": {"plan_reformulations"},
    "repro.resilience.scenario": {"ScenarioRunner", "ScenarioSpec",
                                  "recall_hits"},
    "repro.selforg": {"CreationPolicy", "SelfOrganizationController",
                      "assess_mapping_quality", "match_attributes"},
    "repro.simnet": {"EventLoop", "LogNormalWANLatency", "Node",
                     "SimNetwork"},
    "repro.storage.triplestore": {"TripleStore"},
    "repro.util.hashing": {"uniform_hash"},
}


def repro_imports(path: str) -> dict[str, set[str]]:
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    found: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
                node.module == "repro" or node.module.startswith("repro.")):
            found.setdefault(node.module, set()).update(
                alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    found.setdefault(alias.name, set())
    return found


def test_import_allowlist():
    for filename in sorted(os.listdir(HERE)):
        if not filename.endswith(".py"):
            continue
        found = repro_imports(os.path.join(HERE, filename))
        if filename == "api.py":
            assert found == ALLOWED_IMPORTS
        else:
            assert found == {}, f"{filename} must import via perfbench.api"


def test_span_targets_resolve():
    from perfbench.api import SPAN_TARGETS
    from perfbench.spans import resolve_target
    keys = [(layer, name) for name, layer, _path in SPAN_TARGETS]
    assert len(keys) == len(set(keys))
    for _name, _layer, path in SPAN_TARGETS:
        assert path.startswith("repro."), path
        owner, attribute, raw = resolve_target(path)
        assert callable(getattr(owner, attribute)), path
        assert not attribute.startswith("_"), f"{path} is not public"


def test_calibration_kernel_is_self_contained():
    with open(os.path.join(HERE, "calibrate.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)}
    assert imported == {"__future__", "gc", "heapq", "time"}
    from perfbench.calibrate import spin
    assert 0.001 < spin() < 1.0


# ----------------------------------------------------------------------
# The driver's bare-directory run
# ----------------------------------------------------------------------

def test_run_fails_cleanly_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and perfbench/ the
    run must exit non-zero without printing a result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lookup",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
