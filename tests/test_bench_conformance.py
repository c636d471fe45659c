"""Count conformance of the experiment benchmarks.

``benchmarks/record.py::record`` is the one place a bench run meets
its committed ``BENCH_<exp>.json``: exact comparison at equal scale,
rewrite only on request.  These tests drive it against temp
directories, and pin that every experiment the CLI lists has a
committed baseline at the scale CI runs.
"""

import importlib.util
import json
import os

import pytest

from repro.cli import _EXPERIMENTS

BENCHMARKS = os.path.join(os.path.dirname(__file__), os.pardir,
                          "benchmarks")


def _load_record_module():
    # By path: putting benchmarks/ on sys.path would shadow this
    # suite's ``conftest``.
    spec = importlib.util.spec_from_file_location(
        "bench_record", os.path.join(BENCHMARKS, "record.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_record = _load_record_module()


def e14_runs(total_messages=12016):
    return [{"seed": 3, "mode": "failover", "total_messages": 11000},
            {"seed": 3, "mode": "baseline",
             "total_messages": total_messages}]


@pytest.fixture
def bench_dir(tmp_path, monkeypatch):
    """A temp baseline directory holding a recorded ``quick`` E14."""
    monkeypatch.setattr(bench_record, "BENCH_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_BENCH_WRITE_BASELINE", "1")
    bench_record.record("E14", scale="quick", runs=e14_runs(),
                        totals={"seeds": 1})
    monkeypatch.delenv("REPRO_BENCH_WRITE_BASELINE")
    return tmp_path


def snapshot(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def keys_of(payload):
    if isinstance(payload, dict):
        for key, value in payload.items():
            yield key
            yield from keys_of(value)
    elif isinstance(payload, list):
        for value in payload:
            yield from keys_of(value)


class TestRecord:
    def test_equal_payload_passes_and_writes_nothing(self, bench_dir):
        before = snapshot(bench_dir)
        bench_record.record("E14", scale="quick", runs=e14_runs(),
                            totals={"seeds": 1})
        assert snapshot(bench_dir) == before
        assert list(before) == ["BENCH_E14.json"]

    def test_changed_count_fails_with_one_path_line(self, bench_dir):
        before = snapshot(bench_dir)
        with pytest.raises(AssertionError) as failure:
            bench_record.record("E14", scale="quick",
                                runs=e14_runs(12017),
                                totals={"seeds": 1})
        lines = str(failure.value).splitlines()
        assert lines[0] == ("E14.runs[1].total_messages: "
                            "12017 != committed 12016")
        assert all("!=" not in line for line in lines[1:])
        assert "REPRO_BENCH_WRITE_BASELINE=1" in lines[-1]
        assert snapshot(bench_dir) == before

    def test_missing_and_extra_keys_are_reported_by_path(self, bench_dir):
        runs = e14_runs()
        del runs[0]["seed"]
        runs[1]["failovers"] = 4
        with pytest.raises(AssertionError) as failure:
            bench_record.record("E14", scale="quick", runs=runs)
        message = str(failure.value)
        assert "E14.seeds: missing from this run" in message
        assert "E14.runs[0].seed: missing from this run" in message
        assert ("E14.runs[1].failovers: not in committed baseline"
                in message)

    def test_series_length_change_is_one_line(self, bench_dir):
        with pytest.raises(AssertionError) as failure:
            bench_record.record("E14", scale="quick",
                                runs=e14_runs()[:1],
                                totals={"seeds": 1})
        assert ("E14.runs: 1 entries != committed 2"
                in str(failure.value))

    def test_other_scale_is_not_compared(self, bench_dir, capsys):
        before = snapshot(bench_dir)
        for scale in ("full", "5000-peers"):
            bench_record.record("E14", scale=scale, runs=e14_runs(1))
            assert "[E14] not compared" in capsys.readouterr().out
        assert snapshot(bench_dir) == before

    def test_no_baseline_fails_at_quick_only(self, bench_dir, capsys):
        with pytest.raises(AssertionError, match="no committed baseline"):
            bench_record.record("E99", scale="quick", runs=[])
        bench_record.record("E99", scale="full", runs=[])
        assert "[E99] not compared" in capsys.readouterr().out
        assert list(snapshot(bench_dir)) == ["BENCH_E14.json"]

    def test_baseline_is_rewritten_only_on_request(self, bench_dir,
                                                   monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_WRITE_BASELINE", "1")
        bench_record.record("E14", scale="quick", runs=e14_runs(12017))
        with open(bench_dir / "BENCH_E14.json", encoding="utf-8") as f:
            assert json.load(f) == {
                "experiment": "E14", "scale": "quick",
                "runs": e14_runs(12017)}


class TestCommittedBaselines:
    def test_every_listed_experiment_is_pinned_at_quick(self):
        # A new experiment cannot land unpinned, and no baseline may
        # carry a host-dependent quantity.
        for exp_id, _title, _module in _EXPERIMENTS:
            path = os.path.join(BENCHMARKS, f"BENCH_{exp_id}.json")
            with open(path, encoding="utf-8") as handle:
                baseline = json.load(handle)
            assert baseline["experiment"] == exp_id
            assert baseline["scale"] == "quick", path
            assert baseline["runs"], path
            assert not [key for key in keys_of(baseline)
                        if any(word in key
                               for word in ("wall", "python", "rss"))]
