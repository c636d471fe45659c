"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.peers == 100
        assert args.rounds == 8

    def test_query_strategy_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["query", "SearchFor(x? : (x?, A#p, %v%))",
                 "--strategy", "telepathic"])

    def test_auto_strategy_accepted(self):
        args = build_parser().parse_args(
            ["query", "SearchFor(x? : (x?, A#p, %v%))",
             "--strategy", "auto"])
        assert args.strategy == "auto"
        args = build_parser().parse_args(["scenario", "--strategy",
                                          "auto"])
        assert args.strategy == "auto"

    def test_max_hops_flag(self):
        args = build_parser().parse_args(
            ["query", "SearchFor(x? : (x?, A#p, %v%))"])
        assert args.max_hops == 8  # the historical hardcoded depth
        args = build_parser().parse_args(
            ["query", "SearchFor(x? : (x?, A#p, %v%))",
             "--max-hops", "3"])
        assert args.max_hops == 3
        assert build_parser().parse_args(
            ["scenario", "--max-hops", "4"]).max_hops == 4
        assert build_parser().parse_args(
            ["batch", "--max-hops", "4"]).max_hops == 4


class TestDeployArguments:
    """``demo`` / ``query`` / ``batch`` / ``stats`` refuse a deployment
    they cannot build while parsing, naming the flag, instead of
    failing with a traceback from the overlay or the generator."""

    LEADING = {"demo": [], "query": ["SearchFor(x? : (x?, A#p, %v%))"],
               "batch": [], "stats": []}

    @pytest.mark.parametrize("flag,value,floor", [
        ("--peers", "0", 1), ("--schemas", "0", 1),
        ("--entities", "4", 5), ("--rounds", "-1", 0)])
    @pytest.mark.parametrize("command", ["demo", "query", "batch", "stats"])
    def test_out_of_range_exits_2_naming_the_flag(
            self, capsys, command, flag, value, floor):
        with pytest.raises(SystemExit) as exited:
            main([command, *self.LEADING[command], flag, value])
        assert exited.value.code == 2
        assert (f"argument {flag}: must be >= {floor}, got {value}"
                in capsys.readouterr().err)

    def test_non_integer_keeps_the_argparse_wording(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["batch", "--peers", "many"])
        assert exited.value.code == 2
        assert ("argument --peers: invalid int value: 'many'"
                in capsys.readouterr().err)

    def test_smallest_accepted_values_run(self, capsys):
        assert main(["demo", "--peers", "1", "--schemas", "1",
                     "--entities", "5", "--rounds", "0"]) == 0
        assert "30 triples on 1 peers" in capsys.readouterr().out


class TestCountArguments:
    """Every count flag of ``scenario``, ``chaos`` and ``scaleout`` is
    checked while parsing, naming the flag, instead of dying with a
    traceback from the overlay builder or silently doing nothing."""

    @pytest.mark.parametrize("argv,flag,value,floor", [
        (["scenario"], "--peers", "0", 1),
        (["scenario"], "--replication", "0", 1),
        (["scenario"], "--schemas", "0", 1),
        (["scenario"], "--entities", "4", 5),
        (["scenario"], "--queries", "-3", 0),
        (["scenario"], "--selforg-rounds", "-1", 0),
        (["scenario"], "--max-hops", "-1", 0),
        (["scenario"], "--limit", "-1", 0),
        (["chaos", "run"], "--peers", "0", 1),
        (["chaos", "run"], "--queries", "-1", 0),
        (["chaos", "explore"], "--budget", "-3", 1),
        (["chaos", "explore"], "--budget", "0", 1),
        (["chaos", "explore"], "--peers", "0", 1),
        (["chaos", "replay", "--seed", "0"], "--peers", "0", 1),
        (["chaos", "replay", "--seed", "0"], "--queries", "-1", 0),
        (["scaleout"], "--peers", "0", 1),
        (["scaleout"], "--shards", "0", 1),
        (["scaleout"], "--keys", "0", 1),
        (["scaleout"], "--ops", "-1", 0),
        (["scaleout"], "--waves", "-1", 0),
    ])
    def test_out_of_range_exits_2_naming_the_flag(
            self, capsys, argv, flag, value, floor):
        with pytest.raises(SystemExit) as exited:
            main([*argv, flag, value])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be >= {floor}, got {value}" in err
        assert "Traceback" not in err

    def test_smallest_accepted_counts_run(self, capsys):
        assert main(["scaleout", "--peers", "1", "--shards", "1",
                     "--keys", "1", "--ops", "0", "--waves", "0"]) == 0
        assert main(["scenario", "--peers", "1", "--replication", "1",
                     "--schemas", "1", "--entities", "5", "--queries", "0",
                     "--max-hops", "0", "--limit", "0"]) == 0
        assert main(["chaos", "explore", "--budget", "1", "--peers", "1",
                     "--queries", "0"]) == 0
        assert "explored 1 seed(s)" in capsys.readouterr().out


class TestExperimentsCommand:
    def test_lists_all_experiments(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        for exp_id in ("E1", "E2", "E5", "E12", "E19"):
            assert f"benchmarks/BENCH_{exp_id}.json" in out
        assert "REPRO_BENCH_SCALE" in out
        assert "REPRO_BENCH_WRITE_BASELINE=1" in out


class TestDemoCommand:
    def test_demo_small_run(self, capsys):
        code = main(["demo", "--peers", "24", "--schemas", "4",
                     "--entities", "40", "--rounds", "3", "--seed", "7"])
        assert code == 0
        out = capsys.readouterr().out
        assert "before self-organization" in out
        assert "after:" in out


class TestQueryCommand:
    def test_parse_error_exit_code(self, capsys):
        code = main(["query", "SELECT 1", "--peers", "8",
                     "--schemas", "3", "--entities", "20"])
        assert code == 2
        assert "does not parse" in capsys.readouterr().err

    def test_query_against_corpus(self, capsys):
        # discover a real predicate of the generated corpus first
        from repro.datagen import BioDatasetGenerator
        dataset = BioDatasetGenerator(
            num_schemas=4, num_entities=40, entities_per_schema=8,
            seed=7).generate()
        schema = dataset.schemas[0]
        organism_attr = dataset.concept_attribute(schema.name, "organism")
        query = (f"SearchFor(x? : (x?, {schema.name}#{organism_attr}, "
                 f"%a%))")
        code = main(["query", query, "--peers", "24", "--schemas", "4",
                     "--entities", "40", "--rounds", "2", "--seed", "7",
                     "--limit", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "results  :" in out
        assert "latency  :" in out

    def test_zero_results_prints_hint(self, capsys):
        code = main(["query",
                     "SearchFor(x? : (x?, Nowhere#nothing, %zz%))",
                     "--peers", "16", "--schemas", "3",
                     "--entities", "20", "--rounds", "1"])
        assert code == 0
        assert "hint" in capsys.readouterr().out


class TestAutoQueryCommand:
    def test_auto_query_prints_optimizer_decision(self, capsys):
        from repro.datagen import BioDatasetGenerator
        dataset = BioDatasetGenerator(
            num_schemas=4, num_entities=40, entities_per_schema=8,
            seed=7).generate()
        schema = dataset.schemas[0]
        organism_attr = dataset.concept_attribute(schema.name, "organism")
        query = (f"SearchFor(x? : (x?, {schema.name}#{organism_attr}, "
                 f"%a%))")
        code = main(["query", query, "--strategy", "auto",
                     "--peers", "24", "--schemas", "4",
                     "--entities", "40", "--rounds", "2", "--seed", "7",
                     "--limit", "0", "--warm-stats", "300"])
        assert code == 0
        out = capsys.readouterr().out
        assert "optimizer:" in out
        assert "estimated" in out or "fallback" in out


class TestStatsCommand:
    def test_stats_reports_digest_and_estimate_error(self, capsys):
        code = main(["stats", "--peers", "24", "--schemas", "4",
                     "--entities", "40", "--rounds", "1", "--seed", "7",
                     "--warm-stats", "300"])
        assert code == 0
        out = capsys.readouterr().out
        assert "local triples" in out
        assert "registry" in out
        assert "mean relative error" in out


class TestChaosCommand:
    def test_chaos_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos"])

    def test_chaos_intensity_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["chaos", "run", "--intensity", "apocalyptic"])
        args = build_parser().parse_args(
            ["chaos", "explore", "--intensity", "heavy"])
        assert args.intensity == "heavy"
        assert args.budget == 8

    def test_chaos_run_green_seed(self, capsys):
        code = main(["chaos", "run", "--seed", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fault schedule:" in out
        assert "invariants: all hold" in out

    def test_chaos_explore_reports_budget(self, capsys):
        code = main(["chaos", "explore", "--budget", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "explored 2 seed(s)" in out
        assert "2 passed, 0 failed" in out

    def test_chaos_replay_reproduces_failure_and_shrinks(self, capsys):
        """Acceptance: replay from the printed seed alone reproduces
        the failure, and --shrink emits a strictly smaller schedule
        that still fails."""
        code = main(["chaos", "replay", "--seed", "0",
                     "--intensity", "extreme",
                     "--min-live-recall", "0.8", "--shrink"])
        assert code == 1  # the failure reproduced
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "live_recall" in out
        assert "minimal reproducer" in out
        # the shrunk schedule is strictly smaller than the original
        assert "shrunk 8 -> 1 fault clause(s)" in out

    def test_chaos_replay_passing_seed_nothing_to_shrink(self, capsys):
        code = main(["chaos", "replay", "--seed", "0", "--shrink"])
        assert code == 0
        assert "nothing to shrink" in capsys.readouterr().out

    def test_chaos_listed_in_experiments(self, capsys):
        assert main(["experiments"]) == 0
        assert "E17" in capsys.readouterr().out


class TestTraceCommand:
    def run_traced_query(self, tmp_path):
        # The query's origin is a harness-rng draw, and an origin that
        # owns the queried key space resolves it without a message; at
        # this seed the origin is remote, so the trace has hops to show.
        path = tmp_path / "trace.jsonl"
        code = main(["query",
                     "SearchFor(x? : (x?, Nowhere#nothing, %zz%))",
                     "--peers", "16", "--schemas", "3",
                     "--entities", "20", "--rounds", "1", "--seed", "7",
                     "--trace", str(path)])
        assert code == 0
        return path

    def test_query_trace_flag_writes_jsonl(self, tmp_path, capsys):
        path = self.run_traced_query(tmp_path)
        out = capsys.readouterr().out
        from repro.obs.analysis import load_jsonl, trace_ids
        records = load_jsonl(str(path))
        # One query, one trace; deployment writes took the refs before
        # it, so the id is whatever the command says it wrote.
        (trace,) = trace_ids(records)
        assert f"{len(records)} record(s), {trace} -> {path}" in out

    def test_trace_summary_waterfall_and_stats(self, tmp_path, capsys):
        path = self.run_traced_query(tmp_path)
        from repro.obs.analysis import load_jsonl, trace_ids
        (trace,) = trace_ids(load_jsonl(str(path)))
        capsys.readouterr()
        assert main(["trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "1 trace(s)" in out and trace in out
        assert main(["trace", str(path), "--waterfall", trace]) == 0
        out = capsys.readouterr().out
        assert "msg:route" in out and "|" in out
        assert main(["trace", str(path), "--critical-path", trace]) == 0
        assert "critical path" in capsys.readouterr().out
        assert main(["trace", str(path), "--stats"]) == 0
        assert "message attribution" in capsys.readouterr().out

    def test_trace_missing_file_exit_code(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_chaos_run_trace_flag(self, tmp_path, capsys):
        path = tmp_path / "chaos.jsonl"
        code = main(["chaos", "run", "--seed", "0", "--peers", "12",
                     "--queries", "2", "--trace", str(path)])
        assert code == 0
        assert "trace: written to" in capsys.readouterr().out
        from repro.obs.analysis import load_jsonl
        assert load_jsonl(str(path))


class TestScaleoutCommand:
    def test_retrieve_run_prints_report(self, capsys):
        code = main(["scaleout", "--peers", "60", "--shards", "2",
                     "--keys", "10", "--ops", "5", "--waves", "1",
                     "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sharded/inline" in out
        assert "success_rate" in out
        # host quantities come from the report attributes, not from
        # the (deterministic) summary digest
        assert "wall_clock_s" in out
        assert "peak_rss_kb" in out

    def test_mediation_workload_flag(self, capsys):
        code = main(["scaleout", "--peers", "60", "--shards", "2",
                     "--keys", "10", "--ops", "3", "--waves", "1",
                     "--seed", "3", "--workload", "mediation"])
        assert code == 0
        out = capsys.readouterr().out
        assert "SearchFor queries" in out
        assert "rows_returned" in out

    def test_trace_flag_writes_jsonl(self, tmp_path, capsys):
        path = tmp_path / "scaleout.jsonl"
        code = main(["scaleout", "--peers", "60", "--shards", "2",
                     "--keys", "10", "--ops", "3", "--waves", "1",
                     "--seed", "3", "--workload", "mediation",
                     "--trace", str(path)])
        assert code == 0
        assert "trace: written to" in capsys.readouterr().out
        from repro.obs.analysis import load_jsonl, trace_ids
        records = load_jsonl(str(path))
        assert records
        assert all(t.startswith("op:") for t in trace_ids(records))

    def test_trace_identical_across_engines_is_not_required_but_loads(
            self, tmp_path):
        # The inprocess engine exports the same trace-id scheme, so one
        # `repro trace` invocation can analyze either engine's output.
        path = tmp_path / "inproc.jsonl"
        code = main(["scaleout", "--engine", "inprocess", "--peers", "60",
                     "--keys", "10", "--ops", "3", "--waves", "1",
                     "--seed", "3", "--trace", str(path)])
        assert code == 0
        from repro.obs.analysis import load_jsonl, trace_ids
        assert all(t.startswith("op:")
                   for t in trace_ids(load_jsonl(str(path))))

    def test_workload_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scaleout", "--workload", "raw"])
