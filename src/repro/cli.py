"""Command-line interface: ``python -m repro <command>``.

Nine commands: what a demo visitor could do at the VLDB'07 booth
(``demo``, ``query``), and the reproduction's own instruments around
it:

``demo``
    Run the §4 storyline end to end (corpus generation, deployment,
    self-organization rounds, recall report).

``query``
    Deploy the bioinformatic corpus and run one ``SearchFor`` query
    under a chosen strategy, printing results and cost.  ``--limit``
    is pushed into the distributed execution (limit pushdown): the
    streaming pipeline cancels its remaining fan-out once enough
    distinct rows arrived, and the report shows what that saved.

``batch``
    Run a repeated-query workload through the query engine
    (:mod:`repro.engine`) and report plan-cache hit rate, pattern
    deduplication and messages — the engine's execution statistics.

``scenario``
    Run a scripted churn scenario (:mod:`repro.resilience`): peers
    fail and recover while a query workload runs, and the report
    shows recall vs ground truth, latency percentiles, exact
    per-query messages and failover activity.

``stats``
    Deploy the corpus, let synopsis gossip piggyback on maintenance
    for a while, then print one peer's statistics digest and how well
    the network-wide cardinality estimates match the true corpus.

``chaos``
    The deterministic fault lab (:mod:`repro.faultlab`): ``chaos run``
    executes one seeded fault schedule against a scripted scenario
    and checks every system invariant, ``chaos explore`` sweeps a
    budget of consecutive seeds, and ``chaos replay`` re-runs any
    failure from its printed seed alone — with ``--shrink`` it then
    minimizes the failing schedule to the smallest clause set that
    still fails.

``scaleout``
    Run one scale-out deployment (:mod:`repro.pgrid.scaleout`) on a
    chosen transport — the single-loop baseline or the windowed
    sharded engine at any shard count — and print the engine-
    comparable report (successes, hops, messages, wall clock, RSS).

``experiments``
    List the E1..E19 benchmark targets and how to run them.

``trace``
    Analyze a trace written by ``--trace out.jsonl`` (available on
    ``query``, ``batch``, ``scenario``, ``chaos run`` and
    ``scaleout``): per-trace
    summaries and slowest queries by default, ``--waterfall`` /
    ``--critical-path`` for one trace's hop-by-hop timeline, and
    ``--stats`` for per-op-tag message attribution with per-kind
    splits and drop causes.
"""

from __future__ import annotations

import argparse
import sys

from repro.datagen import QueryWorkloadGenerator
from repro.rdf.parser import ParseError, parse_search_for

_EXPERIMENTS = [
    ("E1", "Figure 2 reformulation", "bench_e1_reformulation.py"),
    ("E2", "340-peer latency CDF (40%/75% anchors)",
     "bench_e2_latency_cdf.py"),
    ("E3", "connectivity indicator vs giant component",
     "bench_e3_connectivity.py"),
    ("E4", "recall growth under self-organization",
     "bench_e4_recall_growth.py"),
    ("E5", "Bayesian deprecation precision/recall",
     "bench_e5_deprecation.py"),
    ("E6", "O(log n) routing scaling", "bench_e6_routing_scaling.py"),
    ("E7", "triple index fan-out & routing-key rule",
     "bench_e7_index_fanout.py"),
    ("E8", "iterative vs recursive reformulation",
     "bench_e8_strategies.py"),
    ("E9", "matcher measure-combination ablation",
     "bench_e9_matcher.py"),
    ("E10", "exchange-based vs top-down construction",
     "bench_e10_construction.py"),
    ("E11", "order-preserving range queries", "bench_e11_range_queries.py"),
    ("E12", "parallel vs bound conjunctive joins",
     "bench_e12_join_modes.py"),
    ("E13", "plan-cache warm/cold + batched dedup",
     "bench_e13_plan_cache.py"),
    ("E14", "churn recall with replica failover on/off",
     "bench_e14_churn_recall.py"),
    ("E15", "limit pushdown: messages saved by early stop",
     "bench_e15_limit_pushdown.py"),
    ("E16", "cost-based auto strategy vs static choices",
     "bench_e16_optimizer.py"),
    ("E17", "partition recall with anti-entropy repair on/off",
     "bench_e17_partition_recall.py"),
    ("E18", "10k-peer scale-out: sharded vs single-loop transport",
     "bench_e18_scaleout.py"),
    ("E19", "sharded mediation: bit-identical GridVine queries",
     "bench_e19_sharded_mediation.py"),
]


def _deploy(args):
    """The deployment demo / query / batch / stats share: the scenario
    runner's build with its sparse seed pairing — every schema touches
    a mapping, but the graph starts far from strongly connected, so the
    self-organization loop has work to do."""
    from repro.resilience import ScenarioRunner, ScenarioSpec

    return ScenarioRunner.from_spec(ScenarioSpec(
        num_peers=args.peers, replication=2, refs_per_level=2,
        seed=args.seed, num_schemas=args.schemas,
        num_entities=args.entities, selforg_rounds=1))


def _deploy_organized(args):
    """``(network, dataset)`` after ``args.rounds`` rounds of
    self-organization over :func:`_deploy`."""
    runner = _deploy(args)
    runner.self_organize(args.rounds)
    return runner.network, runner.dataset


def _warm_statistics(net, seconds: float) -> None:
    """Run maintenance (a round every 20 s) for a while so synopsis
    gossip converges.

    Synopses piggyback on the probes and sync pushes the maintenance
    process sends anyway, so warming costs exactly the maintenance
    traffic — zero messages are spent on statistics themselves.
    """
    import random as _random

    from repro.pgrid.maintenance import MaintenanceProcess

    interval = 20.0
    maintenance = MaintenanceProcess(net.peers, interval=interval,
                                     rng=_random.Random(9))
    maintenance.start()
    net.engine.run_until(net.engine.now + seconds)
    maintenance.stop()
    net.engine.run_until(net.engine.now + 2 * interval)


def _maybe_install_tracer(net, args):
    """Install a span recorder when the command got ``--trace PATH``."""
    if getattr(args, "trace", None):
        net.install_tracer()


def _maybe_export_trace(net, args) -> None:
    path = getattr(args, "trace", None)
    if path:
        from repro.obs.analysis import trace_ids
        from repro.obs.tracer import export_records_jsonl

        records = net.trace_records()
        # Ids count every operation since the deployment was built.
        ids = trace_ids(records)
        shown = (", ".join(ids) if len(ids) <= 4
                 else f"{ids[0]} .. {ids[-1]} ({len(ids)} traces)")
        count = export_records_jsonl(records, path)
        print(f"trace    : {count} record(s), {shown} -> {path} "
              f"(inspect with: python -m repro trace {path})")


def cmd_demo(args) -> int:
    runner = _deploy(args)
    net, dataset = runner.network, runner.dataset
    print(f"{len(dataset.schemas)} schemas, {len(dataset.triples)} "
          f"triples on {args.peers} peers")
    workload = QueryWorkloadGenerator(dataset, seed=args.seed)
    query = workload.concept_query(dataset.schemas[0].name, "organism",
                                   "Aspergillus")
    before = net.search_for(query, strategy="iterative", max_hops=8)
    print(f"before self-organization: ci="
          f"{net.connectivity_indicator(dataset.domain):+.3f}, "
          f"probe query answers {before.result_count}")
    for report in runner.self_organize(args.rounds):
        print(f"  round {report.round_index}: "
              f"ci {report.ci_before:+.3f} -> {report.ci_after:+.3f}, "
              f"+{len(report.created)} mappings, "
              f"-{len(report.deprecated)} deprecated")
    after = net.search_for(query, strategy="iterative", max_hops=8)
    print(f"after: ci={net.connectivity_indicator(dataset.domain):+.3f}, "
          f"probe query answers {after.result_count}")
    return 0


def cmd_query(args) -> int:
    try:
        query = parse_search_for(args.query)
    except ParseError as exc:
        print(f"query does not parse: {exc}", file=sys.stderr)
        return 2
    limit = args.limit if args.limit > 0 else None
    net, dataset = _deploy_organized(args)
    if args.strategy == "auto":
        _warm_statistics(net, seconds=args.warm_stats)
    _maybe_install_tracer(net, args)
    if args.strategy == "engine":
        engine = net.create_engine(domain=dataset.domain,
                                   max_hops=args.max_hops)
        outcome = engine.search_for(query, limit=limit)
    else:
        outcome = net.search_for(query, strategy=args.strategy,
                                 max_hops=args.max_hops, limit=limit)
    print(f"query    : {query}")
    strategy_note = "" if limit is None else f", limit {limit} pushed down"
    print(f"strategy : {args.strategy}{strategy_note}")
    decision = outcome.decision
    if decision is not None:
        if decision.fallback:
            print("optimizer: no statistics propagated yet; static "
                  f"{decision.strategy} fallback")
        else:
            estimated = ("?" if decision.estimated_messages is None
                         else f"{decision.estimated_messages:.0f}")
            rows = ("?" if decision.estimated_rows is None
                    else f"{decision.estimated_rows:.1f}")
            print(f"optimizer: chose {decision.strategy} "
                  f"({decision.reason})")
            print(f"           estimated {rows} rows / ~{estimated} "
                  f"messages; actual {outcome.result_count} rows / "
                  f"{outcome.messages} messages; "
                  f"{decision.reformulations_pruned} reformulation(s) "
                  f"pruned")
    print(f"results  : {outcome.result_count}")
    for row in outcome.sorted_results():
        print("  " + ", ".join(str(t) for t in row))
    print(f"latency  : {outcome.latency:.2f}s (simulated), "
          f"{outcome.messages} messages, "
          f"{outcome.reformulations_explored} reformulation(s)")
    if limit is not None:
        if outcome.limit_hit:
            print(f"early stop: limit reached after "
                  f"{outcome.first_result_latency:.2f}s to first result; "
                  f"cancelled remaining fan-out "
                  f"({outcome.fetches_skipped} planned fetches skipped, "
                  f"~{outcome.estimated_messages_saved} messages saved; "
                  f"{outcome.rows_after_cancel} late rows discarded)")
        else:
            print(f"early stop: limit {limit} not reached "
                  f"({outcome.result_count} total results); "
                  f"full fan-out executed")
    if outcome.result_count == 0:
        sample = sorted(
            str(schema.predicate(attr))
            for schema in dataset.schemas[:3]
            for attr in schema.attributes[:3]
        )[:6]
        print("hint     : 0 results — the generated corpus uses "
              "randomized attribute names; try predicates like:")
        for predicate in sample:
            print(f"             {predicate}")
    _maybe_export_trace(net, args)
    return 0


def cmd_batch(args) -> int:
    net, dataset = _deploy_organized(args)
    _maybe_install_tracer(net, args)
    engine = net.create_engine(domain=dataset.domain,
                               max_hops=args.max_hops)
    workload = QueryWorkloadGenerator(dataset, seed=args.seed)
    distinct = workload.queries(args.queries)
    # Interleave repeats the way concurrent users would issue them.
    batch = [q for _ in range(args.repeat) for q in distinct]
    print(f"batch of {len(batch)} queries "
          f"({args.queries} distinct x {args.repeat} repeats) "
          f"on {args.peers} peers")
    for label in ("cold", "warm"):
        result = engine.execute_batch(batch)
        answered = sum(1 for o in result.outcomes if o.result_count)
        print(f"{label:<5}: {answered}/{len(batch)} queries answered, "
              f"{result.patterns_total} pattern lookups -> "
              f"{result.patterns_fetched} fetched "
              f"({result.lookups_saved} saved by dedup), "
              f"{result.messages} messages")
    stats = engine.stats.snapshot()
    print(f"plan cache: {stats['cache']['hits']} hits / "
          f"{stats['cache']['lookups']} lookups "
          f"(hit rate {stats['cache']['hit_rate']:.1%}), "
          f"{stats['planner_invocations']} planner invocation(s)")
    print(f"engine    : {stats['lookups_saved']} total lookups saved "
          f"(dedup rate {stats['dedup_rate']:.1%}), "
          f"{stats['messages']} messages")
    _maybe_export_trace(net, args)
    return 0


def cmd_scenario(args) -> int:
    from repro.resilience import ScenarioRunner, ScenarioSpec

    try:
        spec = ScenarioSpec(
            num_peers=args.peers,
            replication=args.replication,
            refs_per_level=args.replication,
            seed=args.seed,
            failover=not args.no_failover,
            num_schemas=args.schemas,
            num_entities=args.entities,
            selforg_rounds=args.selforg_rounds,
            mean_uptime=args.uptime,
            mean_downtime=args.downtime,
            num_queries=args.queries,
            strategy=args.strategy,
            max_hops=args.max_hops,
            limit=args.limit or None,
        )
    except ValueError as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return 2
    print(f"scenario: {spec.num_peers} peers (replication "
          f"{spec.replication}), {spec.num_schemas} schemas, "
          f"churn up/down {spec.mean_uptime:.0f}s/"
          f"{spec.mean_downtime:.0f}s, {spec.num_queries} queries "
          f"({spec.strategy}), failover "
          f"{'on' if spec.failover else 'off'}")
    runner = ScenarioRunner.from_spec(spec)
    _maybe_install_tracer(runner.network, args)
    report = runner.run()
    for line in report.summary():
        print(line)
    _maybe_export_trace(runner.network, args)
    return 0


def cmd_stats(args) -> int:
    net, dataset = _deploy_organized(args)
    _warm_statistics(net, seconds=args.warm_stats)
    node_id = args.node if args.node else net.peer_ids()[0]
    peer = net.peer(node_id)
    digest = peer.synopsis_digest()
    print(f"peer {node_id}: {digest.triples} local triples, "
          f"{len(digest.predicates)} predicates, "
          f"{len(digest.mappings)} mapping edge(s), "
          f"digest version {digest.version}")
    ranked = sorted(digest.predicates,
                    key=lambda d: (-d.triples, d.predicate))
    for entry in ranked[:args.top]:
        sketch = ", ".join(f"{value!r}x{count}"
                           for value, count in entry.top_objects[:3])
        print(f"  {entry.predicate:<28} {entry.triples:>5} triples, "
              f"{entry.distinct_subjects} subj / "
              f"{entry.distinct_objects} obj distinct"
              + (f"  top: {sketch}" if sketch else ""))
    estimator = peer.optimizer.estimator
    coverage = ("full" if estimator.full_coverage() else "partial")
    print(f"registry : digests of {len(peer.synopses)} other peer(s) "
          f"(of {len(net.peers) - 1}), {coverage} key-space coverage, "
          f"{estimator.known_edge_count()} mapping edge(s) known "
          f"network-wide")
    # Network-wide estimate error vs the generator's ground truth.
    actual: dict[str, int] = {}
    for triple in dataset.triples:
        key = triple.predicate.value
        actual[key] = actual.get(key, 0) + 1
    errors = []
    worst: tuple[float, str] | None = None
    for predicate, true_count in sorted(actual.items()):
        estimate = estimator.predicate_estimate(predicate)
        estimated = estimate.triples if estimate is not None else 0
        error = abs(estimated - true_count) / true_count
        errors.append(error)
        if worst is None or error > worst[0]:
            worst = (error, predicate)
    mean_error = sum(errors) / len(errors) if errors else 0.0
    print(f"estimates: {len(actual)} true predicates, mean relative "
          f"error {mean_error:.1%}"
          + (f", worst {worst[0]:.1%} on {worst[1]}"
             if worst is not None else ""))
    return 0


def _chaos_explorer(args):
    from dataclasses import replace as _replace

    from repro.faultlab import ScenarioExplorer
    from repro.faultlab.explorer import default_spec

    spec = _replace(default_spec(),
                    num_peers=args.peers,
                    num_queries=args.queries)
    return ScenarioExplorer(spec=spec, intensity=args.intensity,
                            min_recall=args.min_recall,
                            min_live_recall=args.min_live_recall)


def _print_trial(trial, show_plan: bool) -> None:
    if show_plan:
        print("fault schedule:")
        for line in trial.plan.describe():
            print("  " + line)
    for line in trial.report.summary():
        print(line)
    if trial.ok:
        print("invariants: all hold")
    else:
        print("invariants VIOLATED:")
        for violation in trial.invariants.violations:
            print(f"  {violation}")


def cmd_chaos(args) -> int:
    explorer = _chaos_explorer(args)
    if args.chaos_command == "explore":
        trials = explorer.explore(args.budget, start_seed=args.start_seed)
        for trial in trials:
            for line in trial.summary():
                print(line)
        failed = [t for t in trials if not t.ok]
        print(f"explored {len(trials)} seed(s) "
              f"({args.intensity}): {len(trials) - len(failed)} passed, "
              f"{len(failed)} failed")
        if failed:
            # The full flag set: replay must rebuild the exact spec
            # and floors this exploration ran, not the defaults.
            print("replay any failure with: python -m repro chaos replay "
                  f"--seed {failed[0].seed} --intensity {args.intensity} "
                  f"--peers {args.peers} --queries {args.queries} "
                  f"--min-recall {args.min_recall:g} "
                  f"--min-live-recall {args.min_live_recall:g} [--shrink]")
        return 1 if failed else 0
    # run / replay: one seeded trial (replay is the explicit
    # reproduce-from-printed-seed entry point; both derive everything
    # from the seed alone)
    trace_path = getattr(args, "trace", None)
    trial = explorer.run_trial(args.seed, trace_path=trace_path)
    if trace_path:
        print(f"trace: written to {trace_path} "
              f"(inspect with: python -m repro trace {trace_path})")
    print(f"seed {args.seed} ({args.intensity}): "
          + ("PASS" if trial.ok else "FAIL"))
    _print_trial(trial, show_plan=True)
    if args.chaos_command == "replay" and args.shrink:
        if trial.ok:
            print("nothing to shrink: all invariants hold")
            return 0
        # Reuse the trial already run above as the reproduction step
        # (a scenario run is the expensive unit of the whole tool).
        result = explorer.shrink(args.seed, trial=trial)
        for line in result.summary():
            print(line)
    return 0 if trial.ok else 1


def cmd_scaleout(args) -> int:
    from repro.pgrid.scaleout import (
        ScaleoutSpec,
        run_inprocess,
        run_sharded,
    )

    spec = ScaleoutSpec(
        num_peers=args.peers,
        num_shards=args.shards,
        mode=args.mode,
        seed=args.seed,
        num_keys=args.keys,
        ops_per_wave=args.ops,
        num_waves=args.waves,
        churn=args.churn,
        workload=args.workload,
        trace_path=getattr(args, "trace", None),
    )
    engine = run_inprocess if args.engine == "inprocess" else run_sharded
    shards = "" if args.engine == "inprocess" else \
        f" x {spec.num_shards} shards ({spec.mode})"
    ops = ("SearchFor queries" if spec.workload == "mediation"
           else f"retrieves over {spec.num_keys} keys")
    print(f"scaleout: {spec.num_peers} peers{shards}, "
          f"{spec.num_waves} waves x {spec.ops_per_wave} {ops}, "
          f"churn {'on' if spec.churn else 'off'}")
    report = engine(spec)
    for key, value in report.summary().items():
        print(f"  {key:<22} {value}")
    print(f"  {'wall_clock_s':<22} {report.wall_clock_s:.3f}")
    print(f"  {'peak_rss_kb':<22} {report.peak_rss_kb}")
    if spec.trace_path:
        print(f"trace: written to {spec.trace_path} "
              f"(inspect with: python -m repro trace {spec.trace_path})")
    return 0


def cmd_trace(args) -> int:
    from repro.obs import analysis

    try:
        records = analysis.load_any(args.file)
    except OSError as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return 2
    if not records:
        print("trace is empty")
        return 1
    if args.waterfall:
        for line in analysis.waterfall(records, args.waterfall):
            print(line)
        return 0
    if args.critical_path:
        path = analysis.critical_path(records, args.critical_path)
        if not path:
            print(f"trace {args.critical_path!r}: no spans",
                  file=sys.stderr)
            return 2
        print(f"critical path of {args.critical_path} "
              f"({len(path)} span(s)):")
        for line in analysis.critical_path_lines(path):
            print(line)
        return 0
    if args.stats:
        print("per-operation message attribution "
              "(trace id == op tag):")
        for line in analysis.format_stats(
                analysis.attribution_stats(records)):
            print("  " + line)
        return 0
    summaries = analysis.trace_summaries(records)
    print(f"{len(summaries)} trace(s), {len(records)} record(s):")
    for line in analysis.summary_lines(summaries):
        print("  " + line)
    slowest = analysis.top_slowest(records, k=args.top)
    if len(summaries) > 1:
        print(f"slowest {len(slowest)}:")
        for line in analysis.summary_lines(slowest):
            print("  " + line)
    if summaries:
        print("drill down with: --waterfall "
              f"{slowest[0]['trace']} | --critical-path "
              f"{slowest[0]['trace']} | --stats")
    return 0


def cmd_experiments(_args) -> int:
    print("experiment benchmarks (each run is compared exactly with "
          "its recorded baseline, see docs/TESTING.md):\n")
    for exp_id, title, module in _EXPERIMENTS:
        print(f"  {exp_id:<4} {title:<46} benchmarks/{module:<31} "
              f"benchmarks/BENCH_{exp_id}.json")
    print("\nrun all:   pytest benchmarks/ --benchmark-only -s")
    print("full scale: REPRO_BENCH_SCALE=full pytest benchmarks/ "
          "--benchmark-only -s  (not compared)")
    print("re-record: REPRO_BENCH_WRITE_BASELINE=1 pytest benchmarks/ "
          "--benchmark-only -q")
    return 0


def _add_trace_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="record a causal trace of every query "
                             "(spans per message/retry/join, fault "
                             "annotations) and write it as sorted "
                             "JSONL; analyze with 'repro trace PATH'")


def _at_least(minimum: int):
    """An argparse ``type``: an integer no smaller than ``minimum``.
    A smaller one is a usage error naming the flag (exit 2)."""
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}")
        return value
    parse.__name__ = "int"  # argparse's "invalid int value: ..." wording
    return parse


def _add_deploy_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--peers", type=_at_least(1), default=100)
    parser.add_argument("--schemas", type=_at_least(1), default=10)
    # every schema covers max(5, entities // 5) of the entities
    parser.add_argument("--entities", type=_at_least(5), default=100)
    parser.add_argument("--rounds", type=_at_least(0), default=8)
    parser.add_argument("--seed", type=int, default=42)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GridVine reproduction (VLDB 2007) command line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run the §4 demonstration storyline")
    _add_deploy_args(demo)
    demo.set_defaults(func=cmd_demo)

    query = sub.add_parser("query", help="run one SearchFor query")
    query.add_argument("query", help='e.g. "SearchFor(x? : (x?, '
                                     'EMBL#Organism, %%Aspergillus%%))"')
    query.add_argument("--strategy", default="iterative",
                       choices=["local", "iterative", "recursive",
                                "engine", "auto"],
                       help="local: no reformulation; iterative: the "
                            "origin reformulates; recursive: schema "
                            "peers reformulate; engine: cached plans "
                            "+ batched execution; auto: the cost-based "
                            "optimizer picks per query from gossiped "
                            "statistics")
    query.add_argument("--limit", type=int, default=10,
                       help="result-row cap pushed into distributed "
                            "execution (limit pushdown): the query "
                            "stops spending messages once this many "
                            "distinct rows arrived; 0 = unlimited")
    query.add_argument("--max-hops", type=int, default=8,
                       help="mapping-path exploration depth (BFS "
                            "depth / recursive TTL)")
    query.add_argument("--warm-stats", type=float, default=600.0,
                       help="virtual seconds of maintenance gossip "
                            "before an --strategy auto query")
    _add_deploy_args(query)
    _add_trace_arg(query)
    query.set_defaults(func=cmd_query)

    batch = sub.add_parser(
        "batch", help="run a repeated-query workload through the "
                      "query engine and report its statistics")
    batch.add_argument("--queries", type=int, default=8,
                       help="distinct queries in the workload")
    batch.add_argument("--repeat", type=int, default=5,
                       help="how many times each query recurs")
    batch.add_argument("--max-hops", type=int, default=8,
                       help="reformulation planning depth")
    _add_deploy_args(batch)
    _add_trace_arg(batch)
    batch.set_defaults(func=cmd_batch)

    scenario = sub.add_parser(
        "scenario", help="run a scripted churn scenario and report "
                         "recall, latency and failover activity")
    scenario.add_argument("--peers", type=_at_least(1), default=48)
    scenario.add_argument("--replication", type=_at_least(1), default=3,
                          help="replica-group size (and refs per level)")
    scenario.add_argument("--schemas", type=_at_least(1), default=6)
    scenario.add_argument("--entities", type=_at_least(5), default=60)
    scenario.add_argument("--seed", type=int, default=42)
    scenario.add_argument("--queries", type=_at_least(0), default=18)
    scenario.add_argument("--uptime", type=float, default=120.0,
                          help="mean seconds a peer stays online")
    scenario.add_argument("--downtime", type=float, default=45.0,
                          help="mean seconds a failed peer stays offline")
    scenario.add_argument("--selforg-rounds", type=_at_least(0), default=0,
                          help="self-organization rounds before churn "
                               "(0: pre-insert the ground-truth chain)")
    scenario.add_argument("--strategy", default="iterative",
                          choices=["local", "iterative", "recursive",
                                   "engine", "auto"])
    scenario.add_argument("--max-hops", type=_at_least(0), default=8,
                          help="mapping-path exploration depth")
    scenario.add_argument("--limit", type=_at_least(0), default=0,
                          help="per-query result cap pushed into "
                               "execution (0 = unlimited)")
    scenario.add_argument("--no-failover", action="store_true",
                          help="disable replica-aware failover (A/B "
                               "baseline)")
    _add_trace_arg(scenario)
    scenario.set_defaults(func=cmd_scenario)

    stats = sub.add_parser(
        "stats", help="print a peer's synopsis digest and the "
                      "network-wide cardinality estimate error")
    stats.add_argument("--node", default=None,
                       help="peer to inspect (default: first peer)")
    stats.add_argument("--warm-stats", type=float, default=600.0,
                       help="virtual seconds of maintenance gossip "
                            "before reading the registry")
    stats.add_argument("--top", type=int, default=8,
                       help="predicates to list from the digest")
    _add_deploy_args(stats)
    stats.set_defaults(func=cmd_stats)

    chaos = sub.add_parser(
        "chaos", help="deterministic fault lab: seeded fault "
                      "schedules, invariant checks, replay and "
                      "shrinking")
    chaos_sub = chaos.add_subparsers(dest="chaos_command", required=True)

    def _add_chaos_args(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--intensity", default="light",
                            choices=["light", "heavy", "extreme"],
                            help="fault-schedule generation profile "
                                 "(extreme adds a kill-every-reply "
                                 "clause)")
        parser.add_argument("--peers", type=_at_least(1), default=20)
        parser.add_argument("--queries", type=_at_least(0), default=6,
                            help="queries issued while faults run")
        parser.add_argument("--min-recall", type=float, default=0.9,
                            help="post-heal recall floor (invariant)")
        parser.add_argument("--min-live-recall", type=float, default=0.4,
                            help="under-faults mean recall floor "
                                 "(invariant)")

    chaos_run = chaos_sub.add_parser(
        "run", help="run one seeded fault schedule and check "
                    "invariants")
    chaos_run.add_argument("--seed", type=int, default=0)
    _add_chaos_args(chaos_run)
    _add_trace_arg(chaos_run)
    chaos_run.set_defaults(func=cmd_chaos)

    chaos_explore = chaos_sub.add_parser(
        "explore", help="sweep a budget of consecutive seeds; exit 1 "
                        "if any invariant broke")
    chaos_explore.add_argument("--budget", type=_at_least(1), default=8,
                               help="number of seeded scenarios to run")
    chaos_explore.add_argument("--start-seed", type=int, default=0)
    _add_chaos_args(chaos_explore)
    chaos_explore.set_defaults(func=cmd_chaos)

    chaos_replay = chaos_sub.add_parser(
        "replay", help="reproduce one explored scenario from its "
                       "printed seed alone")
    chaos_replay.add_argument("--seed", type=int, required=True)
    chaos_replay.add_argument("--shrink", action="store_true",
                              help="minimize a failing fault schedule "
                                   "to the smallest clause set that "
                                   "still fails")
    _add_chaos_args(chaos_replay)
    chaos_replay.set_defaults(func=cmd_chaos)

    scaleout = sub.add_parser(
        "scaleout", help="run one scale-out deployment on the sharded "
                         "or single-loop transport and report "
                         "engine-comparable numbers")
    scaleout.add_argument("--engine", default="sharded",
                          choices=["inprocess", "sharded"],
                          help="inprocess: one event loop (the E18 "
                               "baseline); sharded: windowed shards "
                               "over the trie key space")
    scaleout.add_argument("--peers", type=_at_least(1), default=2000)
    scaleout.add_argument("--shards", type=_at_least(1), default=4,
                          help="shard count (sharded engine only)")
    scaleout.add_argument("--mode", default="inline",
                          choices=["inline", "process"],
                          help="run shards in-process or as forked "
                               "workers (identical results either way)")
    scaleout.add_argument("--seed", type=int, default=0)
    scaleout.add_argument("--keys", type=_at_least(1), default=200,
                          help="distinct preloaded needle keys")
    scaleout.add_argument("--ops", type=_at_least(0), default=100,
                          help="retrieve operations per wave")
    scaleout.add_argument("--waves", type=_at_least(0), default=3)
    scaleout.add_argument("--churn", action="store_true",
                          help="replay the seeded exponential outage "
                               "trace while the waves run")
    scaleout.add_argument("--workload", default="retrieve",
                          choices=["retrieve", "mediation"],
                          help="retrieve: raw P-Grid lookups; "
                               "mediation: GridVine peers running "
                               "SearchFor query waves over a generated "
                               "corpus with a ground-truth mapping "
                               "chain")
    _add_trace_arg(scaleout)
    scaleout.set_defaults(func=cmd_scaleout)

    experiments = sub.add_parser("experiments",
                                 help="list benchmark targets")
    experiments.set_defaults(func=cmd_experiments)

    trace = sub.add_parser(
        "trace", help="analyze a --trace JSONL export: summaries, "
                      "waterfalls, critical paths, per-op message "
                      "attribution")
    trace.add_argument("file", help="JSONL file written by --trace")
    trace.add_argument("--waterfall", metavar="TRACE", default=None,
                       help="render one trace's hop-by-hop timeline")
    trace.add_argument("--critical-path", metavar="TRACE", default=None,
                       help="print the span chain bounding one "
                            "trace's makespan")
    trace.add_argument("--stats", action="store_true",
                       help="per-op-tag message attribution with "
                            "per-kind splits and drop causes")
    trace.add_argument("--top", type=int, default=5,
                       help="slowest traces to list in the summary")
    trace.set_defaults(func=cmd_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
