"""The exact ``repro`` surface the benchmark touches.

Every other perfbench module gets its ``repro`` names from here, and
``test_perfbench.py`` pins this list: a refactor under ``src/`` may
move, merge or rewrite anything as long as these imports and the
:data:`SPAN_TARGETS` paths keep resolving with the same meaning.  The
benchmark drives the program only through these public entry points and
reads only the counters they already expose.
"""

from repro import (
    ConjunctiveQuery,
    GridVineNetwork,
    TriplePattern,
    Variable,
    parse_search_for,
)
from repro.connectivity.indicator import indicator_from_degrees
from repro.datagen import BioDatasetGenerator, QueryWorkloadGenerator
from repro.engine.cache import PlanCache
from repro.engine.versioning import MappingVersionClock
from repro.exec import Batch, join_batches
from repro.faultlab import FaultPlan, MessageDrop
from repro.faultlab.injector import install_plan
from repro.mapping.graph import MappingGraph
from repro.mapping.unfolding import translate_query
from repro.pgrid.overlay import PGridOverlay
from repro.pgrid.scaleout import (
    ScaleoutSpec,
    build_deployment,
    run_inprocess,
    run_sharded,
)
from repro.reformulation.planner import plan_reformulations
from repro.resilience.scenario import (
    ScenarioRunner,
    ScenarioSpec,
    recall_hits,
)
from repro.selforg import (
    CreationPolicy,
    SelfOrganizationController,
    assess_mapping_quality,
    match_attributes,
)
from repro.simnet import EventLoop, LogNormalWANLatency, Node, SimNetwork
from repro.storage.triplestore import TripleStore
from repro.util.hashing import uniform_hash

#: Where the traced run installs its wrappers: ``(span name, layer,
#: "module:attribute path")``.  Class attributes are patched on the
#: class; module functions are patched in their defining module *and*
#: in every module that re-imported them by name.  On top
#: of these, every callable handed to ``Node.register_handler`` is
#: wrapped as ``handler:<kind>`` (layer ``pgrid``, or ``mediation`` for
#: the kinds only GridVine peers register).
SPAN_TARGETS: tuple[tuple[str, str, str], ...] = (
    # simnet: the event loop and both send gates
    ("loop.run_until_idle", "simnet", "repro.simnet.events:EventLoop.run_until_idle"),
    ("loop.run_until", "simnet", "repro.simnet.events:EventLoop.run_until"),
    ("loop.run_until_complete", "simnet", "repro.simnet.events:EventLoop.run_until_complete"),
    ("send", "simnet", "repro.simnet.network:SimNetwork.send"),
    ("send", "simnet.shard", "repro.simnet.shard:ShardTransport.send"),
    ("run_window", "simnet.shard", "repro.simnet.shard:Shard.run_window"),
    ("run_until_quiescent", "simnet.shard", "repro.simnet.shard:ShardedTransport.run_until_quiescent"),
    ("submit", "simnet.shard", "repro.simnet.shard:ShardedTransport.submit"),
    # pgrid: overlay construction and replica merge
    ("build.assign_paths", "pgrid", "repro.pgrid.construction:assign_paths"),
    ("build.populate_routing_tables", "pgrid", "repro.pgrid.construction:populate_routing_tables"),
    ("build.sample_routing_tables", "pgrid", "repro.pgrid.construction:sample_routing_tables"),
    ("local_merge", "pgrid", "repro.pgrid.peer:PGridPeer.local_merge"),
    ("scaleout.build_deployment", "pgrid", "repro.pgrid.scaleout:build_deployment"),
    ("scaleout.run_inprocess", "pgrid", "repro.pgrid.scaleout:run_inprocess"),
    ("scaleout.run_sharded", "pgrid", "repro.pgrid.scaleout:run_sharded"),
    # storage
    ("add", "storage", "repro.storage.triplestore:TripleStore.add"),
    ("match", "storage", "repro.storage.triplestore:TripleStore.match"),
    # reformulation + mapping
    ("plan_reformulations", "reformulation", "repro.reformulation.planner:plan_reformulations"),
    ("translate_query", "mapping", "repro.mapping.unfolding:translate_query"),
    ("graph.find_paths", "mapping", "repro.mapping.graph:MappingGraph.find_paths"),
    ("graph.reachable_schemas", "mapping", "repro.mapping.graph:MappingGraph.reachable_schemas"),
    ("graph.compose_path", "mapping", "repro.mapping.graph:MappingGraph.compose_path"),
    ("graph.find_cycles", "mapping", "repro.mapping.graph:MappingGraph.find_cycles"),
    # exec
    ("run_query_plan", "exec", "repro.exec.plans:run_query_plan"),
    ("join_batches", "exec", "repro.exec.bindings:join_batches"),
    # engine
    ("execute_batch", "engine", "repro.engine.core:QueryEngine.execute_batch"),
    ("plan", "engine", "repro.engine.core:QueryEngine.plan"),
    # mediation facade
    ("facade.build", "mediation", "repro.mediation.network:GridVineNetwork.build"),
    ("facade.insert_schema", "mediation", "repro.mediation.network:GridVineNetwork.insert_schema"),
    ("facade.insert_triples", "mediation", "repro.mediation.network:GridVineNetwork.insert_triples"),
    ("facade.insert_mapping", "mediation", "repro.mediation.network:GridVineNetwork.insert_mapping"),
    ("facade.remove_mapping", "mediation", "repro.mediation.network:GridVineNetwork.remove_mapping"),
    ("facade.deprecate_mapping", "mediation", "repro.mediation.network:GridVineNetwork.deprecate_mapping"),
    ("facade.settle", "mediation", "repro.mediation.network:GridVineNetwork.settle"),
    ("facade.search_for", "mediation", "repro.mediation.network:GridVineNetwork.search_for"),
    ("facade.run_batch", "mediation", "repro.mediation.network:GridVineNetwork.run_batch"),
    ("facade.mapping_graph", "mediation", "repro.mediation.network:GridVineNetwork.mapping_graph"),
    ("facade.connectivity_records", "mediation", "repro.mediation.network:GridVineNetwork.connectivity_records"),
    # selforg + connectivity
    ("step", "selforg", "repro.selforg.controller:SelfOrganizationController.step"),
    ("propose_mappings", "selforg", "repro.selforg.creator:propose_mappings"),
    ("match_attributes", "selforg", "repro.selforg.matcher:match_attributes"),
    ("rank_candidate_pairs", "selforg", "repro.selforg.candidates:rank_candidate_pairs"),
    ("assess_mapping_quality", "selforg", "repro.selforg.deprecation:assess_mapping_quality"),
    ("indicator_from_degrees", "connectivity", "repro.connectivity.indicator:indicator_from_degrees"),
    # datagen + resilience
    ("generate", "datagen", "repro.datagen.generator:BioDatasetGenerator.generate"),
    ("scenario.from_spec", "resilience", "repro.resilience.scenario:ScenarioRunner.from_spec"),
    ("scenario.run", "resilience", "repro.resilience.scenario:ScenarioRunner.run"),
)

#: handler kinds registered by ``PGridPeer`` itself; anything else a
#: node registers is attributed to the mediation layer
PGRID_HANDLER_KINDS = frozenset({
    "route", "reply", "replicate", "probe", "probe_ack", "stats_pull",
    "stats_push", "refs_request", "refs_reply", "sync_push",
})
