"""Shared Hypothesis strategies and settings profiles for the suite.

Import the tiered settings from here::

    from strategies import STANDARD_SETTINGS

(test modules live in a rootdir-anchored sys.path, like the
benchmarks' ``from conftest import ...``).
"""

from strategies.batches import SharingCase, run_sharing_case, sharing_cases
from strategies.fanouts import (
    fanout_schedules,
    request_trees,
    required_events,
    split_write_schedules,
)
from strategies.mapping_graphs import (
    ReformulationCase,
    mapping_forests,
    mapping_graphs,
    reformulation_cases,
)
from strategies.patterns import patterns, triple_sets
from strategies.reads import ReadCase, deploy_read_case, read_cases
from strategies.selforg import (
    InstanceCase,
    RankingCase,
    instance_cases,
    ranking_cases,
)
from strategies.settings import (
    DETERMINISM_SETTINGS,
    QUICK_SETTINGS,
    SLOW_SETTINGS,
    STANDARD_SETTINGS,
    STATE_MACHINE_SETTINGS,
)
from strategies.stat_bags import SampleBag, stat_bags
from strategies.synopses import (
    OWN_ID,
    gossip_digests,
    gossip_histories,
    peer_synopses,
    triples,
)
from strategies.tries import TrieCase, trie_cases
from strategies.uploads import (
    UploadCase,
    corpora,
    deploy_upload_case,
    key_group_scripts,
    mixed_writes,
    upload_cases,
)
from strategies.values import (
    connectivity_records,
    schema_mappings,
    schemas,
    value_objects,
)

__all__ = [
    "DETERMINISM_SETTINGS",
    "InstanceCase",
    "OWN_ID",
    "QUICK_SETTINGS",
    "RankingCase",
    "ReadCase",
    "ReformulationCase",
    "SLOW_SETTINGS",
    "STANDARD_SETTINGS",
    "STATE_MACHINE_SETTINGS",
    "SampleBag",
    "SharingCase",
    "TrieCase",
    "UploadCase",
    "connectivity_records",
    "corpora",
    "deploy_read_case",
    "deploy_upload_case",
    "fanout_schedules",
    "gossip_digests",
    "gossip_histories",
    "instance_cases",
    "key_group_scripts",
    "mapping_forests",
    "mapping_graphs",
    "mixed_writes",
    "patterns",
    "peer_synopses",
    "ranking_cases",
    "read_cases",
    "reformulation_cases",
    "request_trees",
    "required_events",
    "run_sharing_case",
    "schema_mappings",
    "schemas",
    "sharing_cases",
    "split_write_schedules",
    "stat_bags",
    "trie_cases",
    "triple_sets",
    "triples",
    "upload_cases",
    "value_objects",
]
