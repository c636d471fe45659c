"""Shared Hypothesis strategies and settings profiles for the suite.

Import the tiered settings from here::

    from strategies import STANDARD_SETTINGS

(test modules live in a rootdir-anchored sys.path, like the
benchmarks' ``from conftest import ...``).
"""

from strategies.fanouts import (
    fanout_schedules,
    request_trees,
    required_events,
)
from strategies.patterns import patterns, triple_sets
from strategies.settings import (
    DETERMINISM_SETTINGS,
    QUICK_SETTINGS,
    SLOW_SETTINGS,
    STANDARD_SETTINGS,
    STATE_MACHINE_SETTINGS,
)
from strategies.stat_bags import SampleBag, stat_bags
from strategies.synopses import peer_synopses, triples

__all__ = [
    "DETERMINISM_SETTINGS",
    "QUICK_SETTINGS",
    "SLOW_SETTINGS",
    "STANDARD_SETTINGS",
    "STATE_MACHINE_SETTINGS",
    "SampleBag",
    "fanout_schedules",
    "patterns",
    "peer_synopses",
    "request_trees",
    "required_events",
    "stat_bags",
    "triple_sets",
    "triples",
]
