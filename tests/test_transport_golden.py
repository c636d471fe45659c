"""Pin the single-loop engine (``SingleLoopEngine`` over one
``SimNetwork``) to pre-refactor observables, bit-identically.

The golden file was captured on the commit immediately before the
actor/transport refactor (see ``golden_observables.py``).  These tests
re-run the same E13-E16-style workloads — plan-cache batches, churn
recall with failover on/off, limit pushdown, cost-based auto strategy,
the canonical end-to-end run, and a faulted ``ScenarioRunner`` replay
from one integer seed — and demand exact equality: same message counts,
same virtual timestamps, same rows, same drop reasons.

A failure here means the refactor changed simulation behavior, not just
structure.  Do not regenerate the golden file to make a failure pass
unless the behavior change is intentional and called out in CHANGES.md.
"""

import json

import pytest

from golden_observables import (
    GOLDEN_PATH,
    _e13_plan_cache,
    _e14_churn_recall,
    _e15_limit_pushdown,
    _e16_auto_strategy,
    _end_to_end,
    _faulted_replay,
    _round_floats,
)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def _check(golden, section, collect):
    observed = json.loads(json.dumps(_round_floats(collect())))
    assert observed == golden[section]


class TestSingleLoopEngineGolden:
    """The single-loop ``SingleLoopEngine`` against the golden file."""

    def test_end_to_end_bit_identical(self, golden):
        _check(golden, "end_to_end", _end_to_end)

    def test_e13_plan_cache_bit_identical(self, golden):
        _check(golden, "e13_plan_cache", _e13_plan_cache)

    def test_e14_churn_recall_bit_identical(self, golden):
        _check(golden, "e14_churn_recall", _e14_churn_recall)

    def test_e15_limit_pushdown_bit_identical(self, golden):
        _check(golden, "e15_limit_pushdown", _e15_limit_pushdown)

    def test_e16_auto_strategy_bit_identical(self, golden):
        _check(golden, "e16_auto_strategy", _e16_auto_strategy)

    def test_faulted_seed_replay_bit_identical(self, golden):
        _check(golden, "faulted_replay", _faulted_replay)
