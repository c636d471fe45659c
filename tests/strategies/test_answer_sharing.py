"""One Answer per distinct reformulation changes nothing a batch reports.

An engine batch builds one :class:`~repro.exec.operators.Answer` per
distinct reformulation and wires it to the ``Collect`` of every query
whose plan holds it.  The oracle is the same batch with one answer per
(query, reformulation) use: ``_answer_key`` patched to a fresh key per
use.  On generated deployments and batches — duplicate queries,
alpha-variants, queries that are each other's reformulations, joins
whose reformulations share a scan, limits ``None`` and ``1..8`` —
every outcome field (``results_by_query`` in insertion order), the
fetch statistics and the message count must be the oracle's.  Under a
limit a ``Collect`` truncates in arrival order and a satisfied batch
stamps its late rows at once, so this also checks that sharing moves
no row across another.  Run under ``PYTHONHASHSEED=random`` in CI: no
hash order may decide which answer a collect is wired to.
"""

from unittest import mock

from hypothesis import example, given

from repro.engine import executor

from strategies import (
    STANDARD_SETTINGS,
    SharingCase,
    run_sharing_case,
    sharing_cases,
)


def observed(result) -> tuple:
    """Everything a batch reports, order-sensitive where the order is
    observable."""
    outcomes = []
    for outcome in result.outcomes:
        fields = dict(vars(outcome))
        fields["results_by_query"] = list(
            outcome.results_by_query.items())
        outcomes.append(fields)
    return outcomes, result.fetch_stats.snapshot(), result.messages


def per_use_key(query, wiring):
    """A key no other use shares: one Answer per use."""
    return object()


@STANDARD_SETTINGS
@given(case=sharing_cases())
# S1's two joins both reformulate into S0's ``org``/``len`` join, which
# shares its ``len`` scan with the second join: the reused answer would
# close ahead of that join's own, reversing the second query's order.
@example(SharingCase(seed=0, schemas=2, mappings=((1, 0, ("org", "len")),),
                     batch=(10, 11), limit=None, origin=0,
                     densities=(0.5, 0.5)))
# The first query's answers sit behind the second's on the ``S0#len``
# scan; reusing them for the third query, under a limit, would move
# late rows past the batch's end.
@example(SharingCase(seed=542, schemas=2, mappings=((1, 0, ("org",)),),
                     batch=(11, 1, 11), limit=1, origin=23,
                     densities=(0.1, 0.1)))
# Two queries share their S1 answer; the one already satisfied counts
# its rows as late only if it gets them before the other query's
# satisfaction ends the batch: the answer must hand off in use order.
@example(SharingCase(seed=2, schemas=2, mappings=((0, 1, ("org", "len")),),
                     batch=(8, 1), limit=2, origin=20, densities=(0.9, 0.3)))
def test_shared_answers_equal_one_answer_per_use(case):
    shared = observed(run_sharing_case(case))
    with mock.patch.object(executor, "_answer_key", per_use_key):
        per_use = observed(run_sharing_case(case))
    assert shared == per_use
