"""The streaming operator runtime of the query layer.

Distributed query execution is expressed as a DAG of small operators
through which row batches *stream* as soon as they exist, instead
of the historical collect-everything-then-return callback chains:

:mod:`repro.exec.stream`
    The mechanics: :class:`~repro.exec.stream.Batch`,
    :class:`~repro.exec.stream.Operator` (push edges, input slots,
    close propagation, per-operator row/fetch counters) and
    :class:`~repro.exec.stream.PipelineContext` (the run's peer,
    cancel token and stats registry).

:mod:`repro.exec.operators`
    The algebra: ``PatternScan``, ``Reformulate``,
    ``RecursiveFanout``, ``HashJoin``, ``BoundJoin``, ``Union``,
    ``Dedup``, ``Project``, ``Limit``, ``Collect``.

:mod:`repro.exec.plans`
    Plan builders mapping the paper's three ``SearchFor`` strategies
    onto DAG shapes, plus the data-layer primitive schema peers use to
    execute received reformulations.

:mod:`repro.exec.bindings`
    ``join_batches`` (the one natural join).  The schema a pattern
    scan produces is :attr:`~repro.rdf.patterns.TriplePattern.schema`,
    in :mod:`repro.rdf.patterns`, where the scan itself is prepared.

The headline capability is **limit pushdown with cooperative
cancellation**: a satisfied ``Limit`` fires the pipeline's
:class:`~repro.simnet.events.CancelToken`; in-flight overlay
operations stop retrying and resolve immediately, and operators check
the token before issuing anything new — so a selective query stops
spending messages the moment it has enough answers, and the outcome
reports exactly how much work the early stop skipped.
"""

from repro.exec.bindings import join_batches
from repro.exec.operators import (
    BoundJoin,
    Collect,
    Dedup,
    HashJoin,
    Limit,
    PatternScan,
    Project,
    RecursiveFanout,
    Reformulate,
    Union,
    selectivity_rank,
)
from repro.exec.plans import (
    attach_execution_subplan,
    execute_query_rows,
    run_query_plan,
)
from repro.exec.stream import Batch, Operator, OperatorStats, PipelineContext

__all__ = [
    "Batch",
    "BoundJoin",
    "Collect",
    "Dedup",
    "HashJoin",
    "Limit",
    "Operator",
    "OperatorStats",
    "PatternScan",
    "PipelineContext",
    "Project",
    "RecursiveFanout",
    "Reformulate",
    "Union",
    "attach_execution_subplan",
    "execute_query_rows",
    "join_batches",
    "run_query_plan",
    "selectivity_rank",
]
