"""The one natural join of the operator plane.

Rows move through the operator runtime as
:class:`~repro.exec.stream.Batch` objects (a variable schema plus row
tuples); a scan of a triple pattern produces the pattern's own
:attr:`~repro.rdf.patterns.TriplePattern.schema`.
:func:`join_batches` is the one natural join — ``HashJoin`` folds its
inputs with it and ``BoundJoin`` joins each fetched step with it.  The
Hypothesis property suite in ``tests/strategies/`` checks it against a
naive nested-loop join over :meth:`Batch.to_bindings`.
"""

from __future__ import annotations

from repro.exec.stream import Batch


def join_batches(left: Batch, right: Batch) -> Batch:
    """Natural join of two batches.

    Shared variables are compared in sorted-by-name order, the hash
    table is built over the right side in arrival order, and output
    rows stream left-outer (each left row against its bucket in bucket
    order); with no shared variable the result is the cross product in
    the same order.  The output schema is the left schema followed by
    the right-only variables.

    The unit relation (``schema == ()``, one row) is the join
    identity, so executors seed folds with ``Batch((), tuples=[()])``.
    """
    lschema, rschema = left.schema, right.schema
    lset = set(lschema)
    out_schema = lschema + tuple(v for v in rschema if v not in lset)
    if not left.count or not right.count:
        return Batch(out_schema, tuples=[])
    shared = sorted(lset & set(rschema), key=lambda v: v.value)
    ltuples, rtuples = left.tuples(), right.tuples()
    out: list[tuple]
    if not shared:
        # Cross product, left-outer order.
        out = [lt + rt for lt in ltuples for rt in rtuples]
        return Batch(out_schema, tuples=out)
    l_idx = [lschema.index(v) for v in shared]
    r_idx = [rschema.index(v) for v in shared]
    r_keep = [i for i, v in enumerate(rschema) if v not in lset]
    buckets: dict[tuple, list] = {}
    for rt in rtuples:
        buckets.setdefault(tuple(rt[i] for i in r_idx), []).append(
            tuple(rt[i] for i in r_keep))
    out = []
    get = buckets.get
    for lt in ltuples:
        bucket = get(tuple(lt[i] for i in l_idx))
        if bucket:
            for tail in bucket:
                out.append(lt + tail)
    return Batch(out_schema, tuples=out)
