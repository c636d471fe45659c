"""Cost-based adaptive query optimization.

The optimizer turns the statistics of :mod:`repro.stats` into
execution decisions:

* **join order** — pattern scans and :class:`~repro.exec.operators.
  BoundJoin` steps run most-selective-first by *estimated cardinality*
  instead of the static constant-shape heuristic;
* **join mode** — parallel vs bound conjunctive joins picked per query
  from a message+latency+volume cost model;
* **reformulation pruning** — mapping-path fan-out whose expected
  yield (mapping confidence × target cardinality) is zero is never
  fetched;
* **strategy choice** — ``strategy="auto"`` selects ``local``,
  ``iterative`` or ``recursive`` per query.

Every decision is recorded on the
:class:`~repro.mediation.query.QueryOutcome` as a
:class:`~repro.optimizer.core.PlanDecision` (estimated vs. actual rows
and messages included), and everything degrades gracefully: with no
statistics propagated yet, the optimizer reports ``fallback=True`` and
execution is bit-identical to the static paths.
"""

from repro.optimizer.core import PlanDecision, QueryOptimizer

__all__ = ["PlanDecision", "QueryOptimizer"]
