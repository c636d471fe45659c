"""Query reformulation across the network of mappings (§3, §4).

"By iterating this process over several mappings, a query can traverse
a sequence of schemas at the mediation layer and retrieve all relevant
results, irrespective of their schemas."

This package holds the *logic* of reformulation: one step,
:func:`~repro.reformulation.planner.translations`, which every strategy
runs with its own policy — the engine offline over a mapping graph
(:func:`~repro.reformulation.planner.plan_reformulations`, which its
plan cache memoizes), the iterative strategy at the origin
(:class:`repro.exec.operators.Reformulate`) and the recursive strategy
at each schema's peer (:mod:`repro.mediation.peer`, under a
``visited``-schema rule and a ``ttl``).  Nothing outside this package
calls :func:`~repro.mapping.unfolding.translate_query`.
"""

from repro.reformulation.planner import Reformulation, plan_reformulations

__all__ = ["Reformulation", "plan_reformulations"]
