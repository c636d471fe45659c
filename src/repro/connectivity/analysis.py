"""Ground-truth graph connectivity: Tarjan SCCs and weak components.

The indicator of :mod:`repro.connectivity.indicator` is an estimate
from degree statistics; experiments E3/E4 compare it against the real
component structure of the mapping graph, computed here.  Tarjan's
algorithm is implemented iteratively (mapping graphs in E3 sweep to
thousands of nodes, beyond Python's recursion limit).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping


Graph = Mapping[str, Iterable[str]]


def _normalize(graph: Graph) -> dict[str, list[str]]:
    """Materialize adjacency and make every referenced node a key."""
    adjacency: dict[str, list[str]] = {}
    for node, neighbors in graph.items():
        adjacency.setdefault(node, [])
        for n in neighbors:
            adjacency[node].append(n)
            adjacency.setdefault(n, [])
    return adjacency


def strongly_connected_components(graph: Graph) -> list[set[str]]:
    """Tarjan's SCC algorithm, iterative formulation.

    ``graph`` maps node -> iterable of successor nodes.  Returns the
    SCCs as sets, largest first (ties broken by smallest member for
    determinism).

    >>> sccs = strongly_connected_components({"a": ["b"], "b": ["a"], "c": []})
    >>> sorted(len(c) for c in sccs)
    [1, 2]
    """
    adjacency = _normalize(graph)
    index_counter = 0
    indices: dict[str, int] = {}
    lowlinks: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[set[str]] = []

    for root in sorted(adjacency):
        if root in indices:
            continue
        # Each frame: (node, iterator over remaining successors).
        work = [(root, iter(adjacency[root]))]
        indices[root] = lowlinks[root] = index_counter
        index_counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for successor in successors:
                if successor not in indices:
                    indices[successor] = lowlinks[successor] = index_counter
                    index_counter += 1
                    stack.append(successor)
                    on_stack.add(successor)
                    work.append((successor, iter(adjacency[successor])))
                    advanced = True
                    break
                if successor in on_stack:
                    lowlinks[node] = min(lowlinks[node], indices[successor])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlinks[parent] = min(lowlinks[parent], lowlinks[node])
            if lowlinks[node] == indices[node]:
                component: set[str] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                components.append(component)
    components.sort(key=lambda c: (-len(c), min(c)))
    return components


def giant_scc_fraction(graph: Graph) -> float:
    """Size of the largest SCC divided by the number of nodes.

    The operational meaning of "giant connected component" in E3: the
    indicator's sign should track whether this fraction is large
    (a constant fraction of all schemas) or vanishing.
    """
    adjacency = _normalize(graph)
    if not adjacency:
        return 0.0
    components = strongly_connected_components(adjacency)
    return len(components[0]) / len(adjacency)
