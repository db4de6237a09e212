"""Graph algorithms over plain adjacency mappings (standard library only).

Every analysis in the toolkit that needs a graph algorithm gets it here:
the linter and the speculation finder (strongly connected components), the
simulation engines (levelized seed orders), static timing (topological
order with a cycle witness) and marked-graph throughput (minimum cycle
ratio).  Graphs are passed as ``adj`` mappings from each node to an
iterable of its successors — a list, a set, or a dict keyed by successor —
or, for the cycle ratio, as a list of weighted multigraph edges.  Nodes are
any hashable values; every successor must itself be a key of ``adj``.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction


def sccs(nodes, adj):
    """Iterative Tarjan: strongly connected components, as name lists."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    result = []
    counter = [0]
    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(adj[root]))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in index:
                    index[succ] = low[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(adj[succ])))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                result.append(component)
    return result


def cyclic_sccs(nodes, adj):
    """The components of :func:`sccs` that contain a cycle: more than one
    node, or a single node with a self-loop."""
    return [
        component
        for component in sccs(nodes, adj)
        if len(component) > 1 or component[0] in adj[component[0]]
    ]


def levelize(indices, succ):
    """Kahn topological sort of ``indices`` over the ``succ`` adjacency
    (``succ[i]`` iterable of successors), with the scan fallback that seeds
    cyclic regions in declaration order."""
    live = list(indices)
    indegree = {i: 0 for i in live}
    for i in live:
        for j in succ[i]:
            indegree[j] += 1
    order = []
    placed = set()
    ready = deque(i for i in live if indegree[i] == 0)
    scan = 0
    while len(order) < len(live):
        if not ready:
            while live[scan] in placed:
                scan += 1
            ready.append(live[scan])
        i = ready.popleft()
        if i in placed:
            continue
        placed.add(i)
        order.append(i)
        for j in succ[i]:
            indegree[j] -= 1
            if indegree[j] == 0 and j not in placed:
                ready.append(j)
    return order


class CycleError(ValueError):
    """:func:`topological_order` met a cycle; ``cycle`` lists its nodes in
    edge order (the last node has an edge back to the first)."""

    def __init__(self, cycle):
        super().__init__("graph has a cycle: " + " -> ".join(map(repr, cycle)))
        self.cycle = cycle


def topological_order(nodes, succ):
    """Kahn topological order of an acyclic graph, breadth first: the
    sources in ``nodes`` order, then each node once its last predecessor is
    placed.  Raises :class:`CycleError` otherwise, naming one cycle from
    its node that comes first in ``nodes``."""
    indegree = dict.fromkeys(nodes, 0)
    for u in indegree:
        for v in succ[u]:
            indegree[v] += 1
    order = [v for v, d in indegree.items() if d == 0]
    for u in order:                         # grows while it is walked
        for v in succ[u]:
            indegree[v] -= 1
            if indegree[v] == 0:
                order.append(v)
    if len(order) == len(indegree):
        return order
    # Every unplaced node keeps an unplaced predecessor, so walking those
    # predecessors backwards from any unplaced node must close a cycle.
    pred = {}
    for u, d in indegree.items():
        if d:
            for v in succ[u]:
                pred.setdefault(v, u)
    walk = {}
    node = next(v for v, d in indegree.items() if d)
    while node not in walk:
        walk[node] = len(walk)
        node = pred[node]
    cycle = list(walk)[walk[node]:]
    cycle.reverse()
    on_cycle = set(cycle)
    first = cycle.index(next(v for v in indegree if v in on_cycle))
    raise CycleError(cycle[first:] + cycle[:first])


class NonPositiveCycle(ValueError):
    """:func:`min_cycle_ratio` found a cycle whose tokens sum to zero or
    less: ``cycle`` lists its edges in order, ``tokens`` and ``latency``
    are their sums."""

    def __init__(self, cycle):
        self.cycle = cycle
        self.tokens = sum(edge[2] for edge in cycle)
        self.latency = sum(edge[3] for edge in cycle)
        super().__init__(f"cycle with {self.tokens} tokens and latency "
                         f"{self.latency}")


def min_cycle_ratio(edges):
    """Exact minimum of ``tokens / latency`` over the cycles of a multigraph.

    ``edges`` is a list of ``(u, v, tokens, latency)`` with integer tokens
    and non-negative integer latencies; parallel edges and self-loops are
    allowed.  Returns a :class:`Fraction`, or ``None`` when no cycle has
    positive latency.  Raises :class:`NonPositiveCycle` when some cycle
    holds no positive token count: a zero-latency such cycle is reported
    in preference to any other.

    The ratio is found by a parametric negative-cycle search (Lawler's
    method with Dinkelbach steps).  ``tokens - r * latency`` has a
    negative cycle exactly when the minimum ratio is below ``r``; each
    Bellman-Ford probe either finds such a cycle, whose own ratio becomes
    the new upper bound, or proves ``r`` a lower bound.  Probing the upper
    bound ends the search as soon as it is optimal; probing the midpoint
    halves the bracket otherwise.  Two simple-cycle ratios with latencies
    at most ``D`` (the total latency) that differ, differ by at least
    ``1 / D**2``, so the search ends after ``O(log(T * D**2))`` probes
    (``T`` the total positive tokens), each ``O(V * E)`` integer work.
    """
    index = {}
    arcs = []
    for u, v, tokens, latency in edges:
        arcs.append((index.setdefault(u, len(index)),
                     index.setdefault(v, len(index)), tokens, latency))
    n = len(index)
    # tokens * (n + 1) - 1 is negative around a simple cycle (at most n
    # edges) exactly when the cycle's tokens are not positive.
    zero = [k for k, arc in enumerate(arcs) if arc[3] == 0]
    for subset in (zero, range(len(arcs))):
        cycle = _negative_cycle(
            n, [(arcs[k][0], arcs[k][1], arcs[k][2] * (n + 1) - 1)
                for k in subset])
        if cycle is not None:
            raise NonPositiveCycle([edges[subset[k]] for k in cycle])

    def cheaper(ratio):
        """Ratio of a cycle below ``ratio``, or None if there is none."""
        p, q = ratio.numerator, ratio.denominator
        cycle = _negative_cycle(
            n, [(u, v, q * tokens - p * latency)
                for u, v, tokens, latency in arcs])
        if cycle is None:
            return None
        return Fraction(sum(arcs[k][2] for k in cycle),
                        sum(arcs[k][3] for k in cycle))

    best = cheaper(Fraction(sum(a[2] for a in arcs if a[2] > 0) + 1))
    if best is None:
        return None
    low = Fraction(0)
    while True:
        better = cheaper(best)
        if better is None:
            return best
        best = better
        middle = (low + best) / 2
        better = cheaper(middle)
        if better is None:
            low = middle
        else:
            best = better


def _negative_cycle(n, arcs):
    """Bellman-Ford from a virtual source over nodes ``0 .. n-1``: the
    indices (in order) of the ``(u, v, weight)`` arcs of a negative cycle,
    or None when there is none.

    A negative cycle shows up as a cycle of the predecessor edges, at the
    latest after ``n`` passes; checking for one after every pass stops the
    search early.
    """
    dist = [0] * n
    pred = [None] * n
    while True:
        changed = False
        for k, (u, v, weight) in enumerate(arcs):
            d = dist[u] + weight
            if d < dist[v]:
                dist[v] = d
                pred[v] = k
                changed = True
        if not changed:
            return None
        cycle = _predecessor_cycle(pred, arcs)
        if cycle is not None:
            return cycle


def _predecessor_cycle(pred, arcs):
    """A cycle of the predecessor edges (arc indices in order), or None."""
    seen = [None] * len(pred)
    for start in range(len(pred)):
        node = start
        while pred[node] is not None and seen[node] is None:
            seen[node] = start
            node = arcs[pred[node]][0]
        if seen[node] == start:
            cycle = []
            at = node
            while True:
                cycle.append(pred[at])
                at = arcs[pred[at]][0]
                if at == node:
                    break
            cycle.reverse()
            return cycle
    return None
