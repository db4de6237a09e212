"""Static cycle-time analysis.

The clock period of an elastic design is the longest combinational path
between sequential elements, through *both* the datapath and the control.
We model the network with a three-plane timing graph:

* plane ``D`` (data): the datapath words, producer -> consumer, through
  function-unit logic (the expensive plane);
* plane ``V`` (valid): the forward control bits — a valid crosses a
  function block through a few controller gates, *not* through the unit's
  logic;
* plane ``B`` (backward): stop and kill bits, consumer -> producer.

Each node contributes the arcs its class declares in
:meth:`~repro.elastic.node.Node.timing_arcs`, between the planes of its
ports according to its controller structure; channels contribute
zero-delay wire arcs.  The arcs come from the node classes, never from
their ``kind`` tags, so a chaos splice (a tagged function block or buffer)
is timed as the block it is.  Elastic buffers are fully registered and
contribute no through-arcs, which is what breaks the graph into a DAG; the
Figure 5 zero-backward-latency buffer contributes a backward control arc —
chain too many of them and the control path grows, exactly the caveat of
Section 4.3.

Plane crossings happen where the paper says they do:

* a lazy join's stop depends on sibling inputs' valids (``V -> B``);
* an early-evaluation mux's fire decision reads the *select data* and
  drives the output valid and the injected kill bits (``D -> V``,
  ``D -> B``) — this is how a slow select computation ends up on the
  control-critical path of a speculative loop.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.elastic.node import BWD, DATA, VALID
from repro.errors import NetlistError
from repro.netlist.graphalg import CycleError, topological_order
from repro.tech.library import DEFAULT_TECH


def timing_graph(netlist, tech=None):
    """Three-plane timing DAG of the design, as ``{u: {v: delay}}`` over
    ``(node, port, plane)`` vertices (a repeated arc keeps its last delay)."""
    tech = tech or DEFAULT_TECH
    graph = {}

    def arc(u, v, delay):
        graph.setdefault(u, {})
        graph.setdefault(v, {})
        graph[u][v] = delay

    for node in netlist.nodes.values():
        for f_port, f_plane, t_port, t_plane, delay in node.timing_arcs(tech):
            arc((node.name, f_port, f_plane), (node.name, t_port, t_plane),
                delay)
    for channel in netlist.channels.values():
        src_node, src_port = channel.producer
        dst_node, dst_port = channel.consumer
        for plane in (DATA, VALID):
            arc((src_node, src_port, plane), (dst_node, dst_port, plane), 0.0)
        arc((dst_node, dst_port, BWD), (src_node, src_port, BWD), 0.0)
    return graph


@dataclass
class TimingResult:
    """Cycle time and the responsible register-to-register path."""

    cycle_time: float
    path: list
    logic_delay: float

    def __str__(self):
        hops = " -> ".join(f"{n}.{p}[{pl}]" for n, p, pl in self.path)
        return f"cycle_time={self.cycle_time:.2f} (logic {self.logic_delay:.2f}): {hops}"


def analyze_timing(netlist, tech=None):
    """Longest-path analysis; returns a :class:`TimingResult`."""
    tech = tech or DEFAULT_TECH
    graph = timing_graph(netlist, tech)
    try:
        order = topological_order(graph, graph)
    except CycleError as loop:
        pretty = " -> ".join(f"{u[0]}.{u[1]}[{u[2]}]" for u in loop.cycle)
        raise NetlistError(
            f"combinational timing loop (chained zero-latency control?): {pretty}"
        ) from None
    dist = dict.fromkeys(graph, 0.0)
    pred = {}
    for u in order:
        for v, delay in graph[u].items():
            cand = dist[u] + delay
            if cand > dist[v]:
                dist[v] = cand
                pred[v] = u
    if not dist:
        return TimingResult(tech.register_overhead, [], 0.0)
    end = max(dist, key=lambda v: dist[v])
    logic = dist[end]
    path = [end]
    while path[-1] in pred:
        path.append(pred[path[-1]])
    path.reverse()
    return TimingResult(logic + tech.register_overhead, path, logic)


def cycle_time(netlist, tech=None):
    """Clock period estimate (logic + register overhead)."""
    return analyze_timing(netlist, tech).cycle_time


def critical_path(netlist, tech=None):
    """The register-to-register path that sets the clock period."""
    return analyze_timing(netlist, tech).path
