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

Each node contributes arcs between the planes of its ports according to its
controller structure; channels contribute zero-delay wire arcs.  Elastic
buffers are fully registered and contribute no through-arcs, which is what
breaks the graph into a DAG; the Figure 5 zero-backward-latency buffer
contributes a backward control arc — chain too many of them and the control
path grows, exactly the caveat of Section 4.3.

Plane crossings happen where the paper says they do:

* a lazy join's stop depends on sibling inputs' valids (``V -> B``);
* an early-evaluation mux's fire decision reads the *select data* and
  drives the output valid and the injected kill bits (``D -> V``,
  ``D -> B``) — this is how a slow select computation ends up on the
  control-critical path of a speculative loop.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import NetlistError
from repro.netlist.graphalg import CycleError, topological_order
from repro.tech.library import DEFAULT_TECH

DATA = "D"
VALID = "V"
BWD = "B"


def _node_arcs(node, tech):
    """Timing arcs of one node: (from_port, from_plane, to_port, to_plane, delay)."""
    kind = node.kind
    arcs = []
    if kind == "func":
        ins = node.in_ports
        for i in ins:
            arcs.append((i, DATA, "o", DATA, node.delay))
            arcs.append((i, VALID, "o", VALID, tech.join_ctrl_delay))
            for j in ins:
                if i != j:
                    arcs.append((i, VALID, j, BWD, tech.join_ctrl_delay))
            arcs.append(("o", BWD, i, BWD, tech.join_ctrl_delay))
    elif kind == "fork":
        for k in range(node.n_outputs):
            arcs.append(("i", DATA, f"o{k}", DATA, 0.0))
            arcs.append(("i", VALID, f"o{k}", VALID, 0.0))
            arcs.append((f"o{k}", BWD, "i", BWD, tech.fork_ctrl_delay))
    elif kind == "eemux":
        data_ports = [f"i{j}" for j in range(node.n_inputs)]
        # datapath: select + selected word through the output mux
        arcs.append(("s", DATA, "o", DATA, node.delay))
        for p in data_ports:
            arcs.append((p, DATA, "o", DATA, node.delay))
        # fire decision: select *data* and valids drive output valid and
        # the kill/stop bits of every input channel
        fire_sources = [("s", DATA), ("s", VALID)] + [(p, VALID) for p in data_ports]
        fire_sinks = [("o", VALID)] + [(q, BWD) for q in ["s"] + data_ports]
        for sp, spl in fire_sources:
            for tp, tpl in fire_sinks:
                arcs.append((sp, spl, tp, tpl, tech.ee_ctrl_delay))
        for q in ["s"] + data_ports:
            arcs.append(("o", BWD, q, BWD, tech.ee_ctrl_delay))
    elif kind == "shared":
        for j in range(node.n_channels):
            arcs.append((f"i{j}", DATA, f"o{j}", DATA,
                         node.delay + tech.mux_delay(node.n_channels)))
            arcs.append((f"i{j}", VALID, f"o{j}", VALID, tech.shared_ctrl_delay))
            arcs.append((f"o{j}", BWD, f"i{j}", BWD, tech.shared_ctrl_delay))
    elif kind == "zbl_eb":
        arcs.append(("o", BWD, "i", BWD, tech.zbl_control_delay))
    elif kind == "varlat":
        # exact datapath to the (registered) output station
        arcs.append(("i", DATA, "o", DATA, node.delay))
        # F_err -> controller clock gating: the Section 5.1 critical path of
        # the stalling design (a data-to-control crossing ending at the
        # input stop)
        arcs.append(("i", DATA, "i", BWD, node.err_path_delay))
    # eb / sources / sinks: registered or terminal — no arcs.
    return arcs


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
        for f_port, f_plane, t_port, t_plane, delay in _node_arcs(node, tech):
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
