"""The speculation pipeline (Section 4).

Speculation is introduced by composing four provably-correct steps:

1. *find* a critical cycle running from the output of a multiplexor to its
   select input — when such a cycle is critical, bubble insertion and
   retiming cannot help (Figure 1(b)) and Shannon decomposition alone
   duplicates logic (Figure 1(c));
2. *Shannon-decompose* the block out of the critical cycle;
3. *convert* the multiplexor to early evaluation;
4. *share* the duplicated copies behind one unit with a predictive
   scheduler.

Because every step is a correct-by-construction transformation, the
resulting speculative design is transfer-equivalent to the original
regardless of the prediction strategy — which the equivalence tests in
``tests/`` check by co-simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.elastic.eemux import EarlyEvalMux
from repro.elastic.functional import Func
from repro.errors import TransformError
from repro.netlist.graphalg import sccs
from repro.transform.base import is_primitive
from repro.transform.bubbles import insert_bubble, insert_zbl_buffer
from repro.transform.early_eval import convert_to_early_eval
from repro.transform.shannon import shannon_decompose
from repro.transform.sharing import share_blocks


@dataclass
class SpeculationReport:
    """Record of a speculation pipeline application."""

    mux: str
    func: str
    shared: str
    records: list = field(default_factory=list)
    buffer_names: tuple = ()

    def __str__(self):
        steps = "; ".join(str(r) for r in self.records)
        return f"speculate({self.func} behind {self.mux} -> {self.shared}): {steps}"


def node_graph(netlist):
    """Node-level adjacency of the netlist: node name -> successor names,
    one entry per channel."""
    graph = {name: [] for name in netlist.nodes}
    for channel in netlist.channels.values():
        graph[channel.producer[0]].append(channel.consumer[0])
    return graph


def find_speculation_candidates(netlist):
    """Mux/function pairs eligible for speculation: a multiplexor whose
    output feeds a 1-input function block, where mux and block lie on a
    common cycle through the select input (the Section 4 step-1 pattern).

    Returns a list of ``(mux_name, func_name)`` pairs.
    """
    graph = node_graph(netlist)
    components = {
        node: idx
        for idx, comp in enumerate(sccs(graph, graph))
        for node in comp
    }
    candidates = []
    for node in netlist.nodes.values():
        is_lazy_mux = getattr(node, "is_mux", False)
        is_ee_mux = isinstance(node, EarlyEvalMux)
        if not (is_lazy_mux or is_ee_mux):
            continue
        out_channel = node.channel(node.out_ports[0])
        consumer_name, _ = out_channel.consumer
        consumer = netlist.nodes[consumer_name]
        if not is_primitive(consumer, Func) or consumer.n_inputs != 1:
            continue
        sel_port = "s" if is_ee_mux else "i0"
        sel_channel = node.channel(sel_port)
        sel_producer, _ = sel_channel.producer
        same_cycle = (
            components[node.name] == components[consumer_name] == components[sel_producer]
        )
        if same_cycle:
            candidates.append((node.name, consumer_name))
    return candidates


def speculate(netlist, mux_name, func_name, scheduler, buffers="none"):
    """Apply the full Section 4 pipeline in place.

    Parameters
    ----------
    buffers:
        ``"none"`` — shared module feeds the mux directly (the Figure 1(d)
        ``Lf = 0, Lb = 0`` case); ``"standard"`` — insert ordinary EBs
        (``Lb = 1``, exposing the Section 4.1 backward-latency bottleneck);
        ``"zbl"`` — insert zero-backward-latency buffers (Figure 5).

    Returns a :class:`SpeculationReport`.
    """
    if buffers not in ("none", "standard", "zbl"):
        raise TransformError(f"speculate: bad buffers mode {buffers!r}")
    records = []
    rec = shannon_decompose(netlist, mux_name, func_name)
    records.append(rec)
    copies = list(rec.details["copies"])
    mux = netlist.nodes[mux_name]
    if not isinstance(mux, EarlyEvalMux):
        records.append(convert_to_early_eval(netlist, mux_name))
    records.append(share_blocks(netlist, copies, scheduler, name=None))
    shared_name = records[-1].details["shared"]
    buffer_names = []
    if buffers != "none":
        shared = netlist.nodes[shared_name]
        for j in range(shared.n_channels):
            channel = shared.channel(f"o{j}")
            if buffers == "standard":
                rec, eb_name = insert_bubble(netlist, channel.name)
            else:
                rec, eb_name = insert_zbl_buffer(netlist, channel.name)
            records.append(rec)
            buffer_names.append(eb_name)
    netlist.validate()
    return SpeculationReport(
        mux=mux_name,
        func=func_name,
        shared=shared_name,
        records=records,
        buffer_names=tuple(buffer_names),
    )
