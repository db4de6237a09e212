"""Analytical throughput of plain elastic designs: minimum cycle ratio.

A plain elastic network (no early evaluation) behaves as a *marked graph*;
its steady-state throughput is limited by the worst cycle:

    throughput = min over directed cycles C of  tokens(C) / latency(C)

capped at 1 transfer/cycle.  Each elastic buffer contributes a forward edge
(latency ``Lf``, marking = its tokens) and a backward edge (latency ``Lb``,
marking = capacity - tokens); the backward edges express finite capacity —
they are why a capacity-1 buffer (``C < Lf + Lb``) halves throughput, and
why the Figure 1(b) bubble-in-a-one-token-loop yields exactly 1/2.

The minimum is computed exactly, without enumerating cycles, by
:func:`repro.netlist.graphalg.min_cycle_ratio`: a parametric
negative-cycle search over :class:`~fractions.Fraction` ratios that runs
``O(log(T * D**2))`` Bellman-Ford probes of ``O(V * E)`` each on the
contracted graph (``V`` combinational clouds, ``E`` = two edges per
buffer, ``T`` the total tokens, ``D`` the total latency).  Parallel
buffers between the same clouds cost one edge each, not a product of
choices per cycle.

Early evaluation and speculation *break* the marked-graph abstraction (that
is the point of the paper); for those designs use simulation
(:mod:`repro.perf.throughput`).  :func:`marked_graph_throughput` refuses
early-evaluation designs unless ``force=True``.
"""

from __future__ import annotations

import weakref

from repro.core.shared import SharedModule
from repro.elastic.buffers import ElasticBuffer, ZeroBackwardLatencyBuffer
from repro.elastic.eemux import EarlyEvalMux
from repro.errors import NetlistError
from repro.netlist import graphalg


def _cloud_graph(netlist):
    """Contract combinational regions into clouds; EBs become weighted edges.

    Clouds are formed over *channels*: two channels belong to the same
    cloud when a combinational (non-buffer) node connects them.  Each
    elastic buffer then contributes a forward edge (latency ``Lf``, marking
    = its tokens) from its input-channel cloud to its output-channel cloud,
    and a backward capacity edge (latency ``Lb``, marking = capacity -
    tokens).  Returns the edges as ``(src, dst, tokens, latency)``
    tuples, the input of :func:`repro.netlist.graphalg.min_cycle_ratio`.
    """
    parent = {name: name for name in netlist.channels}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    buffers = []
    for node in netlist.nodes.values():
        if isinstance(node, ElasticBuffer):
            buffers.append((node, 1))
            continue
        if isinstance(node, ZeroBackwardLatencyBuffer):
            buffers.append((node, 0))
            continue
        connected = [node.channel(p).name for p in node.ports if p in node._channels]
        for other in connected[1:]:
            union(connected[0], other)
    edges = []
    for eb, lb in buffers:
        src_cloud = find(eb.channel("i").name)
        dst_cloud = find(eb.channel("o").name)
        tokens = max(eb.count, 0)
        anti = max(-eb.count, 0)
        edges.append((src_cloud, dst_cloud, tokens - anti, 1))
        edges.append((dst_cloud, src_cloud, eb.capacity - tokens + anti, lb))
    return edges


def _has_early_eval(netlist):
    return any(isinstance(node, (EarlyEvalMux, SharedModule))
               for node in netlist.nodes.values())


def min_cycle_ratio(netlist, force=False):
    """Minimum tokens/latency over all cycles, as a :class:`Fraction`,
    or ``None`` when the design has no cycles (throughput then 1.0).

    Raises on zero-latency cycles (combinational capacity loops) and on
    cycles with non-positive marking (structural deadlock)."""
    if _has_early_eval(netlist) and not force:
        raise NetlistError(
            "marked-graph analysis is not valid for early-evaluation / "
            "speculative designs; use simulation (pass force=True to override)"
        )
    try:
        return graphalg.min_cycle_ratio(_cloud_graph(netlist))
    except graphalg.NonPositiveCycle as witness:
        if witness.latency == 0:
            raise NetlistError(
                "zero-latency cycle with no slack (combinational "
                "capacity loop)"
            ) from None
        raise NetlistError(
            f"cycle with {witness.tokens} tokens and latency "
            f"{witness.latency}: structural deadlock"
        ) from None


#: netlist -> (structural version, force flag, ratio) memo for
#: :func:`cached_min_cycle_ratio` (weak keys: dropping a netlist drops its
#: cache entry).
_MCR_CACHE = weakref.WeakKeyDictionary()


def cached_min_cycle_ratio(netlist, force=False):
    """:func:`min_cycle_ratio` memoized on the netlist's structural
    ``version``.

    The session-attached analysis mode of the transform loop: the
    parametric search (a few Bellman-Ford probes over the contracted
    graph, see :func:`repro.netlist.graphalg.min_cycle_ratio`) is only
    redone after an actual structural edit, so
    repeated scoring of an unchanged design point (or pure undo/redo
    round-trips back to a cached version... which still bumps the version,
    and therefore recomputes — the memo is per *current* version only) is
    free.  Token-marking changes without structural edits are not detected;
    use :func:`min_cycle_ratio` directly when mutating markings in place.
    """
    version = netlist.version
    entry = _MCR_CACHE.get(netlist)
    if entry is not None and entry[0] == version and entry[1] == force:
        return entry[2]
    ratio = min_cycle_ratio(netlist, force=force)
    _MCR_CACHE[netlist] = (version, force, ratio)
    return ratio


def marked_graph_throughput(netlist, force=False):
    """Analytical steady-state throughput in transfers/cycle (<= 1.0)."""
    ratio = min_cycle_ratio(netlist, force=force)
    if ratio is None:
        return 1.0
    return min(1.0, float(ratio))
