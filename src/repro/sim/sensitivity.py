"""Static sensitivity and structural identity of a netlist.

:func:`sensitivity` inverts every node's ``comb_reads()`` — the signals
the opposite endpoints drive that its ``comb`` reads, derived from the
method itself (:mod:`repro.sim.inline`) — into per-signal reader lists and levelizes the writer -> reader graph
into the once-per-cycle seed order.  The writer of every channel signal follows
from port roles: the producer drives ``vp``/``sm``/``data``, the consumer
drives ``sp``/``vm``.  The interpreted worklist cycle computes it at
construction and at every structure refresh after structural edits (a
codegen simulator too, whenever its netlist does not compile).  One
O(netlist) pass, the same cost as the refresh's other rebuilds, so a
simulator that followed edits holds exactly the tables a freshly
constructed one would.

:func:`topology_signature` is the module-cache key of the compiled engine
(:mod:`repro.backend.pysim`): netlists with equal signatures run the same
generated cycle function, because sequential parameters are read at run
time.
"""

from __future__ import annotations

from repro.elastic.channel import (
    CONSUMER,
    N_SIGNALS,
    PRODUCER,
    SIG_INDEX,
    SIGNALS_BY_ROLE,
)
from repro.netlist.graphalg import levelize


def sensitivity(nodes, channels):
    """``(readers, order)`` for ``nodes`` wired by ``channels``.

    ``readers[slot * N_SIGNALS + SIG_INDEX[signal]]`` lists the indices
    into ``nodes`` of the nodes whose ``comb_reads()`` list ``signal``
    of ``channels[slot]`` (reads of a port bound to no channel in
    ``channels`` are ignored).  ``order`` lists every node index once,
    writers before their readers, cyclic regions in list order (the scan
    fallback of :func:`~repro.netlist.graphalg.levelize`).
    """
    index = {node.name: i for i, node in enumerate(nodes)}
    slot_of = {channel: slot for slot, channel in enumerate(channels)}
    writer = [None] * (N_SIGNALS * len(channels))
    for slot, channel in enumerate(channels):
        for end, role in ((channel.producer, PRODUCER),
                          (channel.consumer, CONSUMER)):
            if end is not None:
                for signal in SIGNALS_BY_ROLE[role]:
                    writer[slot * N_SIGNALS + SIG_INDEX[signal]] = \
                        index.get(end[0])
    readers = [[] for _ in writer]
    succ = [[] for _ in nodes]
    for i, node in enumerate(nodes):
        bound = node._channels
        for port, signal in node.comb_reads():
            slot = slot_of.get(bound.get(port))
            if slot is None:
                continue
            sid = slot * N_SIGNALS + SIG_INDEX[signal]
            readers[sid].append(i)
            w = writer[sid]
            if w is not None and w != i:
                succ[w].append(i)
    return readers, levelize(range(len(nodes)), succ)


def topology_signature(netlist):
    """Structural identity of a netlist.

    Two netlists have equal signatures iff they have the same node names,
    classes, port lists and derived combinational reads, and the same
    channel wiring (what each node drives follows from its ports).
    Parameters that only affect *sequential* behaviour (capacities, seeds,
    schedulers, datapath functions) are deliberately excluded, so every
    configuration of one topology shares one compiled module.
    """
    nodes = tuple(
        (
            name,
            f"{type(node).__module__}.{type(node).__qualname__}",
            tuple(node.in_ports),
            tuple(node.out_ports),
            tuple(node.comb_reads()),
        )
        for name, node in netlist.nodes.items()
    )
    channels = tuple(
        (name, channel.producer, channel.consumer)
        for name, channel in netlist.channels.items()
    )
    return (nodes, channels)
