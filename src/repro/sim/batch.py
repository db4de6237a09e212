"""Structural identity of a netlist.

:func:`topology_signature` is the module-cache key of the compiled engine
(:mod:`repro.backend.pysim`): netlists with equal signatures run the same
generated cycle function, because sequential parameters are read at run
time.
"""

from __future__ import annotations


def topology_signature(netlist):
    """Structural identity of a netlist.

    Two netlists have equal signatures iff they have the same node names,
    classes, port lists and declared combinational sensitivities, and the
    same channel wiring.  Parameters that only affect *sequential*
    behaviour (capacities, seeds, schedulers, datapath functions) are
    deliberately excluded, so every configuration of one topology shares
    one compiled module.
    """
    nodes = tuple(
        (
            name,
            f"{type(node).__module__}.{type(node).__qualname__}",
            tuple(node.in_ports),
            tuple(node.out_ports),
            tuple(node.comb_reads()),
            tuple(node.comb_writes()),
        )
        for name, node in netlist.nodes.items()
    )
    channels = tuple(
        (name, channel.producer, channel.consumer)
        for name, channel in netlist.channels.items()
    )
    return (nodes, channels)
