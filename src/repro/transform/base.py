"""Shared machinery for netlist transformations.

All transformations are *local graph rewrites* applied in place; each
returns a :class:`TransformRecord` describing what changed.  Every rewrite
here (and in the five transformation modules built on it) mutates the
design exclusively through the netlist's four structural mutators —
``add`` / ``remove`` / ``connect`` / ``disconnect`` — so each step lands in
the netlist's edit log: the :class:`~repro.transform.session.Session`
records the emitted :class:`~repro.netlist.edits.NetlistEdit` stream as its
undo/redo history, and a live simulator following the log stays current
instead of being rebuilt.

Each rewrite is correct by construction only on the controller primitives
it was proven for, so its guards ask :func:`is_primitive`: the node's
exact class, and that it is not a chaos splice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.elastic.node import PortRole
from repro.errors import TransformError


@dataclass
class TransformRecord:
    """What a transformation did (for session logs and reports)."""

    kind: str
    details: dict = field(default_factory=dict)

    def __str__(self):
        items = ", ".join(f"{k}={v}" for k, v in self.details.items())
        return f"{self.kind}({items})"


def is_primitive(node, *classes):
    """True when ``node`` is exactly one of the controller primitives
    ``classes`` and belongs to the design itself.

    A subclass may change the controller a rewrite was proven for (the
    chaos mutants do), so it is refused.  So is a chaos splice
    (:attr:`~repro.elastic.node.Node.splice_of` set): it is built from the
    same classes but is instrumentation, which :func:`repro.chaos.unwrap`
    must find intact — a rate-0 splice bubble is an empty EB, yet no
    transformation may remove it."""
    return type(node) in classes and node.splice_of is None


def splice_node(netlist, channel_name, node, in_port=None, out_port=None):
    """Insert ``node`` into the middle of a channel.

    The original channel ``src -> dst`` becomes ``src -> node`` (keeping the
    original channel name, so traces and stats stay addressable) plus
    ``node -> dst`` (a fresh name).
    """
    if channel_name not in netlist.channels:
        raise TransformError(f"no channel {channel_name!r}")
    width = netlist.channels[channel_name].width
    (src_node, src_port), (dst_node, dst_port) = netlist.disconnect(channel_name)
    netlist.add(node)
    in_port = in_port or _only(node.in_ports, node, "input")
    out_port = out_port or _only(node.out_ports, node, "output")
    netlist.connect((src_node, src_port), (node.name, in_port), name=channel_name, width=width)
    out_name = netlist.fresh_name(f"{channel_name}__tail")
    netlist.connect((node.name, out_port), (dst_node, dst_port), name=out_name, width=width)
    return out_name


def unsplice_node(netlist, node_name):
    """Remove a 1-in/1-out node, reconnecting its neighbours directly.

    The upstream channel keeps its name.
    """
    node = netlist.nodes[node_name]
    if len(node.in_ports) != 1 or len(node.out_ports) != 1:
        raise TransformError(f"{node_name!r} is not a 1-in/1-out node")
    in_ch = node.channel(node.in_ports[0])
    out_ch = node.channel(node.out_ports[0])
    keep_name, width = in_ch.name, in_ch.width
    (src_node, src_port), _ = netlist.disconnect(in_ch.name)
    _, (dst_node, dst_port) = netlist.disconnect(out_ch.name)
    netlist.remove(node_name)
    netlist.connect((src_node, src_port), (dst_node, dst_port), name=keep_name, width=width)
    return keep_name


def replace_node(netlist, old_name, new_node, port_map):
    """Swap ``old_name`` for ``new_node``, rewiring channels per ``port_map``
    (old port -> new port).  Channel names, widths and far endpoints are
    preserved."""
    old = netlist.nodes[old_name]
    moves = []
    for port in list(old._channels):
        if port not in port_map:
            raise TransformError(
                f"replace_node: no mapping for connected port {old_name}.{port}"
            )
        channel = old.channel(port)
        role = old.role_of(port)
        if role == PortRole.IN:
            far = channel.producer
        else:
            far = channel.consumer
        moves.append((port_map[port], role, far, channel.name, channel.width))
        netlist.disconnect(channel.name)
    netlist.remove(old_name)
    netlist.add(new_node)
    for new_port, role, far, channel_name, width in moves:
        if role == PortRole.IN:
            netlist.connect(far, (new_node.name, new_port), name=channel_name, width=width)
        else:
            netlist.connect((new_node.name, new_port), far, name=channel_name, width=width)
    return new_node


def _only(ports, node, what):
    if len(ports) != 1:
        raise TransformError(f"{node.name!r} has {len(ports)} {what} ports; specify one")
    return ports[0]
