"""Bubble insertion and removal (Section 3.3).

"It is always possible to insert or remove an empty EB on any channel
keeping the same design functionality" — an empty EB is a token followed by
an anti-token (``0 = 1 - 1``).  Inserting one cuts a combinational path
(improving cycle time) but adds a cycle of latency to the channel, which is
exactly the throughput trade-off Figure 1(b) illustrates.
"""

from __future__ import annotations

from repro.elastic.buffers import ElasticBuffer, ZeroBackwardLatencyBuffer
from repro.errors import TransformError
from repro.transform.base import TransformRecord, is_primitive, splice_node, unsplice_node


def insert_bubble(netlist, channel_name, name=None, capacity=2):
    """Insert an empty :class:`ElasticBuffer` into ``channel_name``.

    Returns ``(record, eb_name)``.
    """
    name = name or netlist.fresh_name(f"bub_{channel_name}")
    eb = ElasticBuffer(name, init=(), capacity=capacity)
    tail = splice_node(netlist, channel_name, eb)
    record = TransformRecord(
        "insert_bubble", {"channel": channel_name, "eb": name, "tail": tail}
    )
    return record, name


def insert_zbl_buffer(netlist, channel_name, name=None):
    """Insert an empty zero-backward-latency buffer (Figure 5) — used to
    keep anti-tokens rushing while still cutting the forward path."""
    name = name or netlist.fresh_name(f"zbl_{channel_name}")
    eb = ZeroBackwardLatencyBuffer(name, init=())
    tail = splice_node(netlist, channel_name, eb)
    record = TransformRecord(
        "insert_zbl_buffer", {"channel": channel_name, "eb": name, "tail": tail}
    )
    return record, name


def remove_empty_buffer(netlist, eb_name):
    """Remove an *empty* elastic buffer (the inverse of bubble insertion).

    Removing a token-holding buffer would change the marking of the design,
    so it is rejected.
    """
    node = netlist.nodes.get(eb_name)
    if node is None:
        raise TransformError(f"no node {eb_name!r}")
    if not is_primitive(node, ElasticBuffer, ZeroBackwardLatencyBuffer):
        raise TransformError(f"{eb_name!r} is not an elastic buffer")
    if node.count != 0:
        raise TransformError(
            f"cannot remove {eb_name!r}: it holds {node.count} token(s)/anti-token(s)"
        )
    channel = unsplice_node(netlist, eb_name)
    return TransformRecord("remove_empty_buffer", {"eb": eb_name, "channel": channel})
