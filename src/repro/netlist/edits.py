"""Structured netlist edit records — the transform edit log.

Every structural mutation of a :class:`~repro.netlist.graph.Netlist` —
adding or removing a node, connecting or disconnecting a channel — emits
one :class:`NetlistEdit` through the netlist's subscriber API
(:meth:`Netlist.subscribe`) and bumps the netlist's monotonically
increasing ``version``.  The records are what makes the
transform-simulate-measure loop incremental:

* :class:`~repro.transform.session.Session` keeps its undo/redo history as
  inverse-edit lists (O(edit) per transform instead of O(netlist) clones);
* a live :class:`~repro.sim.engine.Simulator` subscribes, claims each
  connected channel and re-derives its structures once before the next
  step, instead of being rebuilt from a netlist clone after every
  transformation.

Each edit knows its :meth:`inverse` and can :meth:`apply` itself to a
netlist (replaying through the public mutators, so subscribers observe the
replay too).  Edits are *structural only* — sequential state (buffer
tokens, RNG positions, counters) is carried by the node objects themselves
and is not recorded; use :meth:`Netlist.snapshot` / :meth:`Netlist.restore`
to rewind dynamic state.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Edit kinds (the ``op`` field of :class:`NetlistEdit`).
ADD_NODE = "add_node"
REMOVE_NODE = "remove_node"
CONNECT = "connect"
DISCONNECT = "disconnect"

_INVERSE_OP = {
    ADD_NODE: REMOVE_NODE,
    REMOVE_NODE: ADD_NODE,
    CONNECT: DISCONNECT,
    DISCONNECT: CONNECT,
}


@dataclass(frozen=True)
class NetlistEdit:
    """One structural mutation of a netlist.

    ``op`` is one of :data:`ADD_NODE`, :data:`REMOVE_NODE`,
    :data:`CONNECT`, :data:`DISCONNECT`.  Node edits carry the node
    *object* (a removed node holds no channel bindings, so re-adding the
    same object on undo is safe and preserves its sequential state);
    channel edits carry the channel name, both endpoints and the width —
    everything needed to replay or invert the mutation.
    """

    op: str
    node: object = None        #: the Node (add_node / remove_node)
    channel: str = None        #: channel name (connect / disconnect)
    src: tuple = None          #: (node_name, port) producer endpoint
    dst: tuple = None          #: (node_name, port) consumer endpoint
    width: int = None          #: channel width (connect / disconnect)

    def inverse(self):
        """The edit that undoes this one."""
        return NetlistEdit(
            op=_INVERSE_OP[self.op],
            node=self.node,
            channel=self.channel,
            src=self.src,
            dst=self.dst,
            width=self.width,
        )

    def apply(self, netlist):
        """Replay this edit on ``netlist`` through the public mutators
        (so the netlist emits it to subscribers again)."""
        if self.op == ADD_NODE:
            return netlist.add(self.node)
        if self.op == REMOVE_NODE:
            return netlist.remove(self.node.name)
        if self.op == CONNECT:
            return netlist.connect(
                self.src, self.dst, name=self.channel, width=self.width
            )
        if self.op == DISCONNECT:
            return netlist.disconnect(self.channel)
        raise ValueError(f"unknown edit op {self.op!r}")

    def __str__(self):
        if self.op in (ADD_NODE, REMOVE_NODE):
            return f"{self.op}({self.node.name})"
        return f"{self.op}({self.channel}: {self.src}->{self.dst})"
