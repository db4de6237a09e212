"""The elastic netlist container.

A :class:`Netlist` owns nodes (elastic blocks) and channels, supports
incremental construction, structural validation, deep copy (for detached
working copies), and is the single input to the simulator, the performance
models, the verifier and the back-ends.

Edit log
--------

Every structural mutation (:meth:`add`, :meth:`remove`, :meth:`connect`,
:meth:`disconnect`) bumps the monotonically increasing :attr:`version`
counter and emits a structured :class:`~repro.netlist.edits.NetlistEdit`
(with a computable inverse) to every registered subscriber
(:meth:`subscribe`).  The transformation session records these edits as its
undo/redo history, and a live simulator follows them instead of being
rebuilt from a clone per transform — see
:mod:`repro.netlist.edits`.

State-copy semantics (three distinct tools):

* :meth:`clone` — a fully independent deep copy: structure *and* sequential
  state, fresh node/channel objects, no subscribers.  Use for detached
  working copies (the rebuild-per-measurement path, sweep workers).
* :meth:`snapshot` / :meth:`restore` — *sequential state only*, on the same
  object graph (hashable, used by the model checker and to rewind dynamic
  state across transforms).  Structure is not captured: restoring a
  snapshot after a structural edit that removed one of its nodes raises.
* the edit log — *structure only*: replaying inverse edits rewinds wiring
  but leaves each surviving node's sequential state as it is now.
"""

from __future__ import annotations

import copy

from repro.elastic.channel import Channel, CONSUMER, PRODUCER
from repro.elastic.node import Node, PortRole
from repro.errors import NetlistError
from repro.netlist.edits import ADD_NODE, CONNECT, DISCONNECT, REMOVE_NODE, NetlistEdit


class Netlist:
    """A named collection of elastic nodes connected by channels."""

    def __init__(self, name="design"):
        self.name = name
        self.nodes = {}       # name -> Node
        self.channels = {}    # name -> Channel
        #: monotonically increasing structural version; bumped by every
        #: add / remove / connect / disconnect (never by state changes).
        self.version = 0
        self._subscribers = []
        self._snapshot_order = None   # version-keyed sorted-node cache

    def __repr__(self):
        return f"Netlist({self.name!r}, {len(self.nodes)} nodes, {len(self.channels)} channels)"

    # -- edit log ---------------------------------------------------------------

    def subscribe(self, fn):
        """Register ``fn(edit)`` to be called after every structural edit;
        returns ``fn`` so it can be passed back to :meth:`unsubscribe`."""
        self._subscribers.append(fn)
        return fn

    def unsubscribe(self, fn):
        """Remove a subscriber registered with :meth:`subscribe`."""
        self._subscribers.remove(fn)

    def _emit(self, edit):
        self.version += 1
        for fn in list(self._subscribers):
            fn(edit)

    def apply_edit(self, edit):
        """Replay a recorded :class:`~repro.netlist.edits.NetlistEdit` (or
        an inverse) through the public mutators."""
        return edit.apply(self)

    def __getstate__(self):
        # Subscribers are live observers of *this* object (simulators,
        # sessions); a deep copy or pickled worker payload must not drag
        # them along — clones start unobserved.  The snapshot-order cache
        # is rebuilt on demand rather than serialized.
        state = self.__dict__.copy()
        state["_subscribers"] = []
        state["_snapshot_order"] = None
        return state

    # -- construction -----------------------------------------------------------

    def add(self, node):
        """Add a node; returns it for chaining."""
        if not isinstance(node, Node):
            raise NetlistError(f"{node!r} is not a Node")
        if node.name in self.nodes:
            raise NetlistError(f"duplicate node name {node.name!r}")
        self.nodes[node.name] = node
        self._emit(NetlistEdit(ADD_NODE, node=node))
        return node

    def connect(self, src, dst, name=None, width=8):
        """Create a channel from ``src`` to ``dst``.

        ``src``/``dst`` are ``"node.port"`` strings or ``(node_name, port)``
        tuples; the port may be omitted for single-output / single-input
        nodes (``"node"``).
        """
        src_node, src_port = self._resolve(src, PortRole.OUT)
        dst_node, dst_port = self._resolve(dst, PortRole.IN)
        if name is None:
            name = f"{src_node}_{src_port}__{dst_node}_{dst_port}"
        if name in self.channels:
            raise NetlistError(f"duplicate channel name {name!r}")
        channel = Channel(name, width=width)
        channel.attach(PRODUCER, src_node, src_port)
        channel.attach(CONSUMER, dst_node, dst_port)
        self.nodes[src_node].bind(src_port, channel)
        self.nodes[dst_node].bind(dst_port, channel)
        self.channels[name] = channel
        self._emit(NetlistEdit(
            CONNECT, channel=name, src=(src_node, src_port),
            dst=(dst_node, dst_port), width=width,
        ))
        return channel

    def _resolve(self, ref, role):
        if isinstance(ref, tuple):
            node_name, port = ref
        elif "." in ref:
            node_name, port = ref.split(".", 1)
        else:
            node_name, port = ref, None
        if node_name not in self.nodes:
            raise NetlistError(f"unknown node {node_name!r}")
        node = self.nodes[node_name]
        candidates = node.out_ports if role == PortRole.OUT else node.in_ports
        if port is None:
            free = [p for p in candidates if p not in node._channels]
            if len(free) != 1:
                raise NetlistError(
                    f"cannot infer port on {node_name!r}: free {role} ports = {free}"
                )
            port = free[0]
        if port not in candidates:
            raise NetlistError(f"{node_name!r} has no {role} port {port!r}")
        if port in node._channels:
            raise NetlistError(f"port {node_name}.{port} is already connected")
        return node_name, port

    # -- editing (used by transformations) -----------------------------------------

    def disconnect(self, channel_name):
        """Remove a channel, unbinding both endpoints.

        Returns ``(src, dst)`` endpoint tuples so callers can re-wire.
        """
        channel = self.channels.pop(channel_name)
        src_node, src_port = channel.producer
        dst_node, dst_port = channel.consumer
        del self.nodes[src_node]._channels[src_port]
        del self.nodes[dst_node]._channels[dst_port]
        self._emit(NetlistEdit(
            DISCONNECT, channel=channel_name, src=(src_node, src_port),
            dst=(dst_node, dst_port), width=channel.width,
        ))
        return (src_node, src_port), (dst_node, dst_port)

    def remove(self, node_name):
        """Remove a node; all its ports must already be disconnected."""
        node = self.nodes[node_name]
        if node._channels:
            raise NetlistError(
                f"cannot remove {node_name!r}: ports still connected: "
                f"{sorted(node._channels)}"
            )
        del self.nodes[node_name]
        self._emit(NetlistEdit(REMOVE_NODE, node=node))

    def fresh_name(self, base):
        """A node/channel name not yet in use."""
        if base not in self.nodes and base not in self.channels:
            return base
        i = 1
        while f"{base}_{i}" in self.nodes or f"{base}_{i}" in self.channels:
            i += 1
        return f"{base}_{i}"

    def clone(self):
        """Deep copy: nodes, channels, wiring *and* sequential state, on a
        fully independent object graph.  Subscribers are not copied (a
        clone starts unobserved) and the structural :attr:`version` is
        carried over.  Contrast :meth:`snapshot`/:meth:`restore`, which
        capture only sequential state on the *same* object graph."""
        return copy.deepcopy(self)

    # -- queries --------------------------------------------------------------------

    def channel_of(self, node_name, port):
        return self.nodes[node_name]._channels[port]

    def producer_of(self, channel_name):
        return self.channels[channel_name].producer

    def consumer_of(self, channel_name):
        return self.channels[channel_name].consumer

    # -- validation -------------------------------------------------------------------

    def validate(self):
        """Raise :class:`NetlistError` unless every port of every node is
        connected and every channel has both endpoints.

        This is the *core structural subset* of :mod:`repro.lint` (codes
        E001/E002), shared with the full ``structure`` rule — messages and
        ordering are unchanged from the historical implementation.  It
        stays deliberately cheap: it runs after every transformation.  Run
        :func:`repro.lint.run_lint` for the full rule set (cycles,
        speculation, widths, sensitivity, ...).
        """
        from repro.lint.rules import core_structural_problems

        problems = core_structural_problems(self)
        if problems:
            raise NetlistError(
                "; ".join(message for _code, message, _node, _ch in problems)
            )
        return True

    # -- state management (simulation / model checking) ---------------------------------

    def reset(self):
        for node in self.nodes.values():
            node.reset()
        for channel in self.channels.values():
            channel.clear_cycle()

    def snapshot(self):
        """Hashable capture of every node's *sequential* state (structure
        and wiring are not recorded — see the module docstring for the
        clone / snapshot / edit-log contrast).

        The sorted node order is cached per structural :attr:`version` —
        the model checker snapshots once per explored transition, and
        re-sorting an unchanged netlist dominated that hot path.
        """
        cached = self._snapshot_order
        if cached is None or cached[0] != self.version:
            cached = (self.version, [
                (name, node.snapshot, node.restore)
                for name, node in sorted(self.nodes.items())
            ])
            self._snapshot_order = cached
        return tuple([(name, snap()) for name, snap, _restore in cached[1]])

    def restore(self, state):
        """Restore a :meth:`snapshot` onto the same structure; raises
        ``KeyError`` if a snapshotted node has since been removed."""
        cached = self._snapshot_order
        if (cached is not None and cached[0] == self.version
                and len(cached[1]) == len(state)):
            # Fast path: a snapshot of this very structure restores through
            # the cached bound methods, skipping the per-node dict lookups.
            # Any name mismatch falls back (node.restore is idempotent, so
            # a partially applied fast pass is simply re-applied below).
            for (name, _snap, restore), (snap_name, node_state) in zip(
                    cached[1], state):
                if name != snap_name:
                    break
                restore(node_state)
            else:
                return
        for name, node_state in state:
            self.nodes[name].restore(node_state)
