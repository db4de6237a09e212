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
  state, fresh node/channel objects, no subscribers.  Kept only for callers
  that must keep their original (an equivalence check against a transformed
  copy, the sensitivity audit, a transformation session's working copy); no
  hot path clones — a measurement runs on the netlist it is given.
* :meth:`snapshot` / :meth:`restore` — *sequential state only*, on the same
  object graph: one flat hashable tuple of every node's declared state
  slots (see :mod:`repro.elastic.node`), used by the model checker and to
  rewind dynamic state.  Structure is not captured and node names do not
  ride along: a snapshot restores only onto the structure it was taken
  from.
* the edit log — *structure only*: replaying inverse edits rewinds wiring
  but leaves each surviving node's sequential state as it is now.
"""

from __future__ import annotations

import copy
import functools
import keyword

from repro.elastic.channel import Channel, CONSUMER, PRODUCER
from repro.elastic.node import Node, PortRole, Stateful
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
        self._state_access = None   # (version, snapshot/restore pair)

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
        # them along — clones start unobserved.  The state accessor is
        # bound to this object's nodes, so it is rebuilt on demand.
        state = self.__dict__.copy()
        state["_subscribers"] = []
        state["_state_access"] = None
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
        capture only sequential state on the *same* object graph.

        Kept only for callers that must keep their original, off the hot
        paths: measurements, sweeps and the explorer run on the netlist
        they are given."""
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
        """Hashable capture of every node's *sequential* state: one flat
        tuple, in sorted node order, of each node's declared slot values
        (one element per slot; one element for a node that overrides
        ``snapshot``).  Structure, wiring and node names are not recorded —
        see the module docstring for the clone / snapshot / edit-log
        contrast."""
        return self.state_access()[0]()

    def restore(self, state):
        """Restore a :meth:`snapshot` onto the structure it was taken from
        (a state of another length raises ``ValueError``)."""
        self.state_access()[1](state)

    def state_access(self):
        """The ``(snapshot, restore)`` pair behind :meth:`snapshot` and
        :meth:`restore`, bound to the current nodes and kept per
        structural :attr:`version`.  It is valid until the next
        structural edit: a caller that snapshots per explored transition
        (the model checker's expansion) takes it once and calls it
        directly."""
        access = self._state_access
        if access is None or access[0] != self.version:
            access = self._state_access = (self.version, _state_accessor(
                [node for _name, node in sorted(self.nodes.items())]))
        return access[1]


def _state_accessor(nodes):
    """``(snapshot, restore)`` for ``nodes``: every declared slot is read
    and assigned as a plain attribute of its holder, which stores the
    slot's canonical value; a node or holder that overrides
    ``snapshot``/``restore`` is called instead."""
    holders, layout = state_layout(nodes)
    return _accessor_factory(layout)(*holders)


def state_layout(nodes):
    """``(holders, layout)`` of the flat snapshot of ``nodes`` (in
    snapshot order): per node, the object whose attributes hold its state
    (its :meth:`~repro.elastic.node.Stateful.state_host`) and that
    holder's slot names, or the node itself and ``None`` when the node or
    its holder keeps its own snapshot.  The compiled expansion entry
    (:mod:`repro.backend.pysim`) inlines the same layout."""
    holders, layout = [], []
    for node in nodes:
        host = node.state_host()
        slots = _slot_layout(type(node), type(host))
        holders.append(node if slots is None else host)
        layout.append(slots)
    return holders, tuple(layout)


@functools.lru_cache(maxsize=None)
def _slot_layout(node_cls, host_cls):
    """A node's entry in the state layout: its holder's slot names, or
    ``None`` when the node or its holder keeps its own snapshot."""
    for cls in (node_cls, host_cls):
        if (cls.snapshot is not Stateful.snapshot
                or cls.restore is not Stateful.restore):
            return None
    return tuple(host_cls.state_slots)


def state_terms(layout, refs, spare):
    """The source terms of one state ``layout`` with its holders named
    ``refs``: ``(reads, targets, calls)``, the snapshot's elements, the
    restore's assignment targets in the same order, and the restore's
    calls.  A holder that keeps its own snapshot is read with
    ``snapshot()`` and restored with ``restore(...)`` from the local
    ``<spare><i>`` (``i`` its position in ``layout``)."""
    reads, targets, calls = [], [], []
    for i, (ref, slots) in enumerate(zip(refs, layout)):
        if slots is None:
            reads.append(f"{ref}.snapshot()")
            targets.append(f"{spare}{i}")
            calls.append(f"{ref}.restore({spare}{i})")
            continue
        for slot in slots:
            if not slot.isidentifier() or keyword.iskeyword(slot):
                raise TypeError(f"state slot {slot!r} is not an attribute "
                                "name")
            reads.append(f"{ref}.{slot}")
            targets.append(f"{ref}.{slot}")
    return reads, targets, calls


@functools.lru_cache(maxsize=64)
def _accessor_factory(layout):
    """Compile the accessor factory of one state layout (per node, its
    slot names, or ``None`` for a node that keeps its own snapshot): every
    netlist of that shape shares the compiled code."""
    refs = [f"n{i}" for i in range(len(layout))]
    reads, targets, calls = state_terms(layout, refs, "s")
    lines = [f"def make({', '.join(refs)}):",
             "    def snapshot():",
             "        return (" + "".join(r + ", " for r in reads) + ")",
             "    def restore(state):",
             "        " + "".join(t + ", " for t in targets) + "= state"
             if targets else "        () = state",
             *("        " + call for call in calls),
             "    return snapshot, restore"]
    env = {}
    exec(compile("\n".join(lines) + "\n", "<netlist state>", "exec"), env)
    return env["make"]
