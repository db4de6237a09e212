"""Static sensitivity analysis, incrementally patchable.

:class:`SensitivityMap` inverts every node's declared ``comb_reads()``
into per-signal reader lists and levelizes the writer -> reader graph into
the once-per-cycle seed order, for a live
:class:`~repro.sim.engine.Simulator` — and, the point of this module,
**patches itself** under structural netlist edits
(:meth:`SensitivityMap.apply_edit`) instead of being rebuilt from scratch,
so transform-simulate-measure loops stop paying O(netlist) reconstruction
per transformation:

* node add/remove is O(1) bookkeeping (a node enters with no connected
  ports, so it contributes no sensitivities until its channels connect);
* channel connect/disconnect recomputes only the *edited channel's*
  contribution — its five signals' reader entries and the writer->reader
  dependency edges it induces (each channel's contribution is recorded at
  connect time, so disconnect undoes exactly what connect added, even when
  an edge is justified by several channels: edges are reference-counted);
* the levelized seed order is maintained by **local re-levelization**
  (the Pearce–Kelly online topological-ordering step): a new dependency
  edge ``u -> v`` that already agrees with the order costs nothing, and a
  contradicting one reorders only the *affected region* — the nodes
  between ``v`` and ``u`` in the current order that are actually reachable
  from ``v`` or reach ``u``.  Edge deletions never invalidate a
  topological order, so disconnects skip reordering entirely.

Differential guard: when an inserted edge closes a combinational cycle the
local reorder is impossible (there is no topological order to maintain);
the map then falls back to a full re-levelization over the maintained
dependency graph — the same Kahn-with-scan-fallback used by the full
build, still O(nodes + edges) with *no* netlist clone, validate or reset.
``full_relevels`` counts these fallbacks; ``patched_edits`` counts all
applied edits.  The seed order only affects how much the worklist
re-evaluates, never the fixed point itself, so a patched map is pinned
bit-identical to a from-scratch rebuild by the differential tests.

Slot discipline: node and channel slots are append-only (removals leave
``None`` holes, new entries take fresh slots at the end), so per-channel
signal-id blocks (``state.base``) stay stable across unrelated edits and a
re-connected channel name simply gets a fresh block.  Long transform
sessions cannot grow without bound, though: when more than half of a
sizeable slot table is holes the map **compacts** — one full rebuild over
the live netlist (still no clone or reset) that re-numbers slots and
signal blocks, counted in ``compactions`` — so table sizes track the live
design, not the number of edits ever applied.
"""

from __future__ import annotations

from repro.elastic.channel import N_SIGNALS, SIG_INDEX
from repro.netlist.edits import ADD_NODE, CONNECT, DISCONNECT, REMOVE_NODE
from repro.netlist.graphalg import levelize


class SensitivityMap:
    """Patchable sensitivity tables + levelized seed order for one netlist.

    Construction performs the full build and takes ownership of the channels'
    change-reporting hooks: every live channel state gets ``base`` (its
    global signal-id block) and ``log`` (the shared change log,
    :attr:`log`).  Thereafter :meth:`apply_edit` keeps everything — reader
    lists, dependency graph, seed order, signal hooks — consistent with
    the netlist, one structural edit at a time.

    Public surface used by the engine:

    ``node_slots`` (nodes, ``None`` holes), ``channel_slots`` (channels,
    ``None`` holes), ``readers`` (signal id -> list of node-slot indices),
    ``order`` (seed order over live slots; mutated *in place* so held
    references stay current), ``log`` (shared change log), plus the
    ``patched_edits`` / ``full_relevels`` counters.
    """

    #: compaction trigger: tables this small are never compacted, larger
    #: ones are when live entries drop below half the slots.
    MIN_COMPACT_SLOTS = 64

    def __init__(self, netlist):
        self.netlist = netlist
        self.log = []
        self.patched_edits = 0
        self.full_relevels = 0
        self.compactions = 0
        self.version = netlist.version
        self._build()

    # -- full build ----------------------------------------------------------

    def _build(self):
        netlist = self.netlist
        self.node_slots = list(netlist.nodes.values())
        self.node_index = {n.name: i for i, n in enumerate(self.node_slots)}
        self.channel_slots = list(netlist.channels.values())
        self.channel_index = {c.name: i for i, c in enumerate(self.channel_slots)}
        self.readers = [[] for _ in range(N_SIGNALS * len(self.channel_slots))]
        # Reference-counted dependency edges (several channels may justify
        # the same writer -> reader edge).
        self._succ = [{} for _ in self.node_slots]   # u -> {v: count}
        self._pred = [{} for _ in self.node_slots]   # v -> {u: count}
        # Per-channel-slot contribution: (reader entries, induced edges),
        # recorded so disconnect can undo exactly what connect added.
        self._contrib = [None] * len(self.channel_slots)
        for slot, channel in enumerate(self.channel_slots):
            state = channel.state
            state.base = slot * N_SIGNALS
            state.log = self.log
        for slot in range(len(self.channel_slots)):
            self._wire_channel(slot)
        self.order = []
        self.pos = [None] * len(self.node_slots)
        self._relevelize_full(count=False)

    # -- per-channel contribution ---------------------------------------------

    def _wire_channel(self, slot):
        """Install the reader entries and dependency edges contributed by
        the channel in ``slot``; returns the list of *newly created* edges
        (refcount 0 -> 1) for order maintenance."""
        channel = self.channel_slots[slot]
        base = slot * N_SIGNALS
        endpoints = {self.node_index[channel.producer[0]],
                     self.node_index[channel.consumer[0]]}
        reader_entries = []
        for ni in endpoints:
            node = self.node_slots[ni]
            for port, signal in node.comb_reads():
                if node._channels.get(port) is channel:
                    sid = base + SIG_INDEX[signal]
                    self.readers[sid].append(ni)
                    reader_entries.append((sid, ni))
        edges = []
        new_edges = []
        for ni in endpoints:
            node = self.node_slots[ni]
            for port, signal in node.comb_writes():
                if node._channels.get(port) is channel:
                    for rj in self.readers[base + SIG_INDEX[signal]]:
                        if rj != ni:
                            edges.append((ni, rj))
                            if self._add_edge(ni, rj):
                                new_edges.append((ni, rj))
        self._contrib[slot] = (reader_entries, edges)
        return new_edges

    def _add_edge(self, u, v):
        count = self._succ[u].get(v, 0) + 1
        self._succ[u][v] = count
        self._pred[v][u] = count
        return count == 1

    def _remove_edge(self, u, v):
        count = self._succ[u][v] - 1
        if count:
            self._succ[u][v] = count
            self._pred[v][u] = count
        else:
            del self._succ[u][v]
            del self._pred[v][u]

    # -- incremental patching --------------------------------------------------

    def apply_edit(self, edit):
        """Patch the tables for one structural edit of the owned netlist.

        Must be fed every edit exactly once, in emission order (subscribe
        the owning simulator to the netlist, or replay a recorded edit
        list).  Node edits are O(1); channel edits cost the edited
        channel's contribution plus, for connects whose new dependency
        edges contradict the current seed order, a local re-levelization
        of the affected region only.
        """
        op = edit.op
        if op == ADD_NODE:
            node = edit.node
            idx = len(self.node_slots)
            self.node_slots.append(node)
            self.node_index[node.name] = idx
            self._succ.append({})
            self._pred.append({})
            self.pos.append(len(self.order))
            self.order.append(idx)
        elif op == REMOVE_NODE:
            idx = self.node_index.pop(edit.node.name)
            self.node_slots[idx] = None
            # The netlist only removes fully disconnected nodes, so no
            # reader entries or edges can still reference this slot.
            p = self.pos[idx]
            self.order.pop(p)
            for q in range(p, len(self.order)):
                self.pos[self.order[q]] = q
            self.pos[idx] = None
        elif op == CONNECT:
            channel = self.netlist.channels[edit.channel]
            slot = len(self.channel_slots)
            self.channel_slots.append(channel)
            self.channel_index[channel.name] = slot
            self.readers.extend([] for _ in range(N_SIGNALS))
            self._contrib.append(None)
            state = channel.state
            state.base = slot * N_SIGNALS
            state.log = self.log
            for u, v in self._wire_channel(slot):
                self._order_insert_edge(u, v)
        elif op == DISCONNECT:
            slot = self.channel_index.pop(edit.channel)
            channel = self.channel_slots[slot]
            self.channel_slots[slot] = None
            reader_entries, edges = self._contrib[slot]
            self._contrib[slot] = None
            for sid, ni in reader_entries:
                self.readers[sid].remove(ni)
            for u, v in edges:
                self._remove_edge(u, v)
            # Edge deletions never invalidate a topological order.
            channel.state.log = None
        else:
            raise ValueError(f"unknown edit op {op!r}")
        self.patched_edits += 1
        self.version = self.netlist.version
        if op in (REMOVE_NODE, DISCONNECT):
            self._maybe_compact()

    def _maybe_compact(self):
        """Rebuild the slot tables over the live netlist once holes
        dominate, so table sizes (and everything the engine derives from
        them per cycle) track the live design rather than the total number
        of edits ever applied."""
        total = len(self.node_slots) + len(self.channel_slots)
        if total < self.MIN_COMPACT_SLOTS:
            return
        live = len(self.node_index) + len(self.channel_index)
        if 2 * live > total:
            return
        self._build()
        self.compactions += 1

    # -- order maintenance (Pearce–Kelly local re-levelization) ----------------

    def _order_insert_edge(self, u, v):
        """Restore the seed-order invariant after inserting edge ``u -> v``.

        Does nothing when the order already agrees; otherwise reorders only
        the affected region.  Falls back to :meth:`_relevelize_full` when
        the edge closes a combinational cycle (the differential guard — a
        cyclic region has no topological order to maintain locally).
        """
        pos = self.pos
        lower, upper = pos[v], pos[u]
        if upper < lower:
            return
        # Forward discovery from v, bounded by u's position.
        forward = []
        seen_f = {v}
        stack = [v]
        while stack:
            w = stack.pop()
            if w == u:
                self._relevelize_full()
                return
            forward.append(w)
            for x in self._succ[w]:
                if x not in seen_f and pos[x] <= upper:
                    seen_f.add(x)
                    stack.append(x)
        # Backward discovery from u, bounded by v's position.
        backward = []
        seen_b = {u}
        stack = [u]
        while stack:
            w = stack.pop()
            backward.append(w)
            for x in self._pred[w]:
                if x not in seen_b and pos[x] >= lower:
                    seen_b.add(x)
                    stack.append(x)
        if seen_f & seen_b:
            # The seed order may already carry back edges (Kahn's scan
            # fallback seeds cyclic sensitivity regions in declaration
            # order), and a back edge can connect the two discovery sets
            # without the bounded forward search ever reaching ``u`` —
            # there is no valid local pool placement for a node in both
            # sets, so this is the cyclic region's fallback too.
            self._relevelize_full()
            return
        # Pool the affected positions; place the backward set (everything
        # that must precede u, in its current relative order) before the
        # forward set.
        backward.sort(key=lambda w: pos[w])
        forward.sort(key=lambda w: pos[w])
        slots = sorted(pos[w] for w in backward + forward)
        for position, w in zip(slots, backward + forward):
            self.order[position] = w
            self.pos[w] = position

    def _relevelize_full(self, count=True):
        """Recompute the seed order over the maintained dependency graph
        (no netlist traversal); mutates :attr:`order` in place so held
        references stay valid."""
        live = [i for i, node in enumerate(self.node_slots) if node is not None]
        order = levelize(live, self._succ)
        self.order[:] = order
        for i in range(len(self.pos)):
            self.pos[i] = None
        for p, i in enumerate(order):
            self.pos[i] = p
        if count:
            self.full_relevels += 1

    # -- views -----------------------------------------------------------------

    def live_channels(self):
        """The netlist's channels, in slot order (holes skipped)."""
        return [c for c in self.channel_slots if c is not None]

    def live_nodes(self):
        """The netlist's nodes, in slot order (holes skipped)."""
        return [n for n in self.node_slots if n is not None]
