"""Lane-parallel batch simulation of same-topology netlists.

Design-space exploration runs many *parameterizations* of one elastic
topology — same nodes, same channels, different capacities / schedulers /
operand streams.  :class:`BatchSimulator` simulates N such netlists
("lanes") in lock-step through **bit-packed channel states**: every
three-valued control signal of a channel becomes one
:class:`~repro.elastic.channel.BatchChannelState` ``(known, value)`` mask
pair with one bit per lane, so a single pass over the static sensitivity
map of PR 1's worklist engine advances all N configurations at once.

How a cycle runs
----------------

1. **pre-cycle** — every node of every lane freezes its randomized choices,
   exactly as in the scalar engines (per-lane RNGs stay independent).
2. **batched fix-point** — the worklist loop visits *node positions* (one
   per topology node, covering all lanes).  Positions whose node class
   defines a :attr:`~repro.elastic.node.Node.batch_comb` kernel advance
   every lane with a handful of bitwise Kleene operations
   (:func:`repro.kleene.mand` and friends); positions without a kernel fall
   back to the scalar ``comb`` lane by lane, bridged through the lanes' own
   :class:`~repro.elastic.channel.ChannelState` objects.  Change
   propagation reuses the exact signal -> readers tables of the worklist
   engine; a signal id is (re-)enqueued whenever it becomes known in at
   least one new lane, and per-lane monotonicity bounds the loop just like
   the scalar argument.
3. **observation** — the batched protocol monitor checks the SELF
   properties on the mask pairs, per-channel event masks update bit-plane
   statistics counters (O(log cycles) int operations per channel per cycle,
   independent of the lane count), and the resolved signals are *scattered*
   into each lane's scalar channel states so observers and ``tick``
   handlers see exactly what a scalar simulator would have produced.
4. **tick** — every node of every lane updates its sequential state from
   its (scattered) scalar channel view.

Because phases 1 and 4 run the unmodified per-lane node code and phase 2 is
pinned to the scalar semantics by the differential batch tests, a lane of a
batch is *bit-identical* to running that configuration in its own scalar
simulator: same transfer streams, same statistics, same protocol verdicts,
same combinational-loop diagnostics (raised for the lowest failing lane,
with the lane recorded on the exception's ``lane`` attribute).

Whenever a batch contains at least one scalar-fallback node, the lanes'
scalar channel states are cleared at the start of every cycle, so a
``Channel.events()`` call from inside a fallback node's ``comb`` raises on
unresolved signals exactly as under the scalar engines.  Kernel-only
batches skip that clearing as an optimization — ``batch_comb`` kernels
are engine code and must work from the mask pairs, never from the scalar
states, inside the fix-point.

Beyond lock-step simulation, the batch engine exposes per-lane dynamic
state scatter/gather for the model checker
(:mod:`repro.verif.explore`): :meth:`BatchSimulator.restore_lane_states`
loads a *different* netlist snapshot into every lane,
:meth:`BatchSimulator.step_with_lane_choices` advances all lanes through
one shared fix-point with per-lane environment choices, and
:meth:`BatchSimulator.lane_snapshot` / :meth:`BatchSimulator.lane_signals`
read each lane's successor state back out — which is what lets the
explorer expand B frontier states per fix-point pass.
"""

from __future__ import annotations

from collections import deque

from repro.elastic.channel import (
    ALL_SIGNALS,
    BatchChannelState,
    ChannelEvents,
    EV_BACKWARD,
    EV_CANCEL,
    EV_IDLE,
    N_SIGNALS,
)
from repro.elastic.node import Node
from repro.errors import CombinationalLoopError
from repro.sim.engine import superseded_error, unresolved_signals
from repro.sim.monitors import BatchProtocolMonitor
from repro.sim.sensitivity import sensitivity_tables
from repro.sim.stats import ChannelStats


def resolve_batch_kernel(cls):
    """The ``batch_comb`` kernel the batch engine may use for node class
    ``cls``, or ``None`` for the per-lane scalar fallback.

    A kernel is only trusted when it was defined *at or below* the class
    that defines ``comb`` in the MRO: a subclass that overrides ``comb``
    while inheriting an ancestor's ``batch_comb`` would lane-parallelize
    the ancestor's semantics, silently diverging from its own scalar
    behaviour.  Such classes fall back to the (always-correct) scalar
    evaluation instead — override ``batch_comb`` too (or set it back to
    ``None``) to opt in.
    """
    kernel = cls.batch_comb
    if kernel is None:
        return None
    mro = cls.__mro__
    kernel_definer = next(k for k in mro if "batch_comb" in k.__dict__)
    comb_definer = next(k for k in mro if "comb" in k.__dict__)
    if mro.index(kernel_definer) <= mro.index(comb_definer):
        return kernel
    return None


def topology_signature(netlist):
    """Structural identity of a netlist for lane-batching purposes.

    Two netlists may share a :class:`BatchSimulator` iff their signatures
    are equal: same node names, classes, port lists and declared
    combinational sensitivities, and same channel wiring.  Parameters that
    only affect *sequential* behaviour (capacities, seeds, schedulers,
    datapath functions) are deliberately excluded — differing per lane is
    the whole point.
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


class _PackedCounter:
    """Per-lane event counter stored as binary bit-planes.

    ``add(mask)`` increments the counter of every lane whose bit is set
    using a ripple-carry over the planes — amortized O(1) int operations
    per cycle regardless of the lane count; ``lane_count(lane)`` decodes
    one lane's total on demand.
    """

    __slots__ = ("planes",)

    def __init__(self):
        self.planes = []

    def add(self, mask):
        planes = self.planes
        i = 0
        while mask:
            if i == len(planes):
                planes.append(mask)
                return
            carry = planes[i] & mask
            planes[i] ^= mask
            mask = carry
            i += 1

    def lane_count(self, lane):
        bit = 1 << lane
        total = 0
        for i, plane in enumerate(self.planes):
            if plane & bit:
                total += 1 << i
        return total


class BatchNodeCtx:
    """What a :attr:`Node.batch_comb` kernel sees: the per-lane node
    instances of one topology position plus the batched states of its
    ports.

    ``cache`` is a scratch dict the engine clears at the start of every
    cycle — kernels that are re-evaluated within a fix-point stash masks
    derived from *sequential* state there (occupancies, kill counters,
    predictions), which are constant for the cycle.  ``static`` persists
    across cycles for structure (port state lists).
    """

    __slots__ = ("lanes", "full", "n_lanes", "ports", "cache", "static")

    def __init__(self, lanes, ports, full):
        self.lanes = lanes            # tuple of per-lane node instances
        self.ports = ports            # port name -> BatchChannelState
        self.full = full              # all-lanes mask
        self.n_lanes = len(lanes)
        self.cache = {}
        self.static = {}

    def bst(self, port):
        """The :class:`BatchChannelState` bound to ``port``."""
        return self.ports[port]

    def lane_mask(self, pred):
        """Mask of lanes whose node instance satisfies ``pred``."""
        mask = 0
        for lane, node in enumerate(self.lanes):
            if pred(node):
                mask |= 1 << lane
        return mask


class BatchSimulator:
    """Drives N same-topology netlists cycle by cycle, lane-parallel.

    Parameters
    ----------
    netlists:
        One netlist per lane; all must share the lane-0
        :func:`topology_signature` (names, classes, ports, wiring).
    check_protocol:
        Install the batched SELF protocol monitor (mask-parallel
        equivalents of the scalar :class:`ProtocolMonitor` checks).
    observers:
        Optional per-lane observer lists (``observers[lane]`` is an
        iterable of objects with ``observe(cycle, netlist)``); observers
        see the lane's scalar channel states, scattered after each
        fix-point.

    Like the scalar engines, constructing a :class:`BatchSimulator` takes
    ownership of every lane netlist: it re-registers the channels' change
    logs, and a previously constructed simulator on any of the netlists
    raises instead of silently corrupting the batch state.
    """

    def __init__(self, netlists, check_protocol=True, observers=None):
        netlists = list(netlists)
        if not netlists:
            raise ValueError("BatchSimulator needs at least one lane")
        for net in netlists:
            net.validate()
        signature = topology_signature(netlists[0])
        for lane, net in enumerate(netlists[1:], start=1):
            if topology_signature(net) != signature:
                raise ValueError(
                    f"lane {lane} netlist {net.name!r} does not share the "
                    f"lane-0 topology of {netlists[0].name!r}; group "
                    "configurations by topology_signature() before batching"
                )
        self.netlists = netlists
        self.n_lanes = len(netlists)
        self.full = (1 << self.n_lanes) - 1
        # Structural-version guard: the lane-parallel tables are built for
        # exactly these netlist structures; the batch engine conservatively
        # invalidates (refuses to step) after any structural edit instead
        # of patching incrementally like the scalar worklist engine.
        self._lane_versions = [net.version for net in netlists]

        # -- batched channel states (and ownership of the lane channels) --
        self._log = []            # batched engine change log
        self._lane_log = []       # scalar-fallback write capture + ownership
        channel_names = list(netlists[0].channels)
        self._channel_names = channel_names
        self._lane_channels = [
            tuple(net.channels[name] for net in netlists)
            for name in channel_names
        ]
        self._bstates = []
        for ci, name in enumerate(channel_names):
            bst = BatchChannelState(self.n_lanes, name=name)
            bst.base = ci * N_SIGNALS
            bst.log = self._log
            self._bstates.append(bst)
            for channel in self._lane_channels[ci]:
                channel.state.base = bst.base
                channel.state.log = self._lane_log
        self._bst_by_name = dict(zip(channel_names, self._bstates))

        # -- sensitivity tables + per-position evaluators ------------------
        node_names = list(netlists[0].nodes)
        nodes0 = [netlists[0].nodes[name] for name in node_names]
        self._node_lanes = [
            tuple(net.nodes[name] for net in netlists) for name in node_names
        ]
        self._readers, self._order = sensitivity_tables(
            nodes0, len(channel_names)
        )
        self._pending = bytearray(len(nodes0))
        self._all_pending = bytes(b"\x01" * len(nodes0))
        self._evals = []
        self._ctx_caches = []
        self._any_fallback = False
        for pos, lanes in enumerate(self._node_lanes):
            kernel = resolve_batch_kernel(type(lanes[0]))
            if kernel is not None:
                ports = {
                    port: self._bst_by_name[lanes[0]._channels[port].name]
                    for port in lanes[0].ports
                }
                ctx = BatchNodeCtx(lanes, ports, self.full)
                self._evals.append((kernel, ctx))
                self._ctx_caches.append(ctx.cache)
            else:
                self._evals.append(
                    (self._make_fallback_eval(lanes), None)
                )
                self._any_fallback = True

        # -- per-lane machinery -------------------------------------------
        self._pre_cycle_fns = [
            node.pre_cycle
            for net in netlists for node in net.nodes.values()
            if type(node).pre_cycle is not Node.pre_cycle
        ]
        self._tick_fns = [
            node.tick
            for net in netlists for node in net.nodes.values()
            if type(node).tick is not Node.tick
        ]
        self._chooser_lanes = [
            lanes for lanes in self._node_lanes
            if type(lanes[0]).choice_space is not Node.choice_space
        ]
        if observers is None:
            observers = [[] for _ in netlists]
        observers = list(observers)
        if len(observers) != self.n_lanes:
            raise ValueError(
                f"observers must have one entry per lane: got "
                f"{len(observers)} for {self.n_lanes} lane(s)"
            )
        self._observers = [list(lane_obs) for lane_obs in observers]
        self.monitor = (
            BatchProtocolMonitor(self._bstates, netlists[0])
            if check_protocol else None
        )

        self._channel_index = {name: ci for ci, name in enumerate(channel_names)}
        # cycle counters and the bit-plane statistics start in reset()
        self.reset()

    # -- evaluator construction -----------------------------------------------

    def _make_fallback_eval(self, lanes):
        """Scalar fallback: bridge one node position through the lanes' own
        ChannelStates — sync the batched view in, run ``comb``, fold the
        captured writes back into the mask pairs."""
        ports = [
            (port, self._bst_by_name[lanes[0]._channels[port].name])
            for port in lanes[0].ports
        ]
        lane_log = self._lane_log
        bstates = self._bstates
        lane_channels = self._lane_channels
        n_lanes = self.n_lanes

        def evaluate(_ctx):
            for lane in range(n_lanes):
                node = lanes[lane]
                bit = 1 << lane
                for port, bst in ports:
                    st = node._channels[port].state
                    st.vp = bool(bst.vp_v & bit) if bst.vp_k & bit else None
                    st.sp = bool(bst.sp_v & bit) if bst.sp_k & bit else None
                    st.vm = bool(bst.vm_v & bit) if bst.vm_k & bit else None
                    st.sm = bool(bst.sm_v & bit) if bst.sm_k & bit else None
                    st.data = bst.data[lane] if bst.data_k & bit else None
                lane_log.clear()
                node.comb()
                for signal in lane_log:
                    ci, offset = divmod(signal, N_SIGNALS)
                    bst = bstates[ci]
                    name = ALL_SIGNALS[offset]
                    value = getattr(lane_channels[ci][lane].state, name)
                    if name == "data":
                        bst.set_data(lane, value)
                    else:
                        bst.set_mask(name, bit, bit if value else 0)
                lane_log.clear()
        return evaluate

    # -- per-cycle phases -----------------------------------------------------

    def _check_structural_versions(self):
        for lane, (net, built) in enumerate(zip(self.netlists,
                                                self._lane_versions)):
            if net.version != built:
                raise RuntimeError(
                    f"lane {lane} netlist {net.name!r} was structurally "
                    f"edited (version {net.version}, batch built at "
                    f"{built}); the batch engine does not patch "
                    "incrementally — construct a fresh BatchSimulator"
                )

    def _fixpoint(self):
        # Within one lane the channel logs are (re)assigned together, so
        # checking one channel per lane detects a newer
        # Simulator/BatchSimulator having taken ownership of that lane's
        # netlist — each lane can be claimed independently.
        if self._lane_channels:
            lane_log = self._lane_log
            for channel in self._lane_channels[0]:
                if channel.state.log is not lane_log:
                    raise superseded_error()
        for bst in self._bstates:
            bst.clear()
        if self._any_fallback:
            # Scalar-fallback nodes run their real comb() against the
            # lanes' scalar channel states; clear those per cycle so any
            # mid-fix-point Channel.events() call raises on unresolved
            # signals exactly as under the scalar engines, instead of
            # silently reading the previous cycle's scattered values.
            # Kernel-only batches skip this (kernels never touch the
            # scalar states inside the fix-point).
            for channels in self._lane_channels:
                for channel in channels:
                    channel.clear_cycle()
        for cache in self._ctx_caches:
            cache.clear()
        log = self._log
        log.clear()
        pending = self._pending
        pending[:] = self._all_pending
        evals_fns = self._evals
        readers = self._readers
        queue = deque(self._order)
        while queue:
            i = queue.popleft()
            pending[i] = 0
            fn, ctx = evals_fns[i]
            fn(ctx)
            if log:
                for signal in log:
                    for j in readers[signal]:
                        if not pending[j]:
                            pending[j] = 1
                            queue.append(j)
                log.clear()
        self._check_resolved()

    def _check_resolved(self):
        full = self.full
        for bst in self._bstates:
            if bst.resolved_mask() != full or bst.vp_v & ~bst.data_k:
                break
        else:
            return
        # Slow path: load the lowest failing lane's three-valued signals
        # into its scalar channel states and diagnose them with the scalar
        # engines' own diagnosis (same channel and signal order).
        failing = 0
        for bst in self._bstates:
            failing |= (full & ~bst.resolved_mask()) | (bst.vp_v & ~bst.data_k)
        lane = (failing & -failing).bit_length() - 1
        channels = [lane_channels[lane] for lane_channels in self._lane_channels]
        for bst, channel in zip(self._bstates, channels):
            for name in ALL_SIGNALS:
                setattr(channel.state, name, bst.lane_value(name, lane))
        err = CombinationalLoopError(unresolved_signals(channels),
                                     cycle=self.cycle)
        err.lane = lane
        raise err

    def _scatter(self):
        """Write the resolved batch signals into every lane's scalar channel
        states (and invalidate the per-lane events caches), so observers,
        ``tick`` handlers and ``Channel.events()`` see exactly what a
        scalar simulator would have left behind."""
        for ci, bst in enumerate(self._bstates):
            vp = bst.vp_v
            sp = bst.sp_v
            vm = bst.vm_v
            sm = bst.sm_v
            data = bst.data
            for lane, channel in enumerate(self._lane_channels[ci]):
                bit = 1 << lane
                st = channel.state
                st.vp = vp & bit != 0
                st.sp = sp & bit != 0
                st.vm = vm & bit != 0
                st.sm = sm & bit != 0
                st.data = data[lane]
                channel.events_cache = None

    def _update_stats(self):
        """Classify each (channel, lane) into the scalar ``ChannelStats``
        categories from the value masks, then ripple the masks into the
        bit-plane counters."""
        full = self.full
        transfers = self._transfers
        cancels = self._cancels
        backwards = self._backwards
        stalls = self._stalls
        idles = self._idles
        for ci, bst in enumerate(self._bstates):
            vp = bst.vp_v
            vm = bst.vm_v
            cancel = vp & vm
            forward = vp & ~bst.sp_v & ~vm
            backward = vm & ~bst.sm_v & ~vp
            stall = vp & bst.sp_v & ~vm
            if forward:
                transfers[ci].add(forward)
            if cancel:
                cancels[ci].add(cancel)
            if backward:
                backwards[ci].add(backward)
            if stall:
                stalls[ci].add(stall)
            idle = full & ~(forward | cancel | backward | stall)
            if idle:
                idles[ci].add(idle)
        self._stat_cycles += 1

    # -- public stepping ------------------------------------------------------

    def step(self):
        """Advance all lanes one clock cycle; returns the completed index."""
        self._check_structural_versions()
        for pre_cycle in self._pre_cycle_fns:
            pre_cycle()
        self._fixpoint()
        if self.monitor is not None:
            self.monitor.observe(self.cycle)
        self._scatter()
        self._update_stats()
        if any(self._observers):
            for lane, lane_observers in enumerate(self._observers):
                netlist = self.netlists[lane]
                for observer in lane_observers:
                    observer.observe(self.cycle, netlist)
        for tick in self._tick_fns:
            tick()
        done = self.cycle
        self.cycle += 1
        return done

    def run(self, n_cycles):
        """Run ``n_cycles`` cycles; returns ``self`` for chaining."""
        for _ in range(n_cycles):
            self.step()
        return self

    def reset(self):
        """Rewind dynamic state of every lane (netlist sequential state,
        cycle counter, statistics planes, monitor history) keeping the
        built batch structures warm."""
        self._check_structural_versions()
        for net in self.netlists:
            net.reset()
        self.cycle = 0
        self._stat_cycles = 0
        # bit-plane counters per (channel, category)
        n = len(self._channel_names)
        self._transfers = [_PackedCounter() for _ in range(n)]
        self._cancels = [_PackedCounter() for _ in range(n)]
        self._backwards = [_PackedCounter() for _ in range(n)]
        self._stalls = [_PackedCounter() for _ in range(n)]
        self._idles = [_PackedCounter() for _ in range(n)]
        if self.monitor is not None:
            self.monitor.reset()

    def _choice_cycle(self):
        """The shared cycle body of the model-checking steps: pre-cycle,
        batched fix-point, monitor, scatter, tick (no statistics — exactly
        what the scalar :meth:`Simulator.step_with_choices` observes)."""
        for pre_cycle in self._pre_cycle_fns:
            pre_cycle()
        self._fixpoint()
        if self.monitor is not None:
            self.monitor.observe(self.cycle)
        self._scatter()
        for tick in self._tick_fns:
            tick()
        self.cycle += 1

    def _gather_choice_results(self):
        """Per-lane results of a choice step, resolved from the bit-planes
        in one masked pass per channel: the per-channel
        :class:`ChannelEvents` dict of every lane (also cached on each
        lane's channel, exactly as the scalar engines leave behind) and
        every lane's packed signal byte vector (``VP | SP<<1 | VM<<2 |
        SM<<3`` per channel, the :mod:`repro.verif.encoding` layout).
        Returns ``(events, signals)`` with ``events[lane][channel_name]``
        and ``signals[lane]``."""
        n_lanes = self.n_lanes
        n_channels = len(self._channel_names)
        events = [{} for _ in range(n_lanes)]
        signals = [bytearray(n_channels) for _ in range(n_lanes)]
        for ci, name in enumerate(self._channel_names):
            bst = self._bstates[ci]
            vp = bst.vp_v
            sp = bst.sp_v
            vm = bst.vm_v
            sm = bst.sm_v
            cancel = vp & vm
            forward = vp & ~sp & ~vm
            backward = vm & ~sm & ~vp
            data = bst.data
            channels = self._lane_channels[ci]
            for lane in range(n_lanes):
                bit = 1 << lane
                b = 1 if vp & bit else 0
                if sp & bit:
                    b |= 2
                if vm & bit:
                    b |= 4
                if sm & bit:
                    b |= 8
                signals[lane][ci] = b
                if forward & bit:
                    ev = ChannelEvents(forward=True, cancel=False,
                                       backward=False, data=data[lane])
                elif cancel & bit:
                    ev = EV_CANCEL
                elif backward & bit:
                    ev = EV_BACKWARD
                else:
                    ev = EV_IDLE
                channels[lane].events_cache = ev
                events[lane][name] = ev
        return events, [bytes(p) for p in signals]

    def step_with_lane_choices(self, choices_per_lane):
        """One cycle with *per-lane* explicit choices.

        ``choices_per_lane[lane]`` maps node name -> choice index for that
        lane (unnamed choice nodes get choice 0, as in the scalar step).
        Combined with :meth:`restore_lane_states`, this is the batched
        model-checking hook: the explorer loads B pending frontier
        expansions into the lanes, steps them through one shared fix-point
        pass, and reads each lane's successor back out.  Returns
        ``(events, signals)``: the per-lane per-channel events dicts and
        the per-lane packed signal byte vectors (see
        :meth:`_gather_choice_results`).
        """
        self._check_structural_versions()
        if len(choices_per_lane) != self.n_lanes:
            raise ValueError(
                f"need one choices dict per lane: got "
                f"{len(choices_per_lane)} for {self.n_lanes} lane(s)"
            )
        for lanes in self._chooser_lanes:
            for lane, node in enumerate(lanes):
                if node.choice_space() > 1:
                    node.set_choice(choices_per_lane[lane].get(node.name, 0))
        self._choice_cycle()
        return self._gather_choice_results()

    # -- per-lane dynamic state (model-checking scatter/gather) ---------------

    def restore_lane_states(self, states):
        """Scatter per-lane sequential state: lane ``l`` is restored to
        ``states[l]``, a :meth:`Netlist.snapshot` capture of any
        same-topology netlist.  The state need not have been produced by
        this lane — the model checker loads a *different* frontier snapshot
        into every lane before each batched step."""
        if len(states) != self.n_lanes:
            raise ValueError(
                f"need one state per lane: got {len(states)} for "
                f"{self.n_lanes} lane(s)"
            )
        for net, state in zip(self.netlists, states):
            net.restore(state)

    def lane_snapshot(self, lane):
        """Gather one lane's sequential state (:meth:`Netlist.snapshot`)."""
        return self.netlists[lane].snapshot()

    def lane_signals(self, lane):
        """Gather one lane's resolved control signals, straight from the
        bit-planes: ``{channel: (vp, sp, vm, sm)}`` (valid after a step)."""
        bit = 1 << lane
        return {
            bst.name: (
                bool(bst.vp_v & bit), bool(bst.sp_v & bit),
                bool(bst.vm_v & bit), bool(bst.sm_v & bit),
            )
            for bst in self._bstates
        }

    # -- per-lane results -----------------------------------------------------

    def lane_transfers(self, lane, channel_name):
        """Forward-transfer count of one lane on one channel so far."""
        return self._transfers[self._channel_index[channel_name]].lane_count(lane)

    def lane_stats(self, lane):
        """Materialize one lane's :class:`ChannelStats` snapshot
        (identical to what a scalar simulator of that lane would have
        accumulated up to now)."""
        stats = ChannelStats(self.netlists[lane])
        stats.cycles = self._stat_cycles
        for ci, name in enumerate(self._channel_names):
            stats.transfers[name] = self._transfers[ci].lane_count(lane)
            stats.cancels[name] = self._cancels[ci].lane_count(lane)
            stats.backwards[name] = self._backwards[ci].lane_count(lane)
            stats.stalls[name] = self._stalls[ci].lane_count(lane)
            stats.idles[name] = self._idles[ci].lane_count(lane)
        return stats
