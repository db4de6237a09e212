"""The elastic simulator.

Each clock cycle proceeds in four phases:

1. **pre-cycle** — every node freezes its randomized / nondeterministic
   choices for the cycle;
2. **combinational fix-point** — node ``comb`` functions are evaluated
   (over three-valued signals, all starting unknown) until no signal
   changes.  Monotonicity of the node logic guarantees convergence;
   signals still unknown at the fix-point indicate a genuine combinational
   cycle and raise :class:`~repro.errors.CombinationalLoopError` — the
   hazard the paper warns about when chaining zero-backward-latency buffers;
3. **observation** — channel events are resolved *once* and cached on every
   channel; protocol monitors, statistics and traces sample them;
4. **tick** — every node updates its sequential state.

Fix-point engines
-----------------

Two interchangeable engines are provided (``engine=`` parameter,
process-wide default via :func:`set_default_engine`).  ``codegen`` is the
built-in default; a simulator built with ``follow_edits=True`` defaults to
``worklist`` instead (see `Default engine` below).  They differ only in
how one cycle is computed; everything else — validation, statistics, the
protocol monitor, observers, the cycle counter, edit following, the
structural-version and ownership guards, the deferred post-edit refresh,
``reset``, choice listing, the unresolved-signal diagnosis and profile
aggregation — is owned once by :class:`Simulator`.

``worklist`` — event-driven evaluation over a **static
sensitivity map** (:func:`~repro.sim.sensitivity.sensitivity`, computed at
construction and again at every structure refresh after edits — see
`Edit following` on :class:`Simulator`).  The engine asks every node which
channel signals its ``comb`` may read (:meth:`Node.comb_reads`, the
union of the reads of the signal tasks each kind declares once in
:meth:`Node.comb_tasks` — the declaration codegen schedules from too)
and inverts the read sets into signal -> dependent-node lists; what a
node may drive follows from its port roles (:meth:`Node.drives`).  Every
``unknown -> known`` signal
transition inside :meth:`ChannelState.set` is appended to a shared change
log, so after evaluating a node the engine enqueues exactly the nodes
sensitive to what actually changed.

The once-per-cycle seed pass visits every node (each node's outputs depend
on its sequential state, so each must run at least once) in a **levelized
order**: a topological sort of the writer -> reader dependency graph.  On
the acyclic majority of the control network — everything separated by fully
registered elastic buffers — each node therefore runs *exactly once* per
cycle; the worklist only re-evaluates nodes inside the cyclic regions that
zero-backward-latency buffers, lazy joins and speculative loops create, and
only when a signal they read becomes known after they last ran.

*Convergence argument*: node logic is monotone over the Kleene information
order (``None`` below ``False``/``True``), and :meth:`ChannelState.set`
only ever moves a signal ``unknown -> known`` (a conflicting re-write
raises).  Each of the ``5 * |channels|`` signals can thus change at most
once per cycle, each change enqueues at most ``|nodes|`` dependents, and a
node evaluation with no change enqueues nothing — so the worklist drains
after at most ``O(|nodes| + changes * max_fanout)`` evaluations and the
state it drains at is the least fixed point (any still-unknown signal
genuinely depends on itself through a combinational cycle).  The change
log is the only progress signal: ``comb()`` returns nothing.  The test
suite's reference, a dense sweep of every node repeated until a pass
leaves the log empty, computes the same least fixed point; the
differential fuzz tests pin both engines to it.

``codegen`` (default) — the compiled engine of
:mod:`repro.backend.pysim`.  The netlist is *elaborated*: every node's
``comb`` is emitted as straight-line Python with channel signals in flat
locals, and protocol monitoring / statistics / event resolution / core
``tick`` kernels are inlined into the same generated function — one
Python call per cycle, no per-node dispatch.  Compilation is all or
nothing: a netlist with a node that blocks it (no emitter, as for a user
subclass that overrides ``comb``; an unbound port; a signal-level
combinational loop) runs this simulator's interpreted worklist cycle
instead.  The choice is made again at every structure refresh, so a
simulator following edits switches either way.  Modules are
``exec``-compiled once per topology and cached process-wide, least
recently used out past 32 (sequential parameters are read at run time,
so sweeps over one topology compile once); structural edits re-elaborate
before the next step, never serving stale code.  Highest per-cycle
throughput (~8x over worklist on the deep-pipeline bench, and ahead of
it on the paper's speculative designs) at the cost of a one-time
elaboration per topology; pinned bit-identical to the worklist engine by
``tests/test_codegen_diff.py``.

``lanes=N`` (``N > 1``) on :func:`~repro.perf.sweep.run_sweep` and
:class:`~repro.verif.explore.StateExplorer` is another way to ask for
``codegen`` (:func:`lanes_engine`); there is no lane-parallel engine.

Default engine
--------------

``Simulator(engine=None)`` runs ``codegen`` (:func:`get_default_engine`).
A follower (``follow_edits=True``, as ``Session.simulator()`` builds)
runs ``worklist``: a codegen follower re-elaborates at the first step
after every followed edit that makes a new topology, and on
``benchmarks/bench_incremental.py``'s 200-step fig6b transform-measure
loop it took 11.5 s against 1.3 s on worklist (one run each, 2-vCPU
container).  An explicit ``engine=`` or :func:`set_default_engine` (the
CLI's ``--engine``) applies to followers too.
"""

from __future__ import annotations

from collections import deque
from functools import partial

from repro.elastic.channel import N_SIGNALS
from repro.elastic.node import Node
from repro.errors import CombinationalLoopError
from repro.netlist.edits import CONNECT
from repro.sim.monitors import ProtocolMonitor
from repro.sim.sensitivity import sensitivity
from repro.sim.stats import ChannelStats

__all__ = [
    "ENGINES", "Simulator", "check_engine", "get_default_engine",
    "lanes_engine", "set_default_engine", "superseded_error",
    "unresolved_signals",
]

#: Recognized fix-point engines.
ENGINES = ("worklist", "codegen")

#: The engine set by :func:`set_default_engine`; ``None`` keeps the
#: built-in defaults below.
_default_engine = None
_BUILTIN_DEFAULT = "codegen"
#: Followers re-elaborate per new topology under codegen, which costs more
#: than worklist's table rebuild (module docstring, `Default engine`).
_FOLLOWER_DEFAULT = "worklist"


def check_engine(name):
    """Raise ``ValueError`` (listing the choices) unless ``name`` is a
    :class:`Simulator` engine."""
    if name not in ENGINES:
        raise ValueError(f"unknown engine {name!r}; choose from {ENGINES}")


def lanes_engine(lanes, engine=None):
    """The engine a ``lanes=N`` request runs on.

    ``lanes > 1`` is another way to ask for ``"codegen"``, so an explicit
    ``engine`` conflicts with it; ``lanes == 1`` returns ``engine``
    unchanged.  Raises ``ValueError`` for ``lanes < 1``.
    """
    if lanes < 1:
        raise ValueError(f"lanes must be >= 1, got {lanes}")
    if lanes == 1:
        return engine
    if engine is not None:
        raise ValueError(
            f"lanes={lanes} implies the codegen engine; engine must be "
            f"None, got engine={engine!r}"
        )
    return "codegen"


def set_default_engine(name):
    """Set the process-wide default fix-point engine (CLI ``--engine``) of
    every ``Simulator(engine=None)``, followers included; ``None`` restores
    the built-in defaults.  Returns the previous setting, so that
    ``set_default_engine(previous)`` undoes the call."""
    global _default_engine
    if name is not None:
        check_engine(name)
    previous, _default_engine = _default_engine, name
    return previous


def get_default_engine():
    """The engine ``Simulator(engine=None)`` uses when it does not follow
    edits."""
    return _default_engine or _BUILTIN_DEFAULT


def superseded_error():
    """The error a simulator raises when stepped after a newer simulator
    took ownership of its netlist (shared by every engine)."""
    return RuntimeError(
        "netlist is now owned by a newer Simulator; this simulator can no "
        "longer observe its signal changes — construct a fresh simulator "
        "instead of reusing this one"
    )


def unresolved_signals(channels):
    """``channel.signal`` names a finished fix-point left unresolved, in
    channel order: unknown control signals, or the data of an offered
    token (the :class:`~repro.errors.CombinationalLoopError` diagnosis)."""
    unresolved = []
    for channel in channels:
        state = channel.state
        if not state.resolved():
            unresolved.extend(
                f"{channel.name}.{sig}" for sig in state.unresolved_signals()
            )
        elif state.vp and state.data is None:
            unresolved.append(f"{channel.name}.data")
    return unresolved


class Simulator:
    """Drives a :class:`~repro.netlist.graph.Netlist` cycle by cycle.

    Parameters
    ----------
    netlist:
        The design; it is validated and reset on construction.
    check_protocol:
        Install runtime monitors for the SELF properties (Retry+, Retry-,
        Invariant) on every channel; violations raise immediately.
    observers:
        Optional iterable of objects with an ``observe(cycle, netlist)``
        method called after each fix-point (trace recorders etc.); kept as
        the live list :attr:`observers`.
    engine:
        ``"worklist"`` (event-driven) or ``"codegen"`` (compiled
        straight-line module); ``None`` picks the process-wide default:
        :func:`get_default_engine`, or ``"worklist"`` for a follower while
        :func:`set_default_engine` is unset.
        Unknown names raise ``ValueError`` with the valid-choices list
        before any engine setup runs.
    profile:
        Record per-node ``comb()`` call counts and the per-cycle
        evaluation histogram (see :mod:`repro.sim.profile`).
    follow_edits:
        Subscribe to the netlist's structural edit log: every
        add/remove/connect/disconnect after construction is applied to
        this simulator via :meth:`apply_edit` automatically, so a warm
        simulator survives transformations without reconstruction (see
        `Edit following` below).  Call :meth:`detach` to stop
        following.

    A netlist has a single owning simulator at a time: constructing a new
    :class:`Simulator` on the same netlist re-registers the channels' change logs, so a
    previously constructed simulator must not be stepped afterwards (it
    raises rather than silently missing change events).

    Edit following
    --------------

    The netlist records a monotonically increasing structural ``version``
    and emits a :class:`~repro.netlist.edits.NetlistEdit` per mutation.
    :meth:`apply_edit` follows one such edit: it claims a connected
    channel's change log and marks the structures dirty.  The next
    :meth:`step`/:meth:`reset` re-derives them once from the edited
    netlist — the worklist engine's sensitivity tables, the codegen
    engine's compiled cycle (a module-cache hit for a topology seen
    before) — so transform-simulate-measure loops keep one warm simulator
    instead of paying a netlist clone, a fresh simulator and a reset per
    step, and a simulator that followed edits is structurally identical
    to one freshly built on the edited netlist.  A simulator whose
    netlist version advanced *without* the corresponding ``apply_edit``
    calls raises on :meth:`step` instead of silently reading stale
    structures.  :meth:`reset` rewinds dynamic state (netlist sequential
    state, cycle counter, statistics, monitor history) while keeping the
    built structures warm — the combination the ``reuse_simulator`` mode
    of :func:`repro.perf.throughput.measure_throughput` relies on.
    """

    def __init__(self, netlist, check_protocol=True, observers=(),
                 engine=None, profile=False, follow_edits=False):
        netlist.validate()
        if engine is None:
            engine = _default_engine or (
                _FOLLOWER_DEFAULT if follow_edits else _BUILTIN_DEFAULT)
        check_engine(engine)
        self.netlist = netlist
        self.engine = engine
        self.cycle = 0
        self.observers = list(observers)
        self._netlist_version = netlist.version
        self._followed = None
        self._structures_dirty = False
        self.stats = ChannelStats(netlist)
        self.monitor = ProtocolMonitor(netlist) if check_protocol else None
        self.profile = bool(profile)
        if self.profile:
            # comb_calls is parallel to _nodes, so a refresh remaps by name.
            self.comb_calls = []
            self.evals_per_cycle = []
        # Ownership: the simulator claims every channel with its change log
        # (here and on each followed connect), so a simulator can tell when
        # a newer one took over.  The worklist fix-point reads it too.
        self._log = []
        for channel in netlist.channels.values():
            channel.state.log = self._log
        self._nodes = []
        self._sync_structures()
        if follow_edits:
            self._follow(netlist)
        netlist.reset()

    # -- edit following (structural netlist edits) ----------------------------------

    def _follow(self, netlist):
        netlist.subscribe(self.apply_edit)
        self._followed = netlist

    def detach(self):
        """Stop following the netlist's edit log (no-op when not following)."""
        if self._followed is not None:
            self._followed.unsubscribe(self.apply_edit)
            self._followed = None

    def _sync_structures(self):
        """(Re)derive the per-cycle structures from the current netlist:
        fresh node and channel lists, the channels' signal-id blocks,
        profile counters, pre-bound method lists and the cycle — the
        compiled one when the codegen engine compiles this netlist, else
        the interpreted one over freshly built sensitivity tables."""
        old_nodes = self._nodes
        nodes = self._nodes = list(self.netlist.nodes.values())
        channels = self._channels = list(self.netlist.channels.values())
        # Number the signal ids the reader tables are indexed by.  Only
        # channels carrying this simulator's log: one a newer simulator
        # owns keeps that simulator's numbering.
        log = self._log
        for slot, channel in enumerate(channels):
            state = channel.state
            if state.log is log:
                state.base = slot * N_SIGNALS
        if self.profile:
            counts = {node.name: calls
                      for node, calls in zip(old_nodes, self.comb_calls)}
            self.comb_calls = [counts.get(node.name, 0) for node in nodes]
        # Pre-bound method lists: the per-cycle loops call these directly
        # instead of re-resolving attributes on every node every cycle.
        self._ticks = [node.tick for node in nodes
                       if type(node).tick is not Node.tick]
        self._pre_cycles = [node.pre_cycle for node in nodes
                            if type(node).pre_cycle is not Node.pre_cycle]
        self._choosers = [node for node in nodes
                          if type(node).choice_space is not Node.choice_space]
        cycle = None
        if self.engine == "codegen":
            from repro.backend.pysim import CodegenBackend

            cycle = CodegenBackend(self).cycle_fn
        if cycle is None:
            self._readers, self._order = sensitivity(nodes, channels)
            self._combs = [node.comb for node in nodes]
            self._pending = bytearray(len(nodes))
            self._all_pending = b"\x01" * len(nodes)
            cycle = self._interpreted_cycle
        elif self.profile:
            cycle = partial(self._counted_cycle, cycle)
        self._cycle = cycle

    def apply_edit(self, edit):
        """Follow one structural netlist edit.

        Feed every emitted :class:`~repro.netlist.edits.NetlistEdit`
        exactly once, in order (``follow_edits=True`` does this
        automatically); afterwards the simulator behaves exactly as a
        freshly constructed one on the edited netlist, without the
        netlist clone or reset.  An edit only claims a connected
        channel's change log and marks the structures dirty; they are
        re-derived once, right before the next :meth:`step`/:meth:`reset`,
        so a multi-edit transformation pays the O(netlist) rebuild a
        single time.
        """
        # A newer simulator may have taken ownership of the netlist while
        # this one is still subscribed; following would steal the new
        # channels' change logs back.  Detach instead — this simulator is
        # stale either way and step() will say so.
        if not self._owns_channels():
            self.detach()
            return
        if edit.op == CONNECT:
            channel = self.netlist.channels.get(edit.channel)
            if channel is not None:
                channel.state.log = self._log
            self.stats.add_channel(edit.channel)
        self._structures_dirty = True
        self._netlist_version = self.netlist.version

    def _owns_channels(self):
        """The ownership probe of :meth:`apply_edit`: the first channel
        this simulator claimed that is still in the netlist carries its
        change log unless a newer simulator took the netlist over."""
        live = self.netlist.channels
        for channel in self._channels:
            if live.get(channel.name) is channel:
                return channel.state.log is self._log
        return True

    def _refresh_structures(self):
        """The deferred O(netlist) part of edit following, run once after
        one *or more* applied edits: re-derive the per-cycle structures,
        then tell the monitor and every observer the structure changed."""
        self._structures_dirty = False
        self._sync_structures()
        if self.monitor is not None:
            self.monitor.structure_changed()
        for observer in self.observers:
            hook = getattr(observer, "structure_changed", None)
            if hook is not None:
                hook()

    def _stale_structure(self):
        return RuntimeError(
            f"netlist {self.netlist.name!r} was structurally edited "
            f"(version {self.netlist.version}, simulator last synced at "
            f"{self._netlist_version}) without Simulator.apply_edit(); "
            "follow the edit log (follow_edits=True / Session.simulator()) "
            "or construct a fresh Simulator instead of stepping this one"
        )

    def _ready(self):
        """The guards every cycle passes first: structural version,
        deferred refresh, then ownership (after the refresh, so the probe
        channel is a live one)."""
        if self.netlist.version != self._netlist_version:
            raise self._stale_structure()
        if self._structures_dirty:
            self._refresh_structures()
        channels = self._channels
        if channels and channels[0].state.log is not self._log:
            raise superseded_error()

    def reset(self):
        """Rewind dynamic state — netlist sequential state, cycle counter,
        statistics and monitor history — keeping the built engine
        structures (sensitivity tables, seed order, pre-bound node lists,
        compiled cycle) warm.  The warm-simulator analogue of constructing
        afresh."""
        if self.netlist.version != self._netlist_version:
            raise self._stale_structure()
        if self._structures_dirty:
            self._refresh_structures()
        self.netlist.reset()
        self.cycle = 0
        self.stats.reset()
        if self.monitor is not None:
            self.monitor.reset()

    # -- per-cycle phases ----------------------------------------------------------

    def _fixpoint(self):
        """The worklist fix-point (see the module docstring)."""
        for channel in self._channels:
            channel.clear_cycle()
        log = self._log
        log.clear()
        pending = self._pending
        pending[:] = self._all_pending
        combs = self._combs
        readers = self._readers
        queue = deque(self._order)
        profile = self.profile
        evals = 0
        while queue:
            i = queue.popleft()
            pending[i] = 0
            combs[i]()
            if profile:
                self.comb_calls[i] += 1
                evals += 1
            if log:
                for signal in log:
                    for j in readers[signal]:
                        if not pending[j]:
                            pending[j] = 1
                            queue.append(j)
                log.clear()
        if profile:
            self.evals_per_cycle.append(evals)
        self._check_resolved()

    def _check_resolved(self):
        """Raise the combinational-loop diagnosis if the fix-point left
        any signal unresolved (the codegen cycle calls this too, from its
        inlined quick test)."""
        unresolved = unresolved_signals(self._channels)
        if unresolved:
            raise CombinationalLoopError(unresolved, cycle=self.cycle)

    def _counted_cycle(self, compiled, cycle, choices):
        """Run a compiled cycle under ``profile=True``: it evaluates every
        node exactly once, so its counters are constants."""
        calls = self.comb_calls
        for i in range(len(calls)):
            calls[i] += 1
        self.evals_per_cycle.append(len(calls))
        return compiled(cycle, choices)

    def _interpreted_cycle(self, cycle, choices):
        """One interpreted (worklist) cycle: choices, pre-cycle,
        fix-point, monitor, events (resolved once and cached on every
        channel), then statistics and observers (plain steps only) and
        tick.  Returns the per-channel events dict.  The codegen engine's
        generated cycle has the same signature and semantics."""
        if choices is not None:
            for node in self._choosers:
                if node.choice_space() > 1:
                    node.set_choice(choices.get(node.name, 0))
        for pre_cycle in self._pre_cycles:
            pre_cycle()
        self._fixpoint()
        if self.monitor is not None:
            self.monitor.observe(cycle)
        events = {channel.name: channel.resolve_events()
                  for channel in self._channels}
        if choices is None:
            self.stats.observe(cycle, events)
            for observer in self.observers:
                observer.observe(cycle, self.netlist)
        for tick in self._ticks:
            tick()
        return events

    def step(self):
        """Advance one clock cycle; returns the cycle index just completed."""
        self._ready()
        done = self.cycle
        self._cycle(done, None)
        self.cycle = done + 1
        return done

    def run(self, n_cycles):
        """Run ``n_cycles`` cycles; returns ``self`` for chaining."""
        for _ in range(n_cycles):
            self.step()
        return self

    # -- model-checking support -------------------------------------------------------

    def state(self):
        return self.netlist.snapshot()

    def load_state(self, state):
        self.netlist.restore(state)

    def step_with_choices(self, choices):
        """One cycle with explicit environment choices.

        ``choices`` maps node name -> choice index; unnamed choice nodes get
        choice 0.  Returns the per-channel events dict (resolved once and
        shared with the channels' per-cycle cache) for property evaluation
        by the model checker; statistics and observers are not updated.
        """
        self._ready()
        events = self._cycle(self.cycle, choices)
        self.cycle += 1
        return events

    # -- profiling ---------------------------------------------------------------------

    def profile_report(self):
        """Aggregate the recorded counters (requires ``profile=True``);
        returns a :class:`repro.sim.profile.ProfileReport`."""
        if not self.profile:
            raise ValueError("Simulator was not constructed with profile=True")
        if self._structures_dirty:
            self._refresh_structures()
        from repro.sim.profile import ProfileReport

        by_kind = {}
        for node, calls in zip(self._nodes, self.comb_calls):
            entry = by_kind.setdefault(node.kind, [0, 0])
            entry[0] += calls
            entry[1] += 1
        return ProfileReport(
            engine=self.engine,
            cycles=self.cycle,
            n_nodes=len(self._nodes),
            comb_calls_by_kind={k: tuple(v) for k, v in sorted(by_kind.items())},
            total_comb_calls=sum(self.comb_calls),
            evals_per_cycle=list(self.evals_per_cycle),
        )
