"""The elastic simulator.

Each clock cycle proceeds in five phases:

1. **pre-cycle** — every node freezes its randomized / nondeterministic
   choices for the cycle;
2. **combinational fix-point** — node ``comb`` functions are evaluated
   (over three-valued signals, all starting unknown) until no signal
   changes.  Monotonicity of the node logic guarantees convergence;
   signals still unknown at the fix-point indicate a genuine combinational
   cycle and raise :class:`~repro.errors.CombinationalLoopError` — the
   hazard the paper warns about when chaining zero-backward-latency buffers;
3. **observation** — on a plain step the protocol monitor reads the
   settled signals directly and observers resolve a channel's
   :class:`~repro.elastic.channel.ChannelEvents` on demand
   (:meth:`Channel.events`, memoized for the rest of the cycle); an
   unmonitored model-checking step returns the signals packed one byte
   per channel, so no step builds an event object unless asked to;
4. **tick** — every node updates its sequential state;
5. **statistics** — the cycle's outcome per channel is counted from the
   settled signals (plain steps only), so a cycle that raised in an
   earlier phase is not counted.

On the codegen engine a multi-cycle :meth:`Simulator.run` is one call of
the compiled run entry, which loops the cycles in one frame with
statistics and monitor history in locals and checks the monitor with one
screen per cycle; channel states are flushed once, on the last cycle (see
:mod:`repro.backend.pysim`).  The result equals as many :meth:`step`
calls.  The model checker's :meth:`Simulator.expand` is one call of the
compiled expansion entry per explored state: it runs phases 1–4 once per
choice vector, restoring the state between vectors, skips monitor and
statistics and returns each vector's packed signals and successor
snapshot; channel states are flushed once, after the last vector.  The
result equals a restore, a :meth:`step_with_choices` and a snapshot per
vector.  Each entry is compiled on its first use, so a simulator that
only runs never compiles an expansion entry and an explorer's never
compiles a run entry.

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
channel signals its ``comb`` may read (:meth:`Node.comb_reads`, derived
from the kind's own ``comb`` together with the signal tasks codegen
schedules from, :meth:`Node.comb_tasks`)
and inverts the read sets into signal -> dependent-node lists; what a
node may drive follows from its port roles (:meth:`Node.drives`).  Every
``unknown -> known`` signal
transition inside :meth:`Node.drive`, the one interpreted write, is
appended to a shared change log, so after evaluating a node the engine
enqueues exactly the nodes sensitive to what actually changed.

The once-per-cycle seed pass visits every node (each node's outputs depend
on its sequential state, so each must run at least once) in a **levelized
order**: a topological sort of the writer -> reader dependency graph.  On
the acyclic majority of the control network — everything separated by fully
registered elastic buffers — each node therefore runs *exactly once* per
cycle; the worklist only re-evaluates nodes inside the cyclic regions that
zero-backward-latency buffers, lazy joins and speculative loops create, and
only when a signal they read becomes known after they last ran.

*Convergence argument*: node logic is monotone over the Kleene information
order (``None`` below ``False``/``True``), and :meth:`Node.drive`
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
own ``comb`` is rendered from its source as straight-line Python with
channel signals in flat locals, and the protocol monitor's screen,
statistics and every node's own ``tick``, ``pre_cycle`` and
``set_choice`` bodies are inlined into the same generated function — one
Python call per run (or per explored state), no per-node dispatch.
Compilation is all or nothing: a netlist with a node that blocks it (a
``comb`` outside the compiled subset, or one whose task slice is
refused; an unbound port; a signal-level combinational loop) runs this
simulator's interpreted worklist cycle instead.  The choice is made
again at every structure refresh, so a simulator following edits
switches either way.  Modules are ``exec``-compiled once per topology
and entry (run or expansion, each on first use) and cached
process-wide, least recently used out past 32 (sequential parameters are
read at run time, so sweeps over one topology compile once); structural
edits re-elaborate before the next step, never serving stale code.
Highest per-cycle throughput (~21x over worklist on the deep-pipeline
bench, ~5x on the paper's speculative fig6b and fig7b) at the cost
of a one-time elaboration per topology; pinned bit-identical to the
worklist engine by ``tests/test_codegen_diff.py``.

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
loop, with this default patched to codegen, two runs took 14.8 s and
16.1 s against 1.3 s and 1.5 s on worklist (2 CPUs).  An explicit
``engine=`` or :func:`set_default_engine` (the CLI's ``--engine``)
applies to followers too.
"""

from __future__ import annotations

import itertools
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
    "ENGINES", "ChoiceMap", "Simulator", "check_engine", "get_default_engine",
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


def _read_only(self, *args, **kwargs):
    raise TypeError("a ChoiceMap is shared between transitions and "
                    "cannot be changed; copy it with dict(...)")


class ChoiceMap(dict):
    """A read-only ``{chooser name: choice}`` map.

    :meth:`Simulator.expand` builds one per choice vector and caches it
    per choice-space tuple, so every transition taken with that vector
    shares the one object; the explorer stores it in each
    :class:`~repro.verif.explore.Transition` without a copy.  It compares,
    prints and JSON-encodes as the plain dict; every mutator raises
    ``TypeError``, and it pickles as ``ChoiceMap(dict)``."""

    __slots__ = ()

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return type(self), (dict(self),)


def _choice_vectors(choosers, spaces):
    """``(vector, choices)`` for every choice vector of ``choosers`` with
    choice spaces ``spaces``, in ``itertools.product`` order over the
    choosers whose space exceeds 1: ``vector`` holds one choice per
    chooser (None where the space is 1), ``choices`` names the others'
    (a :class:`ChoiceMap`)."""
    active = [i for i, space in enumerate(spaces) if space > 1]
    names = [choosers[i].name for i in active]
    blank = [None] * len(choosers)
    vectors = []
    for combo in itertools.product(*[range(spaces[i]) for i in active]):
        vector = list(blank)
        for i, choice in zip(active, combo):
            vector[i] = choice
        vectors.append((tuple(vector), ChoiceMap(zip(names, combo))))
    return vectors


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
        Invariant) on every channel; violations raise immediately, on
        steps and runs (model-checking steps are unmonitored).
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
        profile counters and pre-bound method lists.  The cycle functions
        follow on first use (:meth:`_entry`): a compiled entry when the
        codegen engine compiles this netlist, else the interpreted cycle
        over freshly built sensitivity tables."""
        old_nodes = self._nodes
        nodes = self._nodes = list(self.netlist.nodes.values())
        channels = self._channels = list(self.netlist.channels.values())
        self._states = [channel.state for channel in channels]
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
        # A compiled run loads and stores the counts of these channels as
        # one slice of ChannelStats.counts.
        self.stats.layout([channel.name for channel in channels])
        # Codegen entries are elaborated on first use (_entry), so a
        # simulator that only explores compiles no run entry and one that
        # only runs compiles no expansion entry.
        self._entries = {}
        self._readers = None
        self._vectors = {}
        self._cycle = None
        self._runs_compiled = False
        if self.engine != "codegen":
            self._run_cycle()

    def _entry(self, name):
        """The compiled entry ``name`` (``"run"`` or ``"expand"``, see
        :mod:`repro.backend.pysim`) of the current netlist, elaborated on
        first use after each structure sync; None when the engine is
        worklist or the netlist does not compile, and the interpreted
        cycle's sensitivity tables are then built."""
        entries = self._entries
        if name not in entries:
            compiled = None
            if self.engine == "codegen":
                from repro.backend.pysim import CodegenBackend

                compiled = CodegenBackend(self, name).fn
            entries[name] = compiled
            if compiled is None and self._readers is None:
                nodes = self._nodes
                self._readers, self._order = sensitivity(nodes,
                                                         self._channels)
                self._combs = [node.comb for node in nodes]
                self._pending = bytearray(len(nodes))
                self._all_pending = b"\x01" * len(nodes)
        return entries[name]

    def _run_cycle(self):
        """Bind and return :attr:`_cycle`, the cycle function of plain
        steps and runs: the compiled run entry, counted under
        ``profile=True``, or the interpreted cycle."""
        compiled = self._entry("run")
        self._runs_compiled = compiled is not None and not self.profile
        if compiled is None:
            cycle = self._interpreted_cycle
        elif self.profile:
            cycle = partial(self._counted_cycle, compiled)
        else:
            cycle = compiled
        self._cycle = cycle
        return cycle

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
        """The worklist fix-point (see the module docstring): clear every
        channel, drain the worklist, then check that every channel
        resolved, building the diagnosis only when one did not."""
        channels = self._channels
        for channel in channels:
            state = channel.state
            state.vp = state.sp = state.vm = state.sm = state.data = None
            channel.events_cache = None
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
        # Events a comb() resolved while signals settled may hold data that
        # became known later: drop them, so events() recomputes.
        for channel in channels:
            channel.events_cache = None
            state = channel.state
            if (state.vp is None or state.sp is None or state.vm is None
                    or state.sm is None or state.vp and state.data is None):
                self._check_resolved()

    def _check_resolved(self, cycle=None):
        """Raise the combinational-loop diagnosis, at ``cycle`` (default:
        the current one), if the fix-point left any signal unresolved
        (a compiled run calls this too, when its screen fires)."""
        unresolved = unresolved_signals(self._channels)
        if unresolved:
            raise CombinationalLoopError(
                unresolved, cycle=self.cycle if cycle is None else cycle)

    def _count_compiled(self, cycles):
        """Profile ``cycles`` compiled cycles: each evaluates every node
        exactly once, so the counters are constants."""
        calls = self.comb_calls
        for i in range(len(calls)):
            calls[i] += cycles
        self.evals_per_cycle.extend([len(calls)] * cycles)

    def _counted_cycle(self, compiled, cycle):
        """Run one compiled cycle under ``profile=True``."""
        self._count_compiled(1)
        return compiled(cycle)

    def _interpreted_cycle(self, cycle, vector=None):
        """One interpreted (worklist) cycle: choices, pre-cycle,
        fix-point, monitor and observers (plain steps) or the packed
        signals (choice steps, which return them: one byte
        ``VP | SP<<1 | VM<<2 | SM<<3`` per channel, packed from the
        channel states), tick, then statistics (plain steps), so a cycle
        that raises is not counted.  A choice step passes ``vector``, one
        choice per chooser in node order, None for a chooser left alone
        (choice space 1)."""
        if vector is not None:
            for node, choice in zip(self._choosers, vector):
                if choice is not None:
                    node.set_choice(choice)
        for pre_cycle in self._pre_cycles:
            pre_cycle()
        self._fixpoint()
        packed = None
        if vector is None:
            if self.monitor is not None:
                self.monitor.observe(cycle)
            for observer in self.observers:
                observer.observe(cycle, self.netlist)
        else:
            packed = bytes([st.vp | st.sp << 1 | st.vm << 2 | st.sm << 3
                            for st in self._states])
        for tick in self._ticks:
            tick()
        if vector is None:
            self.stats.observe(cycle)
        return packed

    def step(self):
        """Advance one clock cycle; returns the cycle index just completed."""
        self._ready()
        done = self.cycle
        (self._cycle or self._run_cycle())(done)
        self.cycle = done + 1
        return done

    def run(self, n_cycles):
        """Run ``n_cycles`` cycles; returns ``self`` for chaining.

        On a compiled netlist without observers or profiling, the run is
        one call of the compiled run entry, which loops the cycles in one
        frame; otherwise it steps cycle by cycle.  Either way the
        statistics, channel states, monitor history and cycle counter
        afterwards are those of ``n_cycles`` calls of :meth:`step`, also
        when a cycle raises."""
        if n_cycles > 0:
            self._ready()
            cycle = self._cycle or self._run_cycle()
            if self._runs_compiled and not self.observers:
                cycle(self.cycle, n_cycles)
                return self
        for _ in range(n_cycles):
            self.step()
        return self

    # -- model-checking support -------------------------------------------------------

    def state(self):
        return self.netlist.snapshot()

    def load_state(self, state):
        self.netlist.restore(state)

    def expand(self, snapshot):
        """Expand one explored state: every choice vector valid in
        ``snapshot``, each stepped from ``snapshot``.

        Returns one ``(choices, packed, successor)`` triple per vector, in
        ``itertools.product`` order over the choosers whose choice space
        exceeds 1 (node order): ``choices`` maps those choosers' names to
        their choices (a read-only :class:`ChoiceMap`, cached per space
        tuple, so every expansion with that vector returns the same
        object; a caller may keep it without a copy), ``packed`` is what
        :meth:`step_with_choices` returns for them and ``successor`` the
        netlist snapshot after the cycle.  The result, the channel states
        and the cycle counter (one per vector) equal a restore of
        ``snapshot`` plus :meth:`step_with_choices` and a snapshot per
        vector, also when a cycle raises.  On codegen this is one call of
        the compiled expansion entry."""
        self._ready()
        self.netlist.restore(snapshot)
        spaces = tuple([node.choice_space() for node in self._choosers])
        vectors = self._vectors.get(spaces)
        if vectors is None:
            vectors = self._vectors[spaces] = _choice_vectors(
                self._choosers, spaces)
        return self._expand(snapshot, vectors)

    def _expand(self, snapshot, vectors):
        """Step every ``(vector, choices)`` of ``vectors`` from the
        netlist's current state, restoring ``snapshot`` before all but
        the first (see :meth:`expand`)."""
        compiled = self._entry("expand")
        if compiled is not None:
            if self.profile:
                self._count_compiled(len(vectors))
            return compiled(self.cycle, snapshot, vectors)
        take, restore = self.netlist.state_access()
        out = []
        for i, (vector, choices) in enumerate(vectors):
            if i:
                restore(snapshot)
            packed = self._interpreted_cycle(self.cycle, vector)
            self.cycle += 1
            out.append((choices, packed, take()))
        return out

    def step_with_choices(self, choices):
        """One cycle with explicit environment choices.

        ``choices`` maps node name -> choice index; unnamed choice nodes get
        choice 0.  Returns the cycle's settled control signals packed one
        byte per channel (``VP | SP<<1 | VM<<2 | SM<<3``, netlist channel
        order; see :mod:`repro.verif.encoding`) for property evaluation by
        the model checker; no :class:`~repro.elastic.channel.ChannelEvents`
        is built, and statistics, observers and the monitor (whose history
        follows one linear run) are not updated.  It is the one-vector
        case of :meth:`expand`.
        """
        self._ready()
        vector = tuple([choices.get(node.name, 0)
                        if node.choice_space() > 1 else None
                        for node in self._choosers])
        return self._expand(None, [(vector, choices)])[0][1]

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
