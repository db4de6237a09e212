"""Base class for elastic netlist nodes.

A node owns a set of ports; each port is either a token *input* (the node is
the channel's consumer) or a token *output* (the node is the channel's
producer).  During simulation each node participates in two phases per clock
cycle:

1. :meth:`Node.comb` — evaluate combinational logic.  Called repeatedly
   until the global fix-point is reached, so it must be *monotone*: written
   in Kleene logic, only adding information, never retracting it.  The node
   drives exactly the signals its role permits (producer: ``vp``/``data``/
   ``sm``; consumer: ``sp``/``vm``) and returns nothing: the engines see
   fix-point progress in the channels' change log, which every
   ``unknown -> known`` transition is appended to.
2. :meth:`Node.tick` — the clock edge.  All signals are resolved; the node
   updates its sequential state from the channel events.

The compiled engine inlines ``comb``, ``tick``, ``pre_cycle`` and
``set_choice`` from their source (:mod:`repro.backend.pysim`); keep them
to reading ``self.st(port)`` with ports from literals and port lists, or
a tick is called, flushing the channel states every cycle, and a comb
defers its whole netlist to the interpreted engine (see :meth:`Node.comb`).

Nothing is declared beside ``comb``: the signal tasks both engines
schedule from (:meth:`Node.comb_tasks`, :meth:`Node.comb_reads`) are
derived from its rendered source, and what it drives follows from port
roles (:meth:`Node.drives`).

Sequential state is declared once per kind, on the class
(:class:`Stateful`): :attr:`~Stateful.state_slots` maps each attribute the
snapshot carries, in snapshot order, to its reset value, and
:attr:`~Stateful.reset_slots` lists what ``reset`` also assigns but the
snapshot leaves out (seeded random generators, frozen per-cycle choices,
statistics).  A reset value is a constant or a function of the node, i.e.
of its constructor parameters (an elastic buffer's ``init_tokens``, a
source's ``seed``).  :meth:`~Stateful.reset`, :meth:`~Stateful.snapshot`
and :meth:`~Stateful.restore` are derived from the declaration; the
snapshot is the tuple of the slots' values.  A slot is a plain attribute
holding its *canonical* value: an immutable value (a tuple, never a list)
that is equal exactly when the states are, so ``comb``/``tick`` read and
write the state in that form.  A tick replaces a slot's value, never
changes it in place: a snapshot shares the values, so an in-place change
would rewrite states already taken.  A slot that *canonicalizes* — keeps
less than the node does between snapshots, such as a source's running
counter modulo 4 — is a property of the class instead: its getter returns
the canonical form and its setter stores it.  A kind whose state lives in
a component returns it from :meth:`~Stateful.state_host` (a shared
module's scheduler).  The netlist assigns and reads the declared slots of
all its nodes in one call (:meth:`repro.netlist.graph.Netlist.snapshot`),
straight attribute loads and stores, so the explicit-state model checker
of :mod:`repro.verif` restores a state without a method call per node; a
subclass that overrides ``snapshot``/``restore`` keeps working and is
called as before.

Nodes also expose the static descriptors the analytic models and lint
rules read:

* :meth:`area` and :meth:`timing_arcs` (the node's arcs in the three-plane
  timing graph of :mod:`repro.perf.timing`: data ``D``, forward valid
  ``V``, backward stop/kill ``B``);
* :attr:`is_environment` (sources and sinks: the testbench);
* :meth:`width_pairs` (ports whose widths must match, lint rule E004),
  :attr:`arity_checks` (declared arity vs. port lists, E005),
  :meth:`anti_token_paths` and :meth:`kill_ports` (the counterflow network
  and its kill sites, E103);
* :attr:`splice_of`, the marker :func:`repro.chaos.wrap` sets on every node
  it splices in (``None`` on the design's own nodes).

Every consumer asks the node's class, these descriptors and
:attr:`splice_of`, never the ``kind`` tag: ``kind`` is a display and
serialisation label only, and chaos splices overwrite it per instance.
"""

from __future__ import annotations

from repro.elastic.channel import PRODUCER, CONSUMER, SIG_INDEX, role_pairs
from repro.errors import SignalConflictError

#: timing planes (see :meth:`Node.timing_arcs`): datapath words, forward
#: valid bits, backward stop and kill bits.
DATA = "D"
VALID = "V"
BWD = "B"


def adjusted(counts, i, step, limit, owner):
    """The tuple ``counts`` with ``step`` added to count ``i``, which must
    stay in ``0..limit``: how a tick moves one pending-kill counter of a
    tuple slot (``owner`` names the node in the error)."""
    count = counts[i] + step
    if not 0 <= count <= limit:
        raise AssertionError(f"{owner}: kill counter out of range")
    return counts[:i] + (count,) + counts[i + 1:]


class Stateful:
    """Sequential state declared once on the class (see the module
    docstring); ``reset``, ``snapshot`` and ``restore`` derive from it."""

    #: the state the snapshot carries, in snapshot order: ``{attribute:
    #: reset value}``, each value an immutable constant or a function of
    #: the object.  Each attribute is a plain one holding its canonical
    #: value (a property only where the slot canonicalizes; see the module
    #: docstring), which ticks replace rather than change in place.
    state_slots = {}
    #: state ``reset`` also assigns (before :attr:`state_slots`) but the
    #: snapshot leaves out: ``{attribute: reset value}``.
    reset_slots = {}
    #: True when the snapshot is the one declared slot's own (tuple) value
    #: rather than a one-element tuple holding it: a kind whose whole state
    #: is one sequence (a function block's pending kills).
    bare_slot = False
    # derived per class: every declared slot in reset order, and whether
    # state_host() is overridden
    _reset_items = ()
    _reset_host = False

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.bare_slot and len(cls.state_slots) != 1:
            raise TypeError(f"{cls.__qualname__}: bare_slot needs exactly "
                            "one state slot")
        cls._reset_items = (*cls.reset_slots.items(),
                            *cls.state_slots.items())
        cls._reset_host = cls.state_host is not Stateful.state_host

    def state_host(self):
        """The object whose declared slots are this object's snapshot
        state: the object itself, or a component that holds it."""
        return self

    def reset(self):
        """Assign every declared slot its reset value, then reset the
        :meth:`state_host` component, if any."""
        # setattr, not a __dict__ update: materializing the instance dict
        # would slow every attribute read of the simulation loops
        for name, value in self._reset_items:
            setattr(self, name, value(self) if callable(value) else value)
        if self._reset_host:
            self.state_host().reset()

    def snapshot(self):
        """Hashable snapshot of the sequential state: the canonical slot
        values, in :attr:`state_slots` order.

        Canonical values are nested tuples of ints / bools / strings /
        ``None``: the model checker's state index stores a canonical
        ``marshal``-based byte encoding of these (see
        :mod:`repro.verif.encoding`) instead of the raw tuples; exotic value
        types force it back to plain tuple keys for the whole state.
        """
        host = self.state_host()
        if host is not self:
            return host.snapshot()
        values = tuple([getattr(self, name) for name in self.state_slots])
        return values[0] if self.bare_slot else values

    def restore(self, state):
        """Restore a state produced by :meth:`snapshot`."""
        host = self.state_host()
        if host is not self:
            host.restore(state)
            return
        if self.bare_slot:
            state = (state,)
        for name, value in zip(self.state_slots, state, strict=True):
            setattr(self, name, value)


class PortRole:
    IN = CONSUMER     # node consumes tokens from the channel
    OUT = PRODUCER    # node produces tokens into the channel


class Node(Stateful):
    """Abstract elastic node.

    Subclasses declare ports by calling :meth:`add_in` / :meth:`add_out` in
    their constructor, declare their sequential state in
    :attr:`state_slots` / :attr:`reset_slots` (calling :meth:`reset` once
    their parameters are set), and implement ``comb`` and ``tick``.
    """

    #: short display / serialisation label; subclasses override.  Nothing
    #: dispatches on it (chaos splices overwrite it per instance).
    kind = "node"

    #: True for node kinds that *register* tokens — a clock boundary on the
    #: token-flow path (elastic buffers, variable-latency stations, FIFOs).
    #: The static-analysis rules of :mod:`repro.lint` use this to decide
    #: which nodes break a combinational cycle and where bubbles/tokens can
    #: live on an elastic loop; kinds setting it True should expose
    #: ``count`` (current token occupancy, possibly signed) and
    #: ``capacity`` (token slots).
    registers_tokens = False

    #: set by :func:`repro.chaos.wrap` on every node it splices in: the
    #: channel the splice was made on.  ``None`` marks a node of the design
    #: itself.  Transformations refuse splices, and lint rule W211 flags
    #: any left behind.
    splice_of = None

    #: lint rule E005's arity declarations, ``(attribute, port list,
    #: fixed ports)``: the declared ``attribute`` must equal the length of
    #: the named port list less its ``fixed`` ports.
    arity_checks = ()

    def __init__(self, name):
        self.name = name
        self.in_ports = []        # ordered token-input port names
        self.out_ports = []       # ordered token-output port names
        self._channels = {}       # port name -> Channel (set by the netlist)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        for name in ("comb_tasks", "comb_reads"):
            if name in cls.__dict__:
                raise TypeError(f"{cls.__qualname__} overrides {name}(), "
                                "which is derived from comb()")

    def __repr__(self):
        return f"{type(self).__name__}({self.name!r})"

    # -- port declaration ---------------------------------------------------

    def add_in(self, port):
        self.in_ports.append(port)

    def add_out(self, port):
        self.out_ports.append(port)

    @property
    def is_environment(self):
        """True for a node with no input port or no output port: a source
        or sink modelling the testbench, not the design."""
        return not self.in_ports or not self.out_ports

    @property
    def ports(self):
        return list(self.in_ports) + list(self.out_ports)

    def role_of(self, port):
        if port in self.in_ports:
            return PortRole.IN
        if port in self.out_ports:
            return PortRole.OUT
        raise KeyError(f"{self} has no port {port!r}")

    # -- wiring (used by the netlist container) ------------------------------

    def bind(self, port, channel):
        self._channels[port] = channel

    def channel(self, port):
        return self._channels[port]

    def st(self, port):
        """The :class:`ChannelState` seen at ``port``."""
        return self._channels[port].state

    def drive(self, port, signal, value):
        """Monotonically drive ``signal`` on the channel at ``port``: the
        one interpreted write of a channel signal.

        A ``None`` value does nothing.  An unknown signal takes the value,
        and its signal id is appended to the owning simulator's change log
        (the engines' progress signal) when one is registered.  The same
        value again does nothing; a different one raises
        :class:`~repro.errors.SignalConflictError`.
        """
        if value is None:
            return
        state = self._channels[port].state
        old = getattr(state, signal)
        if old is None:
            setattr(state, signal, value)
            log = state.log
            if log is not None:
                log.append(state.base + SIG_INDEX[signal])
        elif old != value:
            raise SignalConflictError(
                f"signal {self._channels[port].name}.{signal} rewritten "
                f"{old!r} -> {value!r}")

    def ev(self, port):
        """Resolved :class:`ChannelEvents` at ``port`` (tick time only)."""
        return self._channels[port].events()

    # -- static sensitivity ----------------------------------------------------

    def drives(self):
        """``(port, signal)`` pairs the port roles let :meth:`comb` drive:
        ``sp``/``vm`` on every input port, ``vp``/``sm``/``data`` on every
        output port."""
        return list(role_pairs(self.in_ports, self.out_ports)[0])

    def comb_tasks(self):
        """``(reads, writes)`` *signal tasks* of :meth:`comb`, pairs of
        ``(port, signal)`` tuples writing :meth:`drives` once between
        them; codegen schedules each after the tasks writing its reads.
        Derived from ``comb`` once per node shape, never overridden
        (:func:`repro.sim.inline.comb_sensitivity`)."""
        from repro.sim.inline import comb_sensitivity

        return comb_sensitivity(self)[0]

    def comb_reads(self):
        """``(port, signal)`` pairs the opposite endpoints drive that
        :meth:`comb` reads: the worklist engine's wake-up set, derived
        with :meth:`comb_tasks` (``lint`` rule E110 audits it)."""
        from repro.sim.inline import comb_sensitivity

        return comb_sensitivity(self)[1]

    # -- simulation interface -------------------------------------------------

    def pre_cycle(self):
        """Hook called once per cycle, before the combinational fix-point.

        Environments use it to freeze their randomized / nondeterministic
        choices so that repeated ``comb`` evaluations stay consistent.
        """

    def comb(self):
        """Drive combinational outputs (monotone, Kleene) through
        :meth:`drive`, only the signals the port roles permit: the engines
        take every signal's writer from port roles (``lint`` rule E111
        flags any other drive).  Returns nothing: fix-point progress is
        seen through the change log, not reported by the node.

        :meth:`comb_tasks` and :meth:`comb_reads` are derived from this
        method, and the compiled engine renders it once per task, where
        every signal read is a known bool.  Its
        subset: ``self.drive(P, s, e)`` statements, the Kleene helpers
        ``kand``/``kor``/``knot``/``kite`` on bools (operands without
        calls), reads ``self.st(P).s`` directly or through a local bound
        outside any branch, ``if``, assignments, ``raise`` and a top-level
        ``if c: return``, with ports from literals, port lists and loops
        (list comprehensions too) over ``range(<arity attribute>)`` or a port
        list.  Every path must drive each control signal a task writes.
        A data read that a control value
        depends on is assigned straight to a local, only where its channel
        offers a token: the compiled cycle diagnoses an unknown value there
        as the interpreted one does an unknown control.  The assignments
        heading the method that read no channel, each to a local assigned
        only there, run once per cycle.  Anything else (``super()``,
        ``try``, other loops, a channel state passed on, a
        parameter) defers the node: its netlist runs interpreted, and the
        node wakes on every signal its opposite endpoints drive."""

    def tick(self):
        """Clock edge: update sequential state from resolved channels."""

    # -- nondeterminism (environments override) ---------------------------------

    def choice_space(self):
        """Number of nondeterministic alternatives this cycle (1 = none)."""
        return 1

    def set_choice(self, choice):
        """Select one alternative before combinational evaluation."""

    # -- performance models -----------------------------------------------------

    def area(self, tech):
        """Area estimate in library units (controller + datapath)."""
        return 0.0

    def timing_arcs(self, tech):
        """Combinational timing arcs as ``(from_port, from_plane, to_port,
        to_plane, delay)``, in the order :func:`repro.perf.timing.timing_graph`
        adds them.

        Ports name ports of this node; planes are :data:`DATA` (the
        datapath word), :data:`VALID` (the forward valid bit) and
        :data:`BWD` (the backward stop and kill bits).  An arc is a
        combinational path from the signal arriving at ``from_port`` on
        ``from_plane`` to the one leaving at ``to_port`` on ``to_plane``.
        Buffers add no through-arcs: an elastic buffer registers all three
        planes and returns none, which is what breaks cycles, and the
        zero-backward-latency buffer returns only its backward control
        arc.  The default (environments, FIFOs) is no arcs.
        """
        return []

    # -- lint descriptors -------------------------------------------------------

    def width_pairs(self):
        """``(in_port, out_port)`` pairs whose channels must be equally wide
        (lint rule E004): the ports a kind passes data through unchanged.
        The default is none; function-applying kinds may resize data (a
        128-bit protected add producing a 64-bit word)."""
        return []

    def anti_token_paths(self):
        """``(in_port, out_port)`` pairs along which an anti-token arriving
        at ``out_port`` travels back to ``in_port``: the counterflow
        network a kill crosses (lint rule E103).  The default is none."""
        return []

    def kill_ports(self):
        """Input ports at which the node itself injects kills: the
        kill/commit points of lint rule E103.  The default is none."""
        return []
