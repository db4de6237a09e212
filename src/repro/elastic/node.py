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

What ``comb`` reads is declared once, by :meth:`Node.comb_tasks`: the
signal tasks both engines derive their schedules from (the worklist
engine's wake-up sets through :meth:`Node.comb_reads`, the compiled
engine's straight-line order task by task).  What it drives follows from
port roles (:meth:`Node.drives`).

Nodes also expose :meth:`snapshot` / :meth:`restore` so the explicit-state
model checker of :mod:`repro.verif` can enumerate the reachable state space,
and the static descriptors the analytic models and lint rules read:

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

from repro.elastic.channel import PRODUCER, CONSUMER, SIGNALS_BY_ROLE

#: timing planes (see :meth:`Node.timing_arcs`): datapath words, forward
#: valid bits, backward stop and kill bits.
DATA = "D"
VALID = "V"
BWD = "B"


class PortRole:
    IN = CONSUMER     # node consumes tokens from the channel
    OUT = PRODUCER    # node produces tokens into the channel


class Node:
    """Abstract elastic node.

    Subclasses declare ports by calling :meth:`add_in` / :meth:`add_out` in
    their constructor, and implement ``comb`` and ``tick``.
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
        if "comb_reads" in cls.__dict__:
            raise TypeError(f"{cls.__qualname__} overrides comb_reads(), which "
                            "is derived: declare the reads in comb_tasks()")

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
        """Monotonically drive ``signal`` on the channel at ``port``; a
        change is recorded in the owning simulator's change log."""
        ch = self._channels[port]
        ch.state.set(signal, value, ch.name)

    def ev(self, port):
        """Resolved :class:`ChannelEvents` at ``port`` (tick time only)."""
        return self._channels[port].events()

    # -- static sensitivity ----------------------------------------------------

    def drives(self):
        """``(port, signal)`` pairs the port roles let :meth:`comb` drive:
        ``sp``/``vm`` on every input port, ``vp``/``sm``/``data`` on every
        output port."""
        return ([(port, sig) for port in self.in_ports
                 for sig in SIGNALS_BY_ROLE[CONSUMER]]
                + [(port, sig) for port in self.out_ports
                   for sig in SIGNALS_BY_ROLE[PRODUCER]])

    def comb_tasks(self):
        """``(reads, writes)`` *signal tasks* of :meth:`comb`, each a pair
        of ``(port, signal)`` lists; together they write :meth:`drives`
        exactly once.  The one declaration of what a kind reads: the
        worklist engine wakes a node on :meth:`comb_reads`, codegen
        schedules each task after the tasks writing its reads.

        The default is one conservative task that reads every signal the
        opposite endpoints drive.  Kinds whose combinational function
        reads less — elastic buffers and environments drive purely from
        sequential state, for instance — override this to narrow it;
        ``comb`` must never read outside the declared reads (``lint``
        rule E110 audits this).
        """
        reads = ([(port, sig) for port in self.in_ports
                  for sig in SIGNALS_BY_ROLE[PRODUCER]]
                 + [(port, sig) for port in self.out_ports
                    for sig in SIGNALS_BY_ROLE[CONSUMER]])
        return [(reads, self.drives())]

    def comb_reads(self):
        """``(port, signal)`` pairs :meth:`comb` may *read*: the ordered,
        duplicate-free union of the :meth:`comb_tasks` reads.  Derived,
        never overridden — declare reads in :meth:`comb_tasks`."""
        return list(dict.fromkeys(
            pair for reads, _writes in self.comb_tasks() for pair in reads))

    # -- simulation interface -------------------------------------------------

    def reset(self):
        """Reset sequential state.  Default: stateless."""

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
        seen through the change log, not reported by the node."""

    def tick(self):
        """Clock edge: update sequential state from resolved channels."""

    # -- model checking interface ----------------------------------------------

    def snapshot(self):
        """Hashable snapshot of the sequential state.

        Prefer nested tuples of ints / bools / strings / ``None``: the
        model checker's state index stores a canonical ``marshal``-based
        byte encoding of these (see :mod:`repro.verif.encoding`) instead
        of the raw tuples; exotic value types force it back to plain
        tuple keys for the whole state.
        """
        return ()

    def restore(self, state):
        """Restore a state produced by :meth:`snapshot`."""

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
