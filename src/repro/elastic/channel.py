"""SELF elastic channels.

A channel is a bundle of data wires plus the control tuple
``(V+, S+, V-, S-)`` of Section 3 of the paper:

* ``vp`` (``V+``) — *valid*, driven by the **producer**, forward direction.
  Asserted while a token is offered.
* ``sp`` (``S+``) — *stop*, driven by the **consumer**, backward direction.
  Asserted to stall the offered token (back-pressure).
* ``vm`` (``V-``) — *anti-token valid*, driven by the **consumer**, backward
  direction.  Asserted while an anti-token is offered.
* ``sm`` (``S-``) — *anti-token stop*, driven by the **producer**, forward
  direction.  Asserted to stall the offered anti-token.

Tokens travel forward, anti-tokens travel backward, and when they meet in a
channel they cancel each other ("creating a bubble", Section 3).

Event semantics (resolved on demand, from the signals the combinational
fix-point settled on):

* **forward transfer**  — ``vp and not sp and not vm``: the token moves into
  the consumer.
* **cancellation**      — ``vp and vm``: token and anti-token annihilate in
  the channel.  The protocol invariant forces both stops low in this case
  (the paper: "a token cannot be killed and stopped at the same time"), so
  the producer sees its token leave and the consumer sees its anti-token
  delivered.
* **backward transfer** — ``vm and not sm and not vp``: the anti-token moves
  into the producer (it is stored there, or annihilates a stored token).

From the producer's point of view the token is gone whenever
``vp and not sp`` (forward transfer *or* cancellation).  From the consumer's
point of view a data token is received only on a forward transfer.

Signal-change reporting
-----------------------

:meth:`repro.elastic.node.Node.drive` is the single place every
interpreted combinational write goes through.  Besides enforcing
monotonicity it *reports* which signal changed: the owning simulator
registers a shared change log (``state.log``) and a per-channel signal-id
base (``state.base``); every ``unknown -> known`` transition appends the
global signal id ``base + SIG_INDEX[name]`` to the log, which is what lets
the worklist engine enqueue exactly the nodes sensitive to that signal
instead of re-sweeping the whole netlist.  (Compiled cycles keep signals
in locals and never touch the log.)  The log is the only fix-point
progress signal (``comb()`` returns nothing) and doubles as the ownership
token.  When no log is registered (unit tests) the append is skipped and
behaviour is exactly the classic one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SignalConflictError
from repro.kleene import as_bool

#: Role markers for the two ends of a channel.
PRODUCER = "producer"
CONSUMER = "consumer"

#: Control signals driven by each role.
SIGNALS_BY_ROLE = {
    PRODUCER: ("vp", "sm", "data"),
    CONSUMER: ("sp", "vm"),
}


def role_pairs(in_ports, out_ports):
    """``(drives, opposite)``: the ``(port, signal)`` pairs the port roles
    let a node with these ports drive, and those its opposite endpoints
    drive."""
    def pairs(in_role, out_role):
        return tuple([(port, sig) for port in in_ports
                      for sig in SIGNALS_BY_ROLE[in_role]]
                     + [(port, sig) for port in out_ports
                        for sig in SIGNALS_BY_ROLE[out_role]])
    return pairs(CONSUMER, PRODUCER), pairs(PRODUCER, CONSUMER)


CONTROL_SIGNALS = ("vp", "sp", "vm", "sm")

#: All per-channel signals, in global-signal-id order.
ALL_SIGNALS = ("vp", "sp", "vm", "sm", "data")

#: signal name -> offset within a channel's signal-id block.
SIG_INDEX = {name: i for i, name in enumerate(ALL_SIGNALS)}

#: signals per channel (size of one channel's signal-id block).
N_SIGNALS = len(ALL_SIGNALS)


class ChannelState:
    """Per-cycle signal values of one channel (``None`` = unresolved).

    A plain record: :meth:`repro.elastic.node.Node.drive` writes it
    monotonically, and ``base``/``log`` are the change-reporting hooks the
    owning simulator registers for those writes (see the module
    docstring); both are inert by default.
    """

    __slots__ = ("vp", "sp", "vm", "sm", "data", "base", "log")

    def __init__(self):
        self.vp = None
        self.sp = None
        self.vm = None
        self.sm = None
        self.data = None
        self.base = 0
        self.log = None

    def __repr__(self):
        return (
            f"ChannelState(vp={self.vp!r}, sp={self.sp!r}, "
            f"vm={self.vm!r}, sm={self.sm!r}, data={self.data!r})"
        )

    def resolved(self):
        """True when all four control bits are known (data may stay unknown
        while ``vp`` is False)."""
        return (
            self.vp is not None
            and self.sp is not None
            and self.vm is not None
            and self.sm is not None
        )

    def unresolved_signals(self):
        return [name for name in CONTROL_SIGNALS if getattr(self, name) is None]


@dataclass(frozen=True)
class ChannelEvents:
    """Resolved events of one channel for one clock cycle."""

    forward: bool      #: token moved forward into the consumer
    cancel: bool       #: token and anti-token annihilated in the channel
    backward: bool     #: anti-token moved backward into the producer
    data: object       #: data value when ``forward`` (else ``None``)

    @property
    def token_left_producer(self):
        """Token is gone from the producer (forward transfer or cancel)."""
        return self.forward or self.cancel

    @property
    def anti_delivered(self):
        """Anti-token left the consumer (cancel or absorbed by producer)."""
        return self.cancel or self.backward


#: interned data-less event outcomes (a channel cycle is one of these or a
#: forward transfer carrying data).
EV_IDLE = ChannelEvents(forward=False, cancel=False, backward=False, data=None)
EV_CANCEL = ChannelEvents(forward=False, cancel=True, backward=False, data=None)
EV_BACKWARD = ChannelEvents(forward=False, cancel=False, backward=True, data=None)


class Channel:
    """A named point-to-point elastic channel between two node ports.

    ``width`` is the datapath width in bits (used by the area model and the
    Verilog back-end); the Python simulator carries arbitrary values.
    """

    __slots__ = ("name", "width", "producer", "consumer", "state", "events_cache")

    def __init__(self, name, width=8):
        self.name = name
        self.width = width
        self.producer = None      # (node_name, port_name)
        self.consumer = None      # (node_name, port_name)
        self.state = ChannelState()
        #: the cycle's :class:`ChannelEvents` once :meth:`events` resolved
        #: them; the engines reset it to ``None`` after every fix-point.
        self.events_cache = None

    def __repr__(self):
        return f"Channel({self.name!r}, {self.producer}->{self.consumer})"

    # -- wiring -----------------------------------------------------------

    def attach(self, role, node_name, port_name):
        if role == PRODUCER:
            if self.producer is not None:
                raise SignalConflictError(
                    f"channel {self.name} already has a producer {self.producer}"
                )
            self.producer = (node_name, port_name)
        elif role == CONSUMER:
            if self.consumer is not None:
                raise SignalConflictError(
                    f"channel {self.name} already has a consumer {self.consumer}"
                )
            self.consumer = (node_name, port_name)
        else:
            raise ValueError(f"bad role {role!r}")

    # -- per-cycle resolution ---------------------------------------------

    def clear_cycle(self):
        """Reset the per-cycle signal state *and* the events cache.

        Signals return to unknown and the cached :class:`ChannelEvents`
        of the previous cycle is invalidated together, so no engine can
        observe stale events against fresh signals.  :meth:`Netlist.reset`
        and the compiled cycle call this; the worklist fix-point makes the
        same six stores inline, once per channel per cycle.
        """
        state = self.state
        state.vp = state.sp = state.vm = state.sm = state.data = None
        self.events_cache = None

    def events(self):
        """The cycle's :class:`ChannelEvents`, resolved on first use and
        memoized for the rest of the cycle.

        Nothing resolves them eagerly: statistics count straight from the
        signals and a model-checking step returns them packed, so no
        simulation step builds an event object.  A call made while
        signals are still settling is never served afterwards: the
        worklist engine drops the memo right after
        :meth:`~repro.sim.engine.Simulator._fixpoint`, and a compiled
        cycle marks the channel unresolved, memo dropped, until it
        flushes its locals, so such a call raises.
        """
        cached = self.events_cache
        if cached is None:
            cached = self.events_cache = self._compute_events()
        return cached

    def _compute_events(self):
        st = self.state
        vp = st.vp
        sp = st.sp
        vm = st.vm
        sm = st.sm
        if vp is None or sp is None or vm is None or sm is None:
            # Slow path only for the error case: name the offending signal.
            name = self.name
            as_bool(vp, f"{name}.vp")
            as_bool(sp, f"{name}.sp")
            as_bool(vm, f"{name}.vm")
            as_bool(sm, f"{name}.sm")
        # Only a forward transfer carries data; the three data-less outcomes
        # are interned (hot path of statistics, monitors and the model
        # checker — equality semantics are unchanged, ChannelEvents is a
        # frozen dataclass compared by fields).
        if vp:
            if vm:
                return EV_CANCEL
            if not sp:
                return ChannelEvents(forward=True, cancel=False,
                                     backward=False, data=st.data)
            return EV_IDLE
        if vm and not sm:
            return EV_BACKWARD
        return EV_IDLE
