"""Elastic buffers (EBs).

Two implementations are provided:

* :class:`ElasticBuffer` — the standard SELF buffer with forward latency
  ``Lf = 1``, backward latency ``Lb = 1`` and configurable capacity
  (default ``C = 2 = Lf + Lb``, the minimum that sustains full throughput).
  Its semantics are exactly the Figure 3 abstract FIFO model of the paper
  with the non-deterministic latencies fixed to their minimum: a signed
  occupancy ``wr - rd`` (tokens when positive, anti-tokens when negative)
  and the stored values; a token and an anti-token meeting at a boundary
  cancel in a single step.

* :class:`ZeroBackwardLatencyBuffer` — the Figure 5 variant with ``Lb = 0``
  and capacity ``C = Lf + Lb = 1``.  Stop and kill bits travel
  *combinationally* through the controller, which lets anti-tokens "rush"
  backward in zero cycles (Section 4.3) at the price of potentially long
  combinational control chains.

An EB initialized with no tokens is a *bubble* — equivalent to a token
followed by an anti-token (``0 = 1 - 1``, Section 3.3).
"""

from __future__ import annotations

from repro.elastic.node import BWD, Node
from repro.kleene import kand, kite, knot


class _TokenStore(Node):
    """The Figure 3 store: tokens while ``count > 0``, anti-tokens while
    ``count < 0``.  Shared by :class:`ElasticBuffer` and the abstract FIFO
    of :mod:`repro.elastic.fifo_model`; subclasses set ``init_tokens``
    (and ``init_anti``) before :meth:`reset`."""

    registers_tokens = True
    init_anti = 0
    #: the signed occupancy (tokens when positive, anti-tokens when
    #: negative), then the stored values, oldest first
    state_slots = {"count": lambda n: len(n.init_tokens) - n.init_anti,
                   "_tokens": lambda n: tuple(n.init_tokens)}

    def contents(self):
        """Current token values, oldest first (empty when holding anti-tokens)."""
        return list(self._tokens)

    def tick(self):
        """Figure 3 with deterministic latencies: a token entering while
        no anti-token is held is stored (entering while anti-tokens are
        held, it annihilates one).  The occupancy rises when a token
        enters or a held anti-token leaves backward, and falls when a
        token leaves forward or an anti-token enters at the output
        (cancelling with the head token, or stored); both at once cancel
        at the boundary."""
        ist = self.st("i")
        ost = self.st("o")
        count = self.count
        if ist.vp and not ist.sp:            # a token entered
            if count >= 0:
                self._tokens += (ist.data,)
            count += 1
        elif ist.vm and not ist.sm:          # a held anti-token left
            count += 1
        if (ost.vp and not ost.sp) or (ost.vm and not ost.sm):
            if self._tokens:
                self._tokens = self._tokens[1:]
            count -= 1
        self.count = count

    def width_pairs(self):
        return [("i", "o")]

    def anti_token_paths(self):
        return [("i", "o")]


class ElasticBuffer(_TokenStore):
    """Standard elastic buffer (``Lf = 1``, ``Lb = 1``).

    Parameters
    ----------
    name:
        Node name.
    init:
        Iterable of initial token values (length <= capacity).  An empty
        ``init`` makes the buffer a *bubble*.
    capacity:
        Token capacity ``C``; must be >= 2 (= ``Lf + Lb``) for full
        throughput, and >= 1 to be a buffer at all.
    anti_capacity:
        How many anti-tokens the buffer can store while waiting for tokens
        to annihilate (>= 1 keeps anti-tokens moving; the Figure 3 model is
        unbounded).
    init_anti:
        Number of initial anti-tokens (mutually exclusive with ``init``).
    """

    kind = "eb"

    def __init__(self, name, init=(), capacity=2, anti_capacity=1, init_anti=0):
        super().__init__(name)
        self.add_in("i")
        self.add_out("o")
        init = list(init)
        if init and init_anti:
            raise ValueError(f"EB {name}: cannot initialize tokens and anti-tokens")
        if capacity < 1:
            raise ValueError(f"EB {name}: capacity must be >= 1")
        if len(init) > capacity:
            raise ValueError(f"EB {name}: {len(init)} initial tokens exceed capacity {capacity}")
        if init_anti > anti_capacity:
            raise ValueError(f"EB {name}: initial anti-tokens exceed anti-capacity")
        self.capacity = capacity
        self.anti_capacity = anti_capacity
        self.init_tokens = init
        self.init_anti = init_anti
        self.reset()

    # -- combinational behaviour (all driven from registered state) -----------

    def comb(self):
        c = self.count
        self.drive("o", "vp", c >= 1)
        if c >= 1:
            self.drive("o", "data", self._tokens[0])
        # Accept an anti-token at the output side unless the anti store is full.
        # When a token is present the arriving anti-token cancels with it in
        # the output channel, so sm must be low (c >= 1 implies the test is
        # False anyway).
        self.drive("o", "sm", c <= -self.anti_capacity)
        # Stop incoming tokens only when full; when holding anti-tokens the
        # incoming token annihilates one, so never stop then.
        self.drive("i", "sp", c >= self.capacity)
        # Offer a stored anti-token backward while holding any.
        self.drive("i", "vm", c <= -1)

    # -- performance models ----------------------------------------------------

    def area(self, tech):
        width = self.channel("o").width if "o" in self._channels else 8
        return tech.eb_area(width, self.capacity)


class ZeroBackwardLatencyBuffer(Node):
    """Elastic buffer with ``Lb = 0``, ``Lf = 1`` and capacity 1 (Figure 5).

    Stop and kill bits travel combinationally:

    * ``i.sp`` is high only while the stored token is itself stalled and not
      being killed — so a slot freed this cycle can be refilled this cycle;
    * an anti-token arriving at the output while the buffer is empty passes
      straight through to the input side in the same cycle.

    The buffer stores no anti-tokens (its capacity budget ``C = Lf + Lb = 1``
    is spent on the one token slot).
    """

    kind = "zbl_eb"
    registers_tokens = True
    #: the slot flag, then the latched value (``None`` while empty)
    state_slots = {"_full": lambda n: bool(n.init_tokens),
                   "_value": lambda n: n.init_tokens[0] if n.init_tokens else None}

    def __init__(self, name, init=()):
        super().__init__(name)
        self.add_in("i")
        self.add_out("o")
        init = list(init)
        if len(init) > 1:
            raise ValueError(f"ZBL EB {name}: capacity is 1, got {len(init)} initial tokens")
        self.init_tokens = init
        self.capacity = 1
        self.reset()

    @property
    def count(self):
        return 1 if self._full else 0

    def contents(self):
        return [self._value] if self._full else []

    def comb(self):
        ost = self.st("o")
        ist = self.st("i")
        if self._full:
            self.drive("o", "vp", True)
            self.drive("o", "data", self._value)
            # An arriving anti-token cancels with the stored token: accept it.
            self.drive("o", "sm", False)
            # No pass-through while full.
            self.drive("i", "vm", False)
            # Combinational backward stop: hold the sender only while our
            # token is stuck (stalled and not killed).
            self.drive("i", "sp", kand(ost.sp, knot(ost.vm)))
        else:
            self.drive("o", "vp", False)
            # Empty: anti-tokens pass straight through to the input side.
            self.drive("i", "vm", ost.vm)
            self.drive("o", "sm", kite(ost.vm, ist.sm, False))
            # Empty slot always accepts a token... unless that token is being
            # cancelled by the passing anti-token, which forces sp low too.
            self.drive("i", "sp", False)

    def tick(self):
        ist = self.st("i")
        ost = self.st("o")
        consumed = self._full and ost.vp and not ost.sp          # forward or cancel
        stored = ist.vp and not ist.sp and not ist.vm            # real entry only
        if consumed:
            self._full = False
            self._value = None
        if stored:
            self._full = True
            self._value = ist.data

    def area(self, tech):
        width = self.channel("o").width if "o" in self._channels else 8
        return tech.zbl_eb_area(width)

    def timing_arcs(self, tech):
        # Data is registered, but the backward control rushes through.
        return [("o", BWD, "i", BWD, tech.zbl_control_delay)]

    def width_pairs(self):
        return [("i", "o")]

    def anti_token_paths(self):
        return [("i", "o")]


def bubble(name, capacity=2):
    """An empty :class:`ElasticBuffer` — the unit inserted by the bubble
    insertion transformation (Section 3.3)."""
    return ElasticBuffer(name, init=(), capacity=capacity)
