"""Elastic buffers (EBs).

Two implementations are provided:

* :class:`ElasticBuffer` — the standard SELF buffer with forward latency
  ``Lf = 1``, backward latency ``Lb = 1`` and configurable capacity
  (default ``C = 2 = Lf + Lb``, the minimum that sustains full throughput).
  Its semantics are exactly the Figure 3 abstract FIFO model of the paper
  with the non-deterministic latencies fixed to their minimum: ``wr``/``rd``
  pointers, tokens when ``wr > rd``, anti-tokens when ``wr < rd``, a single
  pointer increment when a token and an anti-token cancel at a boundary.

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


class ElasticBuffer(Node):
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
    registers_tokens = True

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

    # -- state ---------------------------------------------------------------

    def reset(self):
        self._store = {}
        self._wr = 0
        self._rd = 0
        for idx, value in enumerate(self.init_tokens):
            self._store[idx] = value
            self._wr = idx + 1
        if self.init_anti:
            self._rd = self.init_anti

    @property
    def count(self):
        """Signed occupancy: tokens when positive, anti-tokens when negative."""
        return self._wr - self._rd

    def contents(self):
        """Current token values, oldest first (empty when holding anti-tokens)."""
        return [self._store[i] for i in range(self._rd, self._wr)]

    def snapshot(self):
        return (self._wr - self._rd, tuple(self.contents()))

    def restore(self, state):
        count, values = state
        self._wr = max(count, 0)
        self._rd = max(-count, 0)
        self._store = dict(enumerate(values))

    # -- combinational behaviour (all driven from registered state) -----------

    def comb_tasks(self):
        # Fully registered: comb() is a function of the wr/rd pointers only,
        # so the worklist engine never needs to re-evaluate it within a cycle.
        return [([], self.drives())]

    def comb(self):
        c = self.count
        self.drive("o", "vp", c >= 1)
        if c >= 1:
            self.drive("o", "data", self._store[self._rd])
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

    # -- sequential behaviour (Figure 3 with deterministic latencies) ---------

    def tick(self):
        ist = self.st("i")
        # wr advances when a token enters OR our anti-token leaves backward
        # (single increment when both happen at once = cancellation).
        wr_inc = (ist.vp and not ist.sp) or (ist.vm and not ist.sm)
        # rd advances when a token leaves forward OR an anti-token enters at
        # the output side (cancellation with the head token, or storage).
        ost = self.st("o")
        rd_inc = (ost.vp and not ost.sp) or (ost.vm and not ost.sm)
        if ist.vp and not ist.sp:
            self._store[self._wr] = ist.data
        if wr_inc:
            self._wr += 1
        if rd_inc:
            self._store.pop(self._rd, None)
            self._rd += 1

    # -- performance models ----------------------------------------------------

    def area(self, tech):
        width = self.channel("o").width if "o" in self._channels else 8
        return tech.eb_area(width, self.capacity)

    def width_pairs(self):
        return [("i", "o")]

    def anti_token_paths(self):
        return [("i", "o")]


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

    def reset(self):
        self._full = bool(self.init_tokens)
        self._value = self.init_tokens[0] if self.init_tokens else None

    @property
    def count(self):
        return 1 if self._full else 0

    def contents(self):
        return [self._value] if self._full else []

    def snapshot(self):
        return (self._full, self._value if self._full else None)

    def restore(self, state):
        self._full, self._value = state

    def comb_tasks(self):
        # The Lb=0 controller lets stop/kill rush through combinationally:
        # i.sp follows o.sp/o.vm while full, the anti-token pass-through
        # reads o.vm and the upstream i.sm while empty.  The forward side
        # is registered, so a chain is acyclic signal-to-signal.
        return [
            ([], [("o", "vp"), ("o", "data")]),
            ([("o", "vm")], [("i", "vm")]),
            ([("o", "vm"), ("i", "sm")], [("o", "sm")]),
            ([("o", "sp"), ("o", "vm")], [("i", "sp")]),
        ]

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
