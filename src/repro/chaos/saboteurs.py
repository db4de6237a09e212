"""Saboteur node kinds for design-level fault injection.

Latency-insensitivity (Section 2 of the paper) says an elastic design's
output token streams are a function of its input token streams *only* —
arbitrary stalls and bubbles on any channel must leave them unchanged.
The three saboteurs below make that theorem executable:

* :class:`StallInjector` — asserts spurious back-pressure on a channel
  (combinationally raises ``sp`` toward the producer and withholds ``vp``
  from the consumer), modelling an adversarial consumer;
* :class:`BubbleInjector` — a capacity-1 buffer (a legal ``Lb = 0`` EB,
  exactly the Figure 5 controller) that additionally *delays* its stored
  token for extra cycles, modelling an adversarial producer;
* :class:`StateCorruptor` — seed-driven bit flips on in-flight data, the
  Figure 7 soft-error model generalized from the SECDED adder to any
  channel.  Stall/bubble injection must be invisible to the output
  streams; corruption must be *visible* (or repaired by fig7-style
  replay) — both directions are checked by :mod:`repro.chaos.verify`.

Every saboteur is implemented for every engine: scalar ``comb()``
(worklist) and codegen signal tasks registered with
:mod:`repro.backend.pysim` at the bottom of this module.  The
differential fuzz suites pin them bit-identical.

Saboteurs obey the SELF protocol (Retry+/Retry-/Invariant hold on both
sides): an injection may only *begin* on a cycle where it does not
withdraw an already-stalled offer (``_pending_out`` tracks that), and
back-pressure is released combinationally when a kill rushes backward
(``sp`` must never accompany ``vm``).

With ``nondet=True`` a stall/bubble saboteur exposes its per-cycle
decision as a :meth:`~repro.elastic.node.Node.choice_space` of 2, so
:class:`repro.verif.explore.StateExplorer` enumerates *all* injection
interleavings instead of one seeded trace.  ``budget`` bounds the number
of injected cycles (``-1`` = unlimited) and is part of the snapshot, so
bounded-budget chaos keeps explored state spaces finite.
"""

from __future__ import annotations

import random

from repro.elastic.node import Node
from repro.kleene import kand, kite, knot, kor


def _seed_rng(seed):
    # Flat int formula (tuple seeding is gone in modern Python).
    return random.Random(seed * 1000003 + 1)


class _Saboteur(Node):
    """Shared shape: one input port ``i``, one output port ``o``, a seeded
    per-instance decision stream and an injection budget."""

    def __init__(self, name, rate=0.25, seed=0, budget=-1, nondet=False):
        super().__init__(name)
        self.add_in("i")
        self.add_out("o")
        self.rate = float(rate)
        self.seed = int(seed)
        self.budget = int(budget)
        self.nondet = bool(nondet)
        self._choice = 0

    def set_choice(self, choice):
        self._choice = choice


class StallInjector(_Saboteur):
    """Spurious back-pressure: on an injection cycle the consumer-side
    ``sp`` is asserted toward the producer and ``vp`` is withheld from the
    consumer, so the token simply waits (no duplication: the producer sees
    the stall, the consumer sees no offer).  Anti-tokens and ``sm`` pass
    through untouched — the saboteur only stalls the forward direction."""

    kind = "chaos_stall"

    def __init__(self, name, rate=0.25, seed=0, budget=-1, nondet=False):
        super().__init__(name, rate=rate, seed=seed, budget=budget,
                         nondet=nondet)
        self.reset()

    def reset(self):
        self._stall_now = False
        self._pending_out = False
        self._budget = self.budget
        self._rng = _seed_rng(self.seed)
        self.stalls = 0

    def snapshot(self):
        return (self._pending_out, self._budget)

    def restore(self, state):
        self._pending_out, self._budget = state

    def choice_space(self):
        if self.nondet and self._budget != 0 and not self._pending_out:
            return 2
        return 1

    def pre_cycle(self):
        eligible = self._budget != 0 and not self._pending_out
        if self.nondet:
            self._stall_now = eligible and self._choice == 1
        else:
            self._stall_now = (eligible and self.rate > 0
                               and self._rng.random() < self.rate)

    def comb_reads(self):
        return [("i", "vp"), ("i", "data"), ("i", "sm"),
                ("o", "sp"), ("o", "vm")]

    def comb(self):
        ist = self.st("i")
        ost = self.st("o")
        if self._stall_now:
            self.drive("o", "vp", False)
        else:
            self.drive("o", "vp", ist.vp)
            if ist.vp and ist.data is not None:
                self.drive("o", "data", ist.data)
        self.drive("o", "sm", ist.sm)
        self.drive("i", "vm", ost.vm)
        # Back-pressure rushes combinationally, but never alongside a kill
        # (V- & S+ is illegal); kor resolves True even while o.sp is unknown.
        self.drive("i", "sp", kand(kor(ost.sp, self._stall_now), knot(ost.vm)))

    def tick(self):
        ost = self.st("o")
        if self._stall_now:
            self.stalls += 1
            if self._budget > 0:
                self._budget -= 1
        self._pending_out = bool(ost.vp and ost.sp and not ost.vm)


class BubbleInjector(_Saboteur):
    """Forward-latency saboteur: a legal capacity-1 ``Lb = 0`` buffer (the
    Figure 5 controller, so merely inserting it is already a latency
    perturbation) that on injection cycles *holds* its stored token for an
    extra cycle — the consumer sees a bubble, the producer sees a stall."""

    kind = "chaos_bubble"
    registers_tokens = True

    def __init__(self, name, rate=0.25, seed=0, budget=-1, nondet=False):
        super().__init__(name, rate=rate, seed=seed, budget=budget,
                         nondet=nondet)
        self.capacity = 1
        self.reset()

    def reset(self):
        self._full = False
        self._value = None
        self._bubble_now = False
        self._pending_out = False
        self._budget = self.budget
        self._rng = _seed_rng(self.seed)
        self.bubbles = 0

    @property
    def count(self):
        return 1 if self._full else 0

    def snapshot(self):
        return (self._full, self._value if self._full else None,
                self._pending_out, self._budget)

    def restore(self, state):
        self._full, self._value, self._pending_out, self._budget = state

    def choice_space(self):
        if (self.nondet and self._full and self._budget != 0
                and not self._pending_out):
            return 2
        return 1

    def pre_cycle(self):
        eligible = (self._full and self._budget != 0
                    and not self._pending_out)
        if self.nondet:
            self._bubble_now = eligible and self._choice == 1
        else:
            self._bubble_now = (eligible and self.rate > 0
                                and self._rng.random() < self.rate)

    def comb_reads(self):
        return [("o", "sp"), ("o", "vm"), ("i", "sm")]

    def comb(self):
        ost = self.st("o")
        ist = self.st("i")
        if self._full and self._bubble_now:
            # Holding: no offer, no pass-through, but an arriving kill is
            # still accepted (it annihilates the stored token at tick).
            self.drive("o", "vp", False)
            self.drive("o", "sm", False)
            self.drive("i", "vm", False)
            self.drive("i", "sp", True)
        elif self._full:
            self.drive("o", "vp", True)
            self.drive("o", "data", self._value)
            self.drive("o", "sm", False)
            self.drive("i", "vm", False)
            self.drive("i", "sp", kand(ost.sp, knot(ost.vm)))
        else:
            self.drive("o", "vp", False)
            self.drive("i", "vm", ost.vm)
            self.drive("o", "sm", kite(ost.vm, ist.sm, False))
            self.drive("i", "sp", False)

    def tick(self):
        ist = self.st("i")
        ost = self.st("o")
        # A kill arriving while we hold annihilates the stored token (we
        # drove o.sm low, so the anti-token was accepted, not stored).
        _ann = self._full and self._bubble_now and bool(ost.vm)
        if self._bubble_now:
            self.bubbles += 1
            if self._budget > 0:
                self._budget -= 1
        consumed = self._full and ((ost.vp and not ost.sp) or _ann)
        stored = ist.vp and not ist.sp and not ist.vm
        if consumed:
            self._full = False
            self._value = None
        if stored:
            self._full = True
            self._value = ist.data
        self._pending_out = bool(ost.vp and ost.sp and not ost.vm)


class StateCorruptor(_Saboteur):
    """Seed-driven bit flips on in-flight data: a combinational wire whose
    forwarded value is XORed with a per-token mask drawn from the seed —
    the Figure 7 soft-error model generalized to any channel.  Corruption
    is a pure function of the token index, so a corrupted-and-stalled
    token still satisfies Retry+ data persistence.  Control signals are
    mirrored untouched; non-int data (and bools) pass through unharmed."""

    kind = "chaos_corrupt"

    def __init__(self, name, rate=0.3, seed=0, budget=-1):
        super().__init__(name, rate=rate, seed=seed, budget=budget)
        self.reset()

    def reset(self):
        self._idx = 0
        self._budget = self.budget
        self._cache = {}
        self.corrupted = 0

    def snapshot(self):
        return (self._idx, self._budget, self.corrupted)

    def restore(self, state):
        self._idx, self._budget, self.corrupted = state

    def _decide(self):
        """XOR mask for the current token index (0 = leave unharmed)."""
        if self._budget == 0:
            return 0
        mask = self._cache.get(self._idx)
        if mask is None:
            rng = random.Random(self.seed * 1000003 + self._idx * 7919 + 1)
            mask = 0
            if self.rate > 0 and rng.random() < self.rate:
                width = 8
                ch = self._channels.get("o")
                if ch is not None and ch.width:
                    width = ch.width
                mask = rng.getrandbits(width) or 1
            self._cache[self._idx] = mask
        return mask

    def _corrupt(self, value):
        m = self._decide()
        if m and isinstance(value, int) and not isinstance(value, bool):
            return value ^ m
        return value

    def comb_reads(self):
        return [("i", "vp"), ("i", "data"), ("i", "sm"),
                ("o", "sp"), ("o", "vm")]

    def comb(self):
        ist = self.st("i")
        ost = self.st("o")
        self.drive("o", "vp", ist.vp)
        if ist.vp and ist.data is not None:
            self.drive("o", "data", self._corrupt(ist.data))
        self.drive("o", "sm", ist.sm)
        self.drive("i", "vm", ost.vm)
        self.drive("i", "sp", ost.sp)

    def tick(self):
        ost = self.st("o")
        if ost.vp and not ost.sp:
            # The token departs (forward or cancelled): account and advance.
            if not ost.vm and self._decide():
                self.corrupted += 1
                if self._budget > 0:
                    self._budget -= 1
            self._idx += 1


SABOTEUR_KINDS = {
    "stall": StallInjector,
    "bubble": BubbleInjector,
    "corrupt": StateCorruptor,
}


# ---------------------------------------------------------------------------
# codegen signal tasks (engine="codegen")
#
# Registered directly into the pysim emitter tables, keyed by the class
# defining comb()/tick() — pysim never imports this module, so there is no
# import cycle; importing repro.chaos is what arms codegen support.
# ---------------------------------------------------------------------------


def _stall_fwd(g, ni, node, out):
    n = g.node_ref(ni)
    out += [
        f"if {n}._stall_now:",
        f"    {g.sig(node, 'o', 'vp')} = False",
        "else:",
        f"    {g.sig(node, 'o', 'vp')} = {g.sig(node, 'i', 'vp')}",
        f"    if {g.sig(node, 'i', 'vp')} and "
        f"{g.sig(node, 'i', 'data')} is not None:",
        f"        {g.sig(node, 'o', 'data')} = {g.sig(node, 'i', 'data')}",
    ]


def _stall_osm(g, ni, node, out):
    out.append(f"{g.sig(node, 'o', 'sm')} = {g.sig(node, 'i', 'sm')}")


def _stall_ivm(g, ni, node, out):
    out.append(f"{g.sig(node, 'i', 'vm')} = {g.sig(node, 'o', 'vm')}")


def _stall_isp(g, ni, node, out):
    n = g.node_ref(ni)
    out.append(
        f"{g.sig(node, 'i', 'sp')} = "
        f"({n}._stall_now or {g.sig(node, 'o', 'sp')}) "
        f"and not {g.sig(node, 'o', 'vm')}"
    )


def _spec_stall(node):
    return [
        ((("i", "vp"), ("i", "data")), (("o", "vp"), ("o", "data")),
         _stall_fwd),
        ((("i", "sm"),), (("o", "sm"),), _stall_osm),
        ((("o", "vm"),), (("i", "vm"),), _stall_ivm),
        ((("o", "sp"), ("o", "vm")), (("i", "sp"),), _stall_isp),
    ]


def _tick_stall(g, ni, node, out):
    n = g.node_ref(ni)
    ovp, osp = g.sig(node, "o", "vp"), g.sig(node, "o", "sp")
    ovm = g.sig(node, "o", "vm")
    out += [
        f"if {n}._stall_now:",
        f"    {n}.stalls += 1",
        f"    if {n}._budget > 0:",
        f"        {n}._budget -= 1",
        f"{n}._pending_out = bool({ovp} and {osp} and not {ovm})",
    ]


def _bubble_fwd(g, ni, node, out):
    n = g.node_ref(ni)
    out += [
        f"if {n}._full and not {n}._bubble_now:",
        f"    {g.sig(node, 'o', 'vp')} = True",
        f"    {g.sig(node, 'o', 'data')} = {n}._value",
        "else:",
        f"    {g.sig(node, 'o', 'vp')} = False",
    ]


def _bubble_ivm(g, ni, node, out):
    n = g.node_ref(ni)
    out.append(
        f"{g.sig(node, 'i', 'vm')} = False if {n}._full "
        f"else {g.sig(node, 'o', 'vm')}"
    )


def _bubble_osm(g, ni, node, out):
    n = g.node_ref(ni)
    out.append(
        f"{g.sig(node, 'o', 'sm')} = False if {n}._full "
        f"else ({g.sig(node, 'i', 'sm')} if {g.sig(node, 'o', 'vm')} else False)"
    )


def _bubble_isp(g, ni, node, out):
    n = g.node_ref(ni)
    out.append(
        f"{g.sig(node, 'i', 'sp')} = "
        f"(True if {n}._bubble_now else "
        f"({g.sig(node, 'o', 'sp')} and not {g.sig(node, 'o', 'vm')})) "
        f"if {n}._full else False"
    )


def _spec_bubble(node):
    return [
        ((), (("o", "vp"), ("o", "data")), _bubble_fwd),
        ((("o", "vm"),), (("i", "vm"),), _bubble_ivm),
        ((("o", "vm"), ("i", "sm")), (("o", "sm"),), _bubble_osm),
        ((("o", "sp"), ("o", "vm")), (("i", "sp"),), _bubble_isp),
    ]


def _tick_bubble(g, ni, node, out):
    n = g.node_ref(ni)
    ivp, isp, ivm = (g.sig(node, "i", s) for s in ("vp", "sp", "vm"))
    ovp, osp, ovm = (g.sig(node, "o", s) for s in ("vp", "sp", "vm"))
    out += [
        f"_ann = {n}._full and {n}._bubble_now and {ovm}",
        f"if {n}._bubble_now:",
        f"    {n}.bubbles += 1",
        f"    if {n}._budget > 0:",
        f"        {n}._budget -= 1",
        f"if {n}._full and (({ovp} and not {osp}) or _ann):",
        f"    {n}._full = False",
        f"    {n}._value = None",
        f"if {ivp} and not {isp} and not {ivm}:",
        f"    {n}._full = True",
        f"    {n}._value = {g.sig(node, 'i', 'data')}",
        f"{n}._pending_out = bool({ovp} and {osp} and not {ovm})",
    ]


def _corrupt_fwd(g, ni, node, out):
    n = g.node_ref(ni)
    out += [
        f"{g.sig(node, 'o', 'vp')} = {g.sig(node, 'i', 'vp')}",
        f"if {g.sig(node, 'i', 'vp')} and "
        f"{g.sig(node, 'i', 'data')} is not None:",
        f"    {g.sig(node, 'o', 'data')} = "
        f"{n}._corrupt({g.sig(node, 'i', 'data')})",
    ]


def _corrupt_isp(g, ni, node, out):
    out.append(f"{g.sig(node, 'i', 'sp')} = {g.sig(node, 'o', 'sp')}")


def _spec_corrupt(node):
    return [
        ((("i", "vp"), ("i", "data")), (("o", "vp"), ("o", "data")),
         _corrupt_fwd),
        ((("i", "sm"),), (("o", "sm"),), _stall_osm),
        ((("o", "vm"),), (("i", "vm"),), _stall_ivm),
        ((("o", "sp"),), (("i", "sp"),), _corrupt_isp),
    ]


def _tick_corrupt(g, ni, node, out):
    n = g.node_ref(ni)
    ovp, osp = g.sig(node, "o", "vp"), g.sig(node, "o", "sp")
    ovm = g.sig(node, "o", "vm")
    out += [
        f"if {ovp} and not {osp}:",
        f"    if not {ovm} and {n}._decide():",
        f"        {n}.corrupted += 1",
        f"        if {n}._budget > 0:",
        f"            {n}._budget -= 1",
        f"    {n}._idx += 1",
    ]


def _register_codegen():
    from repro.backend import pysim

    pysim._COMB_TASKS[StallInjector] = _spec_stall
    pysim._TICK_EMITTERS[StallInjector] = _tick_stall
    pysim._COMB_TASKS[BubbleInjector] = _spec_bubble
    pysim._TICK_EMITTERS[BubbleInjector] = _tick_bubble
    pysim._COMB_TASKS[StateCorruptor] = _spec_corrupt
    pysim._TICK_EMITTERS[StateCorruptor] = _tick_corrupt


_register_codegen()
