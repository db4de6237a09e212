"""Deterministic chaos plans and netlist instrumentation.

A :class:`ChaosPlan` is the design-level sibling of
:class:`repro.runtime.faults.FaultPlan`: a seed-driven, fully
reproducible list of :class:`ChaosFault` sites — here a *site* is a
channel and the fault is a small splice of ordinary node kinds:

* ``stall`` — a 2-input :class:`~repro.elastic.functional.Func` join of
  the channel with a :class:`~repro.elastic.environment.PermissionSource`,
  passing the data through: a withheld permission stalls the producer
  and shows the consumer no offer;
* ``bubble`` — an empty :class:`~repro.elastic.buffers.ElasticBuffer`
  (the Section 3.3 bubble) followed by that join;
* ``corrupt`` — a join of the data with a
  :class:`~repro.elastic.environment.FunctionSource` of per-token seeded
  XOR masks (the Figure 7 soft-error model on any channel).

:func:`wrap` splices them in through the netlist edit log — every mutation
is an ordinary :class:`~repro.netlist.edits.NetlistEdit`, so a warm
``follow_edits`` simulator follows them instead of being rebuilt, and
:func:`unwrap` restores the original design exactly by replaying the
recorded edits' inverses in reverse order.  Every spliced node carries a
``chaos_*`` kind, which lint rule W211 flags if it is left behind.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.elastic.buffers import bubble
from repro.elastic.environment import FunctionSource, PermissionSource
from repro.elastic.functional import Func
from repro.errors import ChaosError
from repro.runtime.checkpoint import content_key

#: the fault kinds :func:`wrap` can splice in.
FAULT_KINDS = ("stall", "bubble", "corrupt")


def check_knobs(kinds, rate=0.25, budget=-1, coverage=0.5):
    """Raise :class:`ChaosError` unless every kind is known and ``rate``
    and ``coverage`` are probabilities and ``budget`` is ``-1``
    (unbounded) or a count."""
    if not kinds:
        raise ChaosError(f"no fault kinds given (have {list(FAULT_KINDS)})")
    for kind in kinds:
        if kind not in FAULT_KINDS:
            raise ChaosError(f"unknown fault kind {kind!r} "
                             f"(have {list(FAULT_KINDS)})")
    for name, value in (("rate", rate), ("coverage", coverage)):
        if not 0.0 <= value <= 1.0:
            raise ChaosError(f"{name} must be in [0, 1], got {value!r}")
    if budget < -1:
        raise ChaosError(f"budget must be -1 (unbounded) or >= 0, "
                         f"got {budget!r}")


@dataclass(frozen=True)
class ChaosFault:
    """One fault to splice into ``channel``.

    ``kind`` is one of :data:`FAULT_KINDS`; ``rate``/``seed`` drive the
    per-cycle (per-token for ``corrupt``) decision stream; ``budget``
    bounds injected stall cycles, or corrupted tokens (-1 = unlimited).
    """

    channel: str
    kind: str = "stall"
    rate: float = 0.25
    seed: int = 0
    budget: int = -1

    def __post_init__(self):
        check_knobs((self.kind,), rate=self.rate, budget=self.budget)


@dataclass(frozen=True)
class ChaosPlan:
    """An immutable, digestable set of chaos faults."""

    faults: tuple = ()
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "faults", tuple(self.faults))

    @classmethod
    def seeded(cls, seed, channels, kinds=("stall", "bubble"),
               coverage=0.5, rate=0.25, budget=-1):
        """Draw a reproducible plan over ``channels``: each channel is hit
        with probability ``coverage``; a drawn fault gets a kind from
        ``kinds`` and its own sub-seed.  At least one fault is always
        drawn (an empty chaos plan tests nothing)."""
        kinds = tuple(kinds)
        channels = list(channels)
        if not channels:
            raise ChaosError("seeded plan needs at least one channel")
        check_knobs(kinds, rate=rate, budget=budget, coverage=coverage)
        rng = random.Random(seed)
        faults = []
        for name in channels:
            if rng.random() < coverage:
                faults.append(ChaosFault(
                    channel=name,
                    kind=kinds[rng.randrange(len(kinds))],
                    rate=rate,
                    seed=rng.randrange(2 ** 31),
                    budget=budget,
                ))
        if not faults:
            name = channels[rng.randrange(len(channels))]
            faults.append(ChaosFault(
                channel=name,
                kind=kinds[rng.randrange(len(kinds))],
                rate=rate,
                seed=rng.randrange(2 ** 31),
                budget=budget,
            ))
        return cls(faults=tuple(faults), seed=seed)

    def digest(self):
        """Content digest identifying this plan exactly — reported by the
        CLI so any failing run is reproducible from its artifact alone."""
        return content_key((
            "chaos-plan-v1",
            self.seed,
            tuple((f.channel, f.kind, f.rate, f.seed, f.budget)
                  for f in self.faults),
        ))


@dataclass
class ChaosHandle:
    """What :func:`wrap` did to a netlist — enough to undo it exactly."""

    netlist: object
    plan: ChaosPlan
    edits: list = field(default_factory=list)
    #: names of every node :func:`wrap` spliced in
    splices: list = field(default_factory=list)


class MaskStream:
    """The XOR mask of token ``idx`` on a corrupted channel: with
    probability ``rate`` a random nonzero ``width``-bit mask, else 0.
    Only the first ``budget`` nonzero masks survive (-1 = all).  A pure
    function of ``idx``, so a restored source replays the same masks."""

    def __init__(self, rate, seed, budget, width):
        self.rate = rate
        self.seed = seed
        self.budget = budget
        self.width = width
        self._hits = 0      # nonzero masks among indices < self._end
        self._end = 0

    def _draw(self, idx):
        rng = random.Random(self.seed * 1000003 + idx * 7919 + 1)
        if self.rate > 0 and rng.random() < self.rate:
            return rng.getrandbits(self.width) or 1
        return 0

    def __call__(self, idx):
        if self.budget < 0:
            return self._draw(idx)
        # Scan until idx is covered or the budget is spent; past the
        # budget's last nonzero mask every mask is 0.
        while self._hits < self.budget and self._end <= idx:
            self._hits += bool(self._draw(self._end))
            self._end += 1
        return self._draw(idx) if idx < self._end else 0


def _pass_data(data, _permission):
    return data


def _xor_mask(data, mask):
    if isinstance(data, int) and not isinstance(data, bool):
        return data ^ mask
    return data


def _splice(netlist, fault, nondet, added):
    """Splice one fault into ``fault.channel`` (``X -> Y`` becomes
    ``X [-> bubble] -> join -> Y`` with a side source on the join's second
    input), appending every new node's name to ``added``."""
    channel = fault.channel
    width = netlist.channels[channel].width
    src, dst = netlist.disconnect(channel)
    base = f"chaos_{fault.kind}_{channel}"

    def add(node, kind):
        node.kind = kind
        netlist.add(node)
        added.append(node.name)
        return node.name

    if fault.kind == "corrupt":
        masks = MaskStream(fault.rate, fault.seed, fault.budget, width or 8)
        side = add(FunctionSource(netlist.fresh_name(base + "__mask"), masks),
                   "chaos_mask")
        side_channel, side_width = channel + "__mask", width
        join = add(Func(netlist.fresh_name(base), _xor_mask, n_inputs=2,
                        delay=0.0, area_cost=0.0), "chaos_corrupt")
    else:
        side = add(PermissionSource(netlist.fresh_name(base + "__permit"),
                                    rate=fault.rate, seed=fault.seed,
                                    budget=fault.budget, nondet=nondet),
                   "chaos_permit")
        side_channel, side_width = channel + "__permit", 1
        join = add(Func(netlist.fresh_name(base), _pass_data, n_inputs=2,
                        delay=0.0, area_cost=0.0), "chaos_stall")
    if fault.kind == "bubble":
        eb = add(bubble(netlist.fresh_name(base + "__eb")), "chaos_bubble")
        netlist.connect(src, (eb, "i"), name=channel, width=width)
        netlist.connect((eb, "o"), (join, "i0"),
                        name=netlist.fresh_name(channel + "__bubble"),
                        width=width)
    else:
        netlist.connect(src, (join, "i0"), name=channel, width=width)
    netlist.connect((side, "o"), (join, "i1"),
                    name=netlist.fresh_name(side_channel), width=side_width)
    netlist.connect((join, "o"), dst,
                    name=netlist.fresh_name(channel + "__chaos"), width=width)


def wrap(netlist, plan, nondet=False):
    """Splice the plan's faults into ``netlist`` through the edit log.

    The original channel name is kept on the *input* side of each splice
    (so monitors and stats keep observing the producer's view) and the
    output side gets a fresh ``<channel>__chaos`` name.  Returns a
    :class:`ChaosHandle` for :func:`unwrap`; ``nondet=True`` makes every
    permission source a choice node for exhaustive exploration.
    """
    for fault in plan.faults:
        if fault.channel not in netlist.channels:
            raise ChaosError(
                f"chaos plan names unknown channel {fault.channel!r}")
    handle = ChaosHandle(netlist=netlist, plan=plan)
    recorder = netlist.subscribe(handle.edits.append)
    try:
        for fault in plan.faults:
            _splice(netlist, fault, nondet, handle.splices)
    finally:
        netlist.unsubscribe(recorder)
    return handle


def unwrap(handle):
    """Undo :func:`wrap` exactly: replay the recorded edits' inverses in
    reverse order through the edit log (warm simulators follow them too)."""
    netlist = handle.netlist
    for name in handle.splices:
        if name not in netlist.nodes:
            raise ChaosError(
                f"unwrap: spliced node {name!r} no longer in netlist "
                f"(wrong netlist, or already unwrapped?)")
    for edit in reversed(handle.edits):
        netlist.apply_edit(edit.inverse())
    handle.edits.clear()
    handle.splices.clear()
    return netlist
