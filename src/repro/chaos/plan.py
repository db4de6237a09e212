"""Deterministic chaos plans and netlist instrumentation.

A :class:`ChaosPlan` is the design-level sibling of
:class:`repro.runtime.faults.FaultPlan`: a seed-driven, fully
reproducible list of :class:`ChaosFault` sites — here a *site* is a
channel and the fault is a saboteur node spliced into it.

:func:`wrap` inserts the saboteurs through the PR 4 edit log — every
mutation is an ordinary :class:`~repro.netlist.edits.NetlistEdit`, so a
warm ``follow_edits`` simulator follows them instead of being
rebuilt, and :func:`unwrap` restores the original design exactly by
replaying the recorded edits' inverses in reverse order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chaos.saboteurs import SABOTEUR_KINDS
from repro.errors import ChaosError
from repro.runtime.checkpoint import content_key


@dataclass(frozen=True)
class ChaosFault:
    """One saboteur to splice into ``channel``.

    ``kind`` is a :data:`~repro.chaos.saboteurs.SABOTEUR_KINDS` key;
    ``rate``/``seed`` drive the per-cycle (per-token for ``corrupt``)
    decision stream; ``budget`` bounds injected cycles (-1 = unlimited).
    """

    channel: str
    kind: str = "stall"
    rate: float = 0.25
    seed: int = 0
    budget: int = -1

    def __post_init__(self):
        if self.kind not in SABOTEUR_KINDS:
            raise ChaosError(
                f"unknown saboteur kind {self.kind!r} "
                f"(have {sorted(SABOTEUR_KINDS)})")


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
        import random

        kinds = tuple(kinds)
        channels = list(channels)
        if not channels:
            raise ChaosError("seeded plan needs at least one channel")
        for kind in kinds:
            if kind not in SABOTEUR_KINDS:
                raise ChaosError(f"unknown saboteur kind {kind!r}")
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
    saboteurs: list = field(default_factory=list)


def wrap(netlist, plan, nondet=False):
    """Splice the plan's saboteurs into ``netlist`` through the edit log.

    Each fault's channel ``X -> Y`` becomes ``X -> saboteur -> Y``: the
    original channel name is kept on the *input* side (so monitors and
    stats keep observing the producer's view) and the output side gets a
    fresh ``<channel>__chaos`` name.  Returns a :class:`ChaosHandle` for
    :func:`unwrap`; ``nondet=True`` builds stall/bubble saboteurs as
    choice nodes for exhaustive exploration.
    """
    for fault in plan.faults:
        if fault.channel not in netlist.channels:
            raise ChaosError(
                f"chaos plan names unknown channel {fault.channel!r}")
    handle = ChaosHandle(netlist=netlist, plan=plan)
    recorder = netlist.subscribe(handle.edits.append)
    try:
        for fault in plan.faults:
            width = netlist.channels[fault.channel].width
            src, dst = netlist.disconnect(fault.channel)
            cls = SABOTEUR_KINDS[fault.kind]
            sab_name = netlist.fresh_name(
                f"chaos_{fault.kind}_{fault.channel}")
            kwargs = dict(rate=fault.rate, seed=fault.seed,
                          budget=fault.budget)
            if fault.kind != "corrupt":
                kwargs["nondet"] = nondet
            sab = cls(sab_name, **kwargs)
            netlist.add(sab)
            netlist.connect(src, (sab_name, "i"),
                            name=fault.channel, width=width)
            netlist.connect((sab_name, "o"), dst,
                            name=netlist.fresh_name(fault.channel + "__chaos"),
                            width=width)
            handle.saboteurs.append(sab_name)
    finally:
        netlist.unsubscribe(recorder)
    return handle


def unwrap(handle):
    """Undo :func:`wrap` exactly: replay the recorded edits' inverses in
    reverse order through the edit log (warm simulators follow them too)."""
    netlist = handle.netlist
    for name in handle.saboteurs:
        if name not in netlist.nodes:
            raise ChaosError(
                f"unwrap: saboteur {name!r} no longer in netlist "
                f"(wrong netlist, or already unwrapped?)")
    for edit in reversed(handle.edits):
        netlist.apply_edit(edit.inverse())
    handle.edits.clear()
    handle.saboteurs.clear()
    return netlist
