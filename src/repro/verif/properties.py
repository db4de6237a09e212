"""The SELF protocol rules (Section 3.1), stated once.

The paper verifies four properties on every channel: ``Retry+``
(``G((V+ & S+ & !V-) -> X V+)``, a stalled token stays offered — with its
data, the usual strengthening), ``Retry-`` (``G((V- & S- & !V+) -> X
V-)``), the ``Invariant`` (``V- -> !S+`` and ``(V+ & V-) -> !S-``) and
``Liveness`` (``G F((V+ & !S+) | (V- & !S-))``, which the model checker's
deadlock and leads-to analyses check, and ``BoundedLivenessMonitor`` in
bounded form).  :data:`INVARIANT` and :data:`RETRY` state the first three
over one channel's packed byte (``VP | SP<<1 | VM<<2 | SM<<3``, see
:mod:`repro.verif.encoding`), with each violation's wording.  Every
checker derives from them: the explorer's screen (:func:`protocol_screen`,
two ``bytes.translate`` passes and one integer mask test) and wording
(:func:`protocol_problems`), the runtime ``ProtocolMonitor`` and the
compiled run entry (which render :func:`invariant_test`,
:func:`retry_test` and the Retry patterns into Python) and the NuSMV
export.  :func:`retry_exempt_channels` derives the channels Section 4.2
exempts from Retry+, the rule marked ``exempt``.
"""

from __future__ import annotations

from functools import reduce
from operator import and_
from typing import NamedTuple

from repro.core.shared import SharedModule

#: bit positions of one packed channel byte, and their signals in bit order
VP_BIT, SP_BIT, VM_BIT, SM_BIT = 1, 2, 4, 8
SIGNALS = ("vp", "sp", "vm", "sm")


class Rule(NamedTuple):
    """A channel byte ``b`` with ``b & mask == value`` breaks an Invariant
    rule at once; under a Retry rule it obliges the next cycle's byte to
    keep the ``held`` bit, and the data when ``data`` words its change.
    An ``exempt`` rule is waived on Section 4.2's channels."""
    prop: str
    mask: int
    value: int
    detail: str
    held: int = 0
    data: str | None = None
    exempt: bool = False


INVARIANT = (
    Rule("Invariant", SP_BIT | VM_BIT, SP_BIT | VM_BIT,
         "V- and S+ both asserted"),
    Rule("Invariant", VP_BIT | VM_BIT | SM_BIT, VP_BIT | VM_BIT | SM_BIT,
         "cancellation with S- asserted"),
)
RETRY = (
    Rule("Retry+", VP_BIT | SP_BIT | VM_BIT, VP_BIT | SP_BIT,
         "stalled token withdrawn", VP_BIT,
         "stalled token changed data {!r} -> {!r}", exempt=True),
    Rule("Retry-", VP_BIT | VM_BIT | SM_BIT, VM_BIT | SM_BIT,
         "stalled anti-token withdrawn", VM_BIT),
)

#: the channel bytes that keep the Invariant
INVARIANT_OK = bytes(b for b in range(256)
                     if not any(b & r.mask == r.value for r in INVARIANT))
#: previous byte -> the bits the current byte must keep (the Retry
#: patterns are disjoint)
RETRY_HELD = bytes(sum(r.held for r in RETRY if b & r.mask == r.value)
                   for b in range(256))


def literals(mask, value):
    """``(signal, asserted)`` per bit of ``mask`` in bit order, asserted
    where ``value`` sets it."""
    return [(name, bool(value >> k & 1)) for k, name in enumerate(SIGNALS)
            if mask >> k & 1]


def conjunction(lits, signal, sep=" and ", neg="not "):
    """``lits`` joined by ``sep``, each rendered ``signal(name)`` and
    prefixed by ``neg`` where not asserted."""
    return sep.join(("" if on else neg) + signal(name) for name, on in lits)


def signal_of(bit):
    """The control signal at ``bit``."""
    return SIGNALS[bit.bit_length() - 1]


def invariant_test(signal):
    """A Python test over one channel's signals (``signal(name)`` renders
    each), true exactly when the channel breaks the Invariant: the literal
    common to every pattern first, then each pattern's rest."""
    common = reduce(and_, (rule.mask for rule in INVARIANT))
    rests = " or ".join(
        conjunction(literals(rule.mask & ~common, rule.value), signal)
        for rule in INVARIANT)
    first = conjunction(literals(common, INVARIANT[0].value), signal)
    return f"{first} and ({rests})"


def retry_test(rule, signal, data):
    """A Python test, true when the due obligation of ``rule`` is broken:
    its held signal dropped or, for a rule that holds data (``data``
    renders it), the data changed."""
    test = "not " + signal(signal_of(rule.held))
    return f"({test} or {signal('data')} != {data})" if rule.data else test


def protocol_problems(prev, cur, channel_names, exempt_indices=frozenset()):
    """The violations of packed signal vector ``cur`` after ``prev``
    (``None``: the initial state), worded per channel in ``channel_names``
    byte order: the Invariant first, then the Retry obligations ``prev``
    left, Retry+ waived at the ``exempt_indices`` positions."""
    problems = [f"{channel_names[i]}: {rule.detail}"
                for i, b in enumerate(cur) for rule in INVARIANT
                if b & rule.mask == rule.value]
    for i, p in enumerate(prev or ()):
        for rule in RETRY:
            if (p & rule.mask == rule.value and not cur[i] & rule.held
                    and not (rule.exempt and i in exempt_indices)):
                problems.append(f"{channel_names[i]}: {rule.detail} "
                                f"({rule.prop})")
    return problems


def retry_mask(n_channels, exempt_indices=frozenset()):
    """The mask :func:`protocol_screen` applies to the held bits of
    ``n_channels`` packed channels: all but the exempt rules' held bits at
    the ``exempt_indices`` positions."""
    waived = sum(rule.held for rule in RETRY if rule.exempt)
    mask = (1 << 8 * n_channels) - 1
    for i in exempt_indices:
        mask &= ~(waived << 8 * i)
    return mask


def held_bits(prev, mask):
    """The bits the Retry rules ``prev`` left due oblige the next packed
    vector to keep, as one little-endian int (0 for ``None``, the initial
    state), with ``mask`` the :func:`retry_mask` of the exempt positions.
    A vector ``cur`` breaks one exactly when ``held_bits(prev, mask) &
    ~int.from_bytes(cur, "little")``."""
    if prev is None:
        return 0
    return int.from_bytes(prev.translate(RETRY_HELD), "little") & mask


def protocol_screen(prev, cur, mask):
    """Whether :func:`protocol_problems` reports anything for ``(prev,
    cur)``, with ``mask`` the :func:`retry_mask` of the exempt positions:
    the Invariant (some byte of ``cur`` outside :data:`INVARIANT_OK`) or
    a Retry obligation (:func:`held_bits`) broken."""
    return bool(cur.translate(None, INVARIANT_OK)
                or held_bits(prev, mask) & ~int.from_bytes(cur, "little"))


def retry_exempt_channels(netlist):
    """Channels exempt from Retry+.

    Section 4.2: "the output channels of the shared modules are not
    required to be persistent.  However, persistence is maintained at the
    inputs of the shared module and at the outputs of all EBs after the
    shared module."  Non-persistence therefore propagates through any
    *combinational* node (function block, fork, mux) fed by a shared
    output, and stops at the next node that registers tokens.  The walk
    asks the node class, not its ``kind`` tag: a chaos splice's join is a
    function block a withdrawn offer passes through, its bubble a buffer
    that stops it.
    """
    exempt = set()
    changed = True
    while changed:
        changed = False
        for name, channel in netlist.channels.items():
            if name in exempt:
                continue
            producer = netlist.nodes[channel.producer[0]]
            if isinstance(producer, SharedModule):
                exempt.add(name)
                changed = True
            elif not producer.registers_tokens:
                feeds = [
                    producer.channel(port).name
                    for port in producer.in_ports
                    if port in producer._channels
                ]
                if any(feed in exempt for feed in feeds):
                    exempt.add(name)
                    changed = True
    return exempt
