"""Stateless per-transition protocol checks used by the explorer.

These are the Section 3.1 properties in transition-relation form:

* Invariant — kill and stop mutually exclusive, no stalled cancellation;
* Retry+ / Retry- — persistence of stalled tokens / anti-tokens, phrased
  over a (previous signals, current signals) pair.

Both checks read the explorer's compact one-byte-per-channel encoding of
:mod:`repro.verif.encoding` (bits ``VP | SP<<1 | VM<<2 | SM<<3``, channels
in netlist order), so no per-channel tuple is unpacked on the hot path.
:func:`retry_exempt_channels` derives the channels Section 4.2 exempts from
Retry+ (the runtime :class:`~repro.sim.monitors.ProtocolMonitor` uses it
too).
"""

from __future__ import annotations

from repro.core.shared import SharedModule

#: bit positions of one packed channel byte (see repro.verif.encoding).
VP_BIT, SP_BIT, VM_BIT, SM_BIT = 1, 2, 4, 8


def check_invariant_packed(packed, channel_names):
    """Invariant violations in one packed-bytes signal vector
    (``channel_names`` gives the byte order): kill and stop both asserted,
    or a cancellation stalled by ``S-``.  Returns a list of violation
    strings (empty = OK)."""
    problems = []
    for i, b in enumerate(packed):
        if b & 0b0110 == 0b0110:                  # vm and sp
            problems.append(f"{channel_names[i]}: V- and S+ both asserted")
        if b & 0b1101 == 0b1101:                  # vp and vm and sm
            problems.append(f"{channel_names[i]}: cancellation with S- asserted")
    return problems


def check_retry_packed(prev, cur, channel_names, exempt_indices=frozenset()):
    """Retry+ / Retry- violations between consecutive packed-bytes signal
    vectors: a stalled token or anti-token withdrawn.

    ``exempt_indices`` holds channel *positions* (into ``channel_names``)
    exempt from Retry+ (see :func:`retry_exempt_channels`).
    """
    problems = []
    for i, p in enumerate(prev):
        c = cur[i]
        if (p & 0b0111 == 0b0011 and not c & 0b0001
                and i not in exempt_indices):     # vp & sp & ~vm held, vp dropped
            problems.append(f"{channel_names[i]}: stalled token withdrawn (Retry+)")
        if p & 0b1101 == 0b1100 and not c & 0b0100:   # vm & sm & ~vp held, vm dropped
            problems.append(f"{channel_names[i]}: stalled anti-token withdrawn (Retry-)")
    return problems


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
