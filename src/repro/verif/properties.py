"""Stateless per-transition protocol checks used by the explorer.

These are the Section 3.1 properties in transition-relation form:

* Invariant — kill and stop mutually exclusive, no stalled cancellation;
* Retry+ / Retry- — persistence of stalled tokens / anti-tokens, phrased
  over a (previous signals, current signals) pair.

Two equivalent phrasings are provided.  The dict-based
:func:`check_invariant` / :func:`check_retry` are the readable reference
form over ``{channel: (vp, sp, vm, sm)}`` mappings.  The explorer's hot
path uses the ``*_packed`` variants over the compact one-byte-per-channel
encoding of :mod:`repro.verif.encoding` (bits ``VP | SP<<1 | VM<<2 |
SM<<3``, channels in netlist order) — same checks, same messages, no
per-channel tuple unpacking.
"""

from __future__ import annotations

#: bit positions of one packed channel byte (see repro.verif.encoding).
VP_BIT, SP_BIT, VM_BIT, SM_BIT = 1, 2, 4, 8


def check_invariant(signals):
    """``signals``: channel name -> (vp, sp, vm, sm).  Returns a list of
    violation strings (empty = OK)."""
    problems = []
    for name, (vp, sp, vm, sm) in signals.items():
        if vm and sp:
            problems.append(f"{name}: V- and S+ both asserted")
        if vp and vm and sm:
            problems.append(f"{name}: cancellation with S- asserted")
    return problems


def check_retry(prev, cur, exempt=()):
    """Persistence between consecutive cycles.

    ``prev``/``cur``: channel name -> (vp, sp, vm, sm).  ``exempt`` lists
    channels allowed to withdraw stalled tokens (shared-module outputs,
    Section 4.2).
    """
    problems = []
    for name, (pvp, psp, pvm, psm) in prev.items():
        vp, sp, vm, sm = cur[name]
        if name not in exempt and pvp and psp and not pvm and not vp:
            problems.append(f"{name}: stalled token withdrawn (Retry+)")
        if pvm and psm and not pvp and not vm:
            problems.append(f"{name}: stalled anti-token withdrawn (Retry-)")
    return problems


def check_invariant_packed(packed, channel_names):
    """:func:`check_invariant` over one packed-bytes signal vector
    (``channel_names`` gives the byte order); returns the same messages."""
    problems = []
    for i, b in enumerate(packed):
        if b & 0b0110 == 0b0110:                  # vm and sp
            problems.append(f"{channel_names[i]}: V- and S+ both asserted")
        if b & 0b1101 == 0b1101:                  # vp and vm and sm
            problems.append(f"{channel_names[i]}: cancellation with S- asserted")
    return problems


def check_retry_packed(prev, cur, channel_names, exempt_indices=frozenset()):
    """:func:`check_retry` over packed-bytes signal vectors.

    ``exempt_indices`` holds channel *positions* (into ``channel_names``)
    exempt from Retry+; returns the same messages as the dict form.
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


#: node kinds whose outputs follow their inputs combinationally (a valid
#: withdrawn upstream propagates through them within the same cycle).
#: The chaos splices' joins are function blocks, so a legally-withdrawn
#: offer propagates through them too (``chaos_bubble``, the splice's empty
#: buffer, registers tokens and is deliberately absent).
_COMBINATIONAL_KINDS = {"func", "fork", "eemux", "shared",
                        "chaos_stall", "chaos_corrupt"}


def retry_exempt_channels(netlist):
    """Channels exempt from Retry+.

    Section 4.2: "the output channels of the shared modules are not
    required to be persistent.  However, persistence is maintained at the
    inputs of the shared module and at the outputs of all EBs after the
    shared module."  Non-persistence therefore propagates through any
    *combinational* node (function block, fork, mux) fed by a shared
    output, and stops at the next elastic buffer.
    """
    exempt = set()
    changed = True
    while changed:
        changed = False
        for name, channel in netlist.channels.items():
            if name in exempt:
                continue
            producer = netlist.nodes[channel.producer[0]]
            if producer.kind == "shared":
                exempt.add(name)
                changed = True
            elif producer.kind in _COMBINATIONAL_KINDS:
                feeds = [
                    producer.channel(port).name
                    for port in producer.in_ports
                    if port in producer._channels
                ]
                if any(feed in exempt for feed in feeds):
                    exempt.add(name)
                    changed = True
    return exempt


def shared_output_channels(netlist):
    """Back-compat alias for :func:`retry_exempt_channels`."""
    return retry_exempt_channels(netlist)
