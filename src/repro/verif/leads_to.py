"""Scheduler leads-to (starvation) analysis — equation (1) of the paper:

    G (V+_{in_i}  =>  F (V-_{out_i} or (sel = i and token at out_i)))

"every arrived token must be eventually served by the shared unit or
killed".  *Served* is the scheduler's obligation: the prediction selects
channel ``i`` while its token is offered at the shared output (``V+`` on
``out_i``) — whether the downstream multiplexor then stalls it is outside
the scheduler's contract.  *Killed* shows as a cancellation (or backward
anti-token delivery) on the input or output channel.

A transition's outcomes are those of its target state's packed signals
(:data:`repro.verif.encoding.OUTCOME`): every transition into a state saw
the signals that state records.  *Killed* is any outcome on the input
channel; on the output channel both *served* and a forward transfer or
cancellation need ``V+``, so the output test is the target's VP bit.

Over a finite explored state graph the property fails exactly when there is
a reachable *lasso*: a cycle of states in which channel ``i`` keeps
offering a token while no transition in the cycle serves or kills it.
:func:`check_leads_to` finds such lassos.  Compliant schedulers (toggle,
round-robin, repair, primary...) pass for any environment behaviour; a
deliberately broken scheduler (``StaticScheduler(repair=False)``) fails,
which the verification tests demonstrate.
"""

from __future__ import annotations

from repro.netlist.graphalg import cyclic_sccs
from repro.verif.encoding import OUTCOME


def _token_waiting(packed_signals, channel_index):
    if packed_signals is None:
        return False
    return bool(packed_signals[channel_index] & 1)       # VP bit


def _released(signals, in_index, out_index):
    """Did the transition into a state with packed ``signals`` serve or
    kill the token waiting on the input channel?  Any outcome on the input
    releases it; on the output, served (the scheduler granted the channel:
    its token shows at the shared output), forwarded or cancelled all
    show as ``V+``."""
    if OUTCOME[signals[in_index]]:
        return True
    return out_index is not None and bool(signals[out_index] & 1)


def check_leads_to(result, in_channel, out_channel=None):
    """Check leads-to for tokens waiting on ``in_channel``.

    ``result`` is an :class:`~repro.verif.explore.ExplorationResult`;
    ``out_channel`` is the shared module's corresponding output.  Returns
    ``(ok, lasso)`` where ``lasso`` lists, in ascending order, the state
    indices of a starving strongly connected component when ``ok`` is
    False: of all such components (more than one state, or one state with
    a starving self-loop), the one holding the lowest state index.
    """
    graph = {}
    states = result.states
    in_index = result.channel_index(in_channel)
    out_index = (result.channel_index(out_channel)
                 if out_channel is not None else None)
    successors = result.adjacency()[0]
    for source in range(result.n_states):
        # Starvation requires the token to be waiting across the whole
        # edge; states where it is not waiting are skipped wholesale, and
        # their out-edges come from the result's prebuilt adjacency index
        # rather than a scan of the flat transition list.
        src_signals = states[source][1]
        if src_signals is not None and not _token_waiting(src_signals, in_index):
            continue
        for t in successors[source]:
            signals = states[t.target][1]
            if not _token_waiting(signals, in_index):
                continue
            if _released(signals, in_index, out_index):
                continue
            graph.setdefault(t.source, set()).add(t.target)
            graph.setdefault(t.target, set())
    starving = cyclic_sccs(sorted(graph), graph)
    if not starving:
        return True, []
    return False, sorted(min(starving, key=min))
