"""Deadlock detection over an explored state graph.

A state is *deadlocked* when no sequence of environment / scheduler choices
starting from it can ever produce another token or anti-token movement.
The paper verifies "the absence of deadlocks ... for any scheduler that
complies with the leads-to property"; we verify it by direct reachability:
mark every state from which a productive transition is reachable, and
report the rest.  A transition is productive when its target state's
packed signals show a movement (:func:`repro.verif.encoding.productive`:
the signals a state records are those of every transition into it).  The
backward traversal runs over the
:class:`~repro.verif.explore.ExplorationResult`'s prebuilt predecessor
index instead of materializing its own reverse adjacency from the flat
transition list.
"""

from __future__ import annotations

from repro.verif.encoding import productive


def find_deadlocks(result):
    """Deadlocked state indices of an :class:`ExplorationResult`; ``[]``
    for an incomplete one.  A capped exploration leaves frontier states
    whose successors were never expanded, so from its graph no state can
    be shown deadlocked: it has no deadlock verdict either way, which
    callers read from ``result.complete``."""
    if not result.complete:
        return []
    # Seed: sources of productive transitions (the movement happens when
    # leaving the state, so the *source* state is alive).
    moved = [signals is not None and productive(signals)
             for _snapshot, signals in result.states]
    alive = set()
    stack = []
    for t in result.transitions:
        if moved[t.target] and t.source not in alive:
            alive.add(t.source)
            stack.append(t.source)
    # Everything that can reach an alive state is alive too.
    predecessors = result.adjacency()[1]
    while stack:
        node = stack.pop()
        for t in predecessors[node]:
            if t.source not in alive:
                alive.add(t.source)
                stack.append(t.source)
    return [i for i in range(result.n_states) if i not in alive]


def assert_deadlock_free(result):
    """Raise AssertionError with a state dump if any deadlock exists, or
    if the exploration is incomplete (no verdict)."""
    if not result.complete:
        raise AssertionError("incomplete exploration: no deadlock verdict")
    dead = find_deadlocks(result)
    if dead:
        raise AssertionError(
            f"{len(dead)} deadlocked state(s); first index {dead[0]}"
        )
    return True
