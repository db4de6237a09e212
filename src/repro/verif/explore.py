"""Explicit-state exploration of an elastic netlist.

Plays the role NuSMV plays in the paper's Section 4.2: the design's
controllers are composed with *nondeterministic* environments
(:class:`~repro.elastic.environment.NondetSource` /
:class:`~repro.elastic.environment.NondetSink`,
:class:`~repro.core.scheduler.NondetScheduler`) and every reachable state
is enumerated.  Along the way each transition is checked against the SELF
protocol properties; the resulting state graph feeds deadlock and
starvation (leads-to) analysis.

A state is ``(netlist snapshot, previous channel signals)`` — the signal
part makes the two-cycle Retry properties checkable per transition.  The
signal part is carried *packed*, one byte per channel in netlist channel
order (see :mod:`repro.verif.encoding`), exactly as
:meth:`~repro.sim.engine.Simulator.expand` returns it per choice vector;
decode a state's signals with :meth:`ExplorationResult.signals_of` when a friendly
view is needed.  A :class:`Transition` stores no events: its channels'
outcomes are those of its target state's signals
(:data:`repro.verif.encoding.OUTCOME`), since every transition into a
state saw the signals that state records.  Nor does it own its choices:
``Transition.choices`` is the read-only
:class:`~repro.sim.engine.ChoiceMap` that
:meth:`~repro.sim.engine.Simulator.expand` returned, one object per
choice vector shared by every transition taken with that vector
(mutating it raises ``TypeError``; it compares, prints and JSON-encodes
as the plain dict).

Exploration engines
-------------------

Classic breadth-first search that expands each state with one
:meth:`~repro.sim.engine.Simulator.expand`: every choice vector valid in
the state is stepped from it, in ``itertools.product`` order over the
choosers whose choice space exceeds 1.  On the compiled ``codegen``
engine that is one call of the generated expansion entry per state
(restore, choices, cycle, packed signals and successor snapshot per
vector, in one frame); on ``worklist`` it is one interpreted fix-point
per ``(state, choice-vector)`` transition.  ``lanes=N`` with ``N > 1`` is
another way to ask for ``engine="codegen"``
(:func:`~repro.sim.engine.lanes_engine`); the engines are bit-identical,
so the explored graph does not depend on the choice.

Per state the loop computes once which bits the Retry rules oblige its
successors to keep (:func:`~repro.verif.properties.held_bits`); per
transition it tests the Invariant (one ``bytes.translate``) and those
bits, keys the successor, and appends a record built without a copy.
The dedup index is keyed by the canonical compact byte encoding of
:mod:`repro.verif.encoding` (hash-consed by the index dict), and the
returned :class:`ExplorationResult` carries a prebuilt adjacency
index (:meth:`ExplorationResult.successors` /
:meth:`ExplorationResult.predecessors`) that the deadlock and leads-to
analyses traverse instead of re-scanning the flat transition list.

Checkpoint / resume
-------------------

Multi-minute explorations survive crashes and Ctrl-C through
``StateExplorer(checkpoint=PATH)``.  Because states are expanded in
strict discovery-index order, the whole search position at any *state
boundary* (the instant before expanding state ``k``) is one integer:
every state with a smaller index is fully expanded, the frontier is
exactly ``range(k, n_states)``.  The checkpoint is therefore the explored
prefix — states, transitions, violations, the cap flag and ``k`` —
written atomically (temp file + ``os.replace``, SHA-256 checksum) every
``checkpoint_every`` expanded states, keyed by a content-address over the
netlist's structure, initial snapshot, ``max_states`` and
``check_protocol``, so a checkpoint of a *different* design (or a
truncated / bit-rotted file) is a loud
:class:`~repro.errors.CheckpointError`, never silently loaded; a checkpoint
of an older state format is not resumed, and the exploration starts
afresh.  Format ``explore-v4`` stores the transitions as three columns
(sources, targets and choice maps): the pickle holds no
:class:`Transition` and stores each shared choice map once, and a resume
rebuilds the records.  On
:class:`KeyboardInterrupt` the explorer rolls back to the last boundary,
flushes it, and re-raises; a resumed run replays the identical BFS from
``k`` — same state indices, transition list, violations and verdicts as
an uninterrupted run (the dedup index is rebuilt from the stored states
by re-encoding, and a resume of a *finished* checkpoint returns the
stored result without expanding anything).  Only a
:class:`~repro.runtime.control.JobControl` stops an exploration early:
its cancellation or deadline stops the search at a boundary, flushes it
and marks the result ``stopped`` — `repro verify --timeout --retries`
chains such slices into an exploration that makes progress per slice.
"""

from __future__ import annotations

import marshal
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.errors import CheckpointError, VerificationError
from repro.runtime.checkpoint import content_key, load_checkpoint, save_checkpoint
from repro.runtime.faults import fault_point
from repro.sim.engine import Simulator, lanes_engine
from repro.verif.encoding import _MARSHAL_VERSION, StateCodec, unpack_signals
from repro.verif.properties import (
    INVARIANT_OK,
    held_bits,
    protocol_problems,
    retry_exempt_channels,
    retry_mask,
)

#: checkpoint kind and key tag; it changes with the stored state shape
#: (v2: flat snapshots without node names; v3: transitions without
#: events; v4: transitions as three columns).  A checkpoint of an older
#: format (kind ``"explore"``, ``"explore-v2"`` or ``"explore-v3"``)
#: cannot resume: exploration starts fresh.
_CHECKPOINT_FORMAT = "explore-v4"
_STALE_FORMATS = ("explore", "explore-v2", "explore-v3")


class Transition(NamedTuple):
    """One explored transition (for counterexample reporting).  Its
    channel outcomes are read from the target state's packed signals;
    ``choices`` is the expansion's shared, read-only
    :class:`~repro.sim.engine.ChoiceMap`."""

    source: int
    target: int
    choices: dict


@dataclass
class ExplorationResult:
    """The reachable state graph plus property verdicts.

    States are indexed in breadth-first discovery order (index 0 is the
    initial state), so the first path found to any state is shortest.
    Each state is ``(snapshot, packed_signals)`` where ``packed_signals``
    is the one-byte-per-channel encoding of the cycle that produced it
    (``None`` for the initial state); :meth:`signals_of` decodes it.
    """

    states: list = field(default_factory=list)        # index -> state
    transitions: list = field(default_factory=list)   # Transition records
    violations: list = field(default_factory=list)    # protocol problems
    complete: bool = True                              # hit no state cap
    channel_names: list = field(default_factory=list)  # packed-signal order
    #: ``None`` when the search ran to the end of the frontier; a reason
    #: string when its ``control`` stopped it early.  The partial result
    #: is still consistent and, with a checkpoint, resumable.
    stopped: object = None

    # lazily built adjacency index (invalidated when the graph grows)
    _succ: list = field(default=None, init=False, repr=False, compare=False)
    _pred: list = field(default=None, init=False, repr=False, compare=False)
    _indexed: int = field(default=-1, init=False, repr=False, compare=False)

    @property
    def n_states(self):
        return len(self.states)

    def _ensure_adjacency(self):
        if (self._succ is not None and self._indexed == len(self.transitions)
                and len(self._succ) == len(self.states)):
            return
        succ = [[] for _ in self.states]
        pred = [[] for _ in self.states]
        for t in self.transitions:
            succ[t.source].append(t)
            pred[t.target].append(t)
        self._succ = succ
        self._pred = pred
        self._indexed = len(self.transitions)

    def successors(self, index):
        """Outgoing :class:`Transition` records of one state — O(out-degree)
        via the prebuilt adjacency index (the old implementation scanned
        every transition).  Returns a fresh list; mutating it does not
        touch the index."""
        self._ensure_adjacency()
        return list(self._succ[index])

    def predecessors(self, index):
        """Incoming :class:`Transition` records of one state (counterexample
        reconstruction walks these back to the initial state).  Returns a
        fresh list; mutating it does not touch the index."""
        self._ensure_adjacency()
        return list(self._pred[index])

    def adjacency(self):
        """``(successors, predecessors)``: per state index, the list of its
        outgoing and of its incoming :class:`Transition` records.  This is
        the index itself, not a copy, for the analyses that walk every
        state (deadlock, leads-to); treat it as read-only."""
        self._ensure_adjacency()
        return self._succ, self._pred

    def signals_of(self, index):
        """Friendly ``{channel: (vp, sp, vm, sm)}`` view of one state's
        packed signals (``None`` for the initial state)."""
        packed = self.states[index][1]
        if packed is None:
            return None
        return unpack_signals(packed, self.channel_names)

    def channel_index(self, name):
        """Position of ``name`` in the packed-signal byte vectors."""
        return self.channel_names.index(name)

    def shortest_path_to(self, index):
        """State indices of a shortest path from the initial state to
        ``index``.  Because states are discovered breadth-first, walking
        any predecessor with a smaller index terminates and is shortest."""
        path = [index]
        while path[-1] != 0:
            best = min(t.source for t in self.predecessors(path[-1]))
            path.append(best)
        path.reverse()
        return path

    def ok(self):
        return self.complete and self.stopped is None and not self.violations


class StateExplorer:
    """Breadth-first reachability over environment/scheduler choices.

    ``engine`` selects the fix-point engine (the process default,
    :func:`~repro.sim.engine.get_default_engine`, which is codegen unless
    set otherwise): codegen expands each state with one compiled call,
    worklist with one interpreted fix-point per transition.  ``lanes=N``
    (``N > 1``) selects ``codegen``; ``engine`` must then be left at
    ``None``.
    """

    def __init__(self, netlist, max_states=20000, check_protocol=True,
                 engine=None, lanes=1, checkpoint=None, checkpoint_every=1000,
                 control=None):
        self.netlist = netlist
        self.max_states = max_states
        self.check_protocol = check_protocol
        self.checkpoint = checkpoint
        self.checkpoint_every = max(1, int(checkpoint_every))
        #: optional :class:`~repro.runtime.control.JobControl`: progress
        #: is published and cancellation / deadline stops are honoured at
        #: every state boundary (flush first, then stop — the partial
        #: result is consistent and, with a checkpoint, resumable).
        self.control = control
        engine = lanes_engine(int(lanes), engine)
        # Expansion never consults a monitor (exploration jumps between
        # branches): transitions are checked against the state-embedded
        # previous signals instead.
        self.sim = Simulator(netlist, check_protocol=False, engine=engine)
        self.retry_exempt = retry_exempt_channels(netlist)
        self._codec = StateCodec(netlist)
        self._channel_names = self._codec.channel_names
        self._exempt_indices = frozenset(
            i for i, name in enumerate(self._channel_names)
            if name in self.retry_exempt
        )
        self._retry_mask = retry_mask(len(self._channel_names),
                                      self._exempt_indices)

    def _key(self, snapshot, signals):
        """Compact dedup-index key of a state (tuple fallback when a
        snapshot value defeats the canonical byte encoding)."""
        key = self._codec.encode(snapshot, signals)
        if key is None:
            return (snapshot, signals)
        return key

    # -- checkpoint / resume ------------------------------------------------

    def _checkpoint_key(self, initial_snapshot):
        """Content address of this exploration: netlist structure, initial
        state, ``max_states`` and ``check_protocol`` — everything that
        determines the reachable graph.  ``lanes`` / ``engine`` are
        deliberately excluded: the engines are bit-identical, so their
        checkpoints interchange."""
        try:
            return content_key((
                _CHECKPOINT_FORMAT,
                self.netlist.name,
                tuple(self._channel_names),
                tuple((name, type(node).__name__)
                      for name, node in sorted(self.netlist.nodes.items())),
                initial_snapshot,
                self.max_states,
                self.check_protocol,
            ))
        except ValueError as exc:
            raise CheckpointError(
                f"design state is not serializable for checkpointing: {exc}"
            ) from exc

    def _try_resume(self, result, index):
        """Restore the explored prefix from ``checkpoint`` (when the file
        exists and matches this exploration's content key); returns the
        discovery index to resume expansion from (0 on a fresh start).
        The dedup index is rebuilt by re-encoding every stored state, so a
        resumed run dedups exactly as the uninterrupted run did."""
        if self.checkpoint is None:
            return 0
        body = load_checkpoint(self.checkpoint, _CHECKPOINT_FORMAT,
                               self._ckpt_key, stale_kinds=_STALE_FORMATS)
        if body is None:
            return 0
        result.states[:] = body["states"]
        new = tuple.__new__
        result.transitions[:] = [
            new(Transition, record) for record in zip(
                body["sources"], body["targets"], body["choices"])]
        result.violations[:] = body["violations"]
        result.complete = body["complete"]
        index.clear()
        for i, (snapshot, signals) in enumerate(result.states):
            index[self._key(snapshot, signals)] = i
        return body["next_index"]

    def _boundary(self, result, current):
        """State-boundary hook, called the instant before expanding state
        ``current``: record the rollback point, fire the fault-injection
        point, write a periodic checkpoint, publish progress, and check
        the job control.  Returns the control's stop reason when the
        search should stop (the boundary is already flushed), else
        ``None``."""
        self._boundary_state = (current, len(result.states),
                                len(result.transitions),
                                len(result.violations), result.complete)
        fault_point("explore_state", current)
        if (self.checkpoint is not None
                and current - self._last_saved >= self.checkpoint_every):
            self._flush_boundary(result)
            self._last_saved = current
        if self.control is None:
            return None
        self.control.progress("explore_state", state=current,
                              n_states=len(result.states))
        reason = self.control.stop_reason()
        if reason is not None:
            # Flush before reporting the stop: the caller may unwind, but
            # the boundary is durable and resumable.
            self._flush_boundary(result)
        return reason

    def _flush_boundary(self, result):
        """Roll ``result`` back to the last recorded state boundary (a
        no-op when already there) and, when checkpointing, write the
        boundary out atomically."""
        if self._boundary_state is None:
            return
        current, n_states, n_transitions, n_violations, complete = \
            self._boundary_state
        del result.states[n_states:]
        del result.transitions[n_transitions:]
        del result.violations[n_violations:]
        result.complete = complete
        if self.checkpoint is None:
            return
        # Transitions as columns: the choice maps are shared objects, so
        # the pickle stores each once and refers back to it.
        transitions = result.transitions
        save_checkpoint(self.checkpoint, _CHECKPOINT_FORMAT, self._ckpt_key, {
            "states": result.states,
            "sources": [t.source for t in transitions],
            "targets": [t.target for t in transitions],
            "choices": [t.choices for t in transitions],
            "violations": result.violations,
            "complete": result.complete,
            "next_index": current,
        }, codec="pickle")

    # -- the search ---------------------------------------------------------

    def explore(self):
        """Run BFS; returns an :class:`ExplorationResult`.

        The frontier is expanded strictly first-in-first-out
        (:class:`collections.deque`), so state indices are in
        breadth-first discovery order and counterexamples reconstructed
        through :meth:`ExplorationResult.predecessors` are shortest-path.
        With ``checkpoint`` set, resumes from a matching checkpoint file
        and flushes the last consistent boundary on KeyboardInterrupt
        before re-raising; stops at a boundary once ``control`` is
        cancelled or its deadline passes, and marks the result ``stopped``.
        """
        self.netlist.reset()
        initial_snapshot = self.netlist.snapshot()
        initial = (initial_snapshot, None)
        index = {self._key(initial_snapshot, None): 0}
        result = ExplorationResult(states=[initial],
                                   channel_names=list(self._channel_names))
        self._ckpt_key = (self._checkpoint_key(initial_snapshot)
                          if self.checkpoint is not None else None)
        start = self._try_resume(result, index)
        self._last_saved = start
        self._boundary_state = None
        try:
            self._explore(result, index, start)
        except KeyboardInterrupt:
            self._flush_boundary(result)
            raise
        if self.checkpoint is not None and result.stopped is None:
            # Final "done" checkpoint: next_index == n_states, so resuming
            # a finished job returns the stored result without expanding.
            self._boundary_state = (len(result.states), len(result.states),
                                    len(result.transitions),
                                    len(result.violations), result.complete)
            self._flush_boundary(result)
        return result

    def _explore(self, result, index, start=0):
        """The BFS loop: one :meth:`Simulator.expand` per state, and the
        Retry obligations its signals leave (:func:`held_bits`) once per
        state; then per transition the protocol screen (wording the
        problems only when it fires), the state key, dedup (cap-aware)
        and the transition record, which keeps the expansion's shared
        choice map."""
        expand = self.sim.expand
        check = self.check_protocol
        mask = self._retry_mask
        ok_bytes = INVARIANT_OK
        from_bytes = int.from_bytes
        dumps = marshal.dumps
        new = tuple.__new__
        cap = self.max_states
        states = result.states
        record = result.transitions.append
        lookup = index.get
        frontier = deque(range(start, len(states)))
        while frontier:
            current = frontier[0]
            result.stopped = self._boundary(result, current)
            if result.stopped is not None:
                return
            frontier.popleft()
            snapshot, prev_signals = states[current]
            held = held_bits(prev_signals, mask) if check else 0
            for choices, signals, successor in expand(snapshot):
                if check and (signals.translate(None, ok_bytes) or held
                              and held & ~from_bytes(signals, "little")):
                    result.violations += [
                        f"state {current} choices {choices}: {problem}"
                        for problem in protocol_problems(
                            prev_signals, signals, self._channel_names,
                            self._exempt_indices)]
                # the key of StateCodec.encode, inlined (see _key)
                try:
                    key = dumps((signals, successor), _MARSHAL_VERSION)
                except ValueError:
                    key = (successor, signals)
                target = lookup(key)
                if target is None:
                    if len(states) >= cap:
                        # Over the cap: the successor stays unindexed and
                        # the transition is dropped (there is no target id
                        # to record), but expansion continues so
                        # transitions into indexed states are still kept.
                        result.complete = False
                        continue
                    target = len(states)
                    index[key] = target
                    states.append((successor, signals))
                    frontier.append(target)
                record(new(Transition, (current, target, choices)))


def explore_or_raise(netlist, max_states=20000, engine=None, lanes=1):
    """Convenience wrapper: explore and raise on any protocol violation."""
    result = StateExplorer(netlist, max_states=max_states, engine=engine,
                           lanes=lanes).explore()
    if result.violations:
        raise VerificationError(
            f"{len(result.violations)} protocol violation(s); first: "
            f"{result.violations[0]}"
        )
    if not result.complete:
        raise VerificationError(
            f"state space exceeded cap ({max_states}); increase max_states"
        )
    return result
