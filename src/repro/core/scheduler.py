"""Schedulers for shared elastic modules (Section 4.1.1).

The scheduler predicts, every clock cycle, which input channel may use the
shared resource — this *is* the speculation.  For correctness a scheduler
must satisfy the paper's *leads-to* constraint (equation 1): every token
that reaches the shared module is eventually served or killed.  In practice
that means every scheduler must detect mispredictions (its predicted
channel's output token being stalled by the early-evaluation mux while the
mux waits for the other channel) and correct them.

The prediction is a *registered* function of past observations only — the
scheduler never sits on the combinational path of the current cycle beyond
the final channel mux, which is the property Section 5.1 exploits to pull
``Ferr`` off the critical path.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from repro.elastic.node import Stateful
from repro.errors import SchedulerError


class SchedulerFeedback(NamedTuple):
    """What a scheduler may observe at the end of a cycle.

    (A named tuple rather than a frozen dataclass: one is constructed per
    shared module per clock tick, which makes it a model-checking hot
    path — same immutable named-field API either way.)

    Attributes
    ----------
    predicted:
        The channel the scheduler predicted this cycle.
    granted:
        Channel whose token actually went through the shared unit and
        transferred forward this cycle, or ``None``.
    killed:
        Tuple of channels whose pending token was cancelled by an anti-token
        this cycle (these were *not* selected by the consumer).
    stalled:
        True when the predicted channel's output token was offered and
        stalled (``V+ & S+`` downstream) — the paper's misprediction signal
        ("the stop bit ... is set by the multiplexor, and this way the
        scheduler realizes a misprediction has been made").
    valid_inputs:
        Tuple of channels that had a token waiting at the shared module's
        inputs this cycle.
    """

    predicted: int
    granted: object
    killed: tuple
    stalled: bool
    valid_inputs: tuple


class Scheduler(Stateful):
    """Base class.  Subclasses declare their registered state in
    :attr:`state_slots` (the owning
    :class:`~repro.core.shared.SharedModule` carries it as its own, so keep
    it flat ints / bools / ``None``), and implement :meth:`prediction` (a
    function of registered state only) and :meth:`observe` (the state
    update)."""

    def __init__(self, n_channels=2):
        if n_channels < 2:
            raise SchedulerError("a shared module needs at least two channels")
        self.n_channels = n_channels

    def prediction(self):
        """Channel predicted for the *current* cycle."""
        raise NotImplementedError

    def observe(self, feedback):
        """Update registered state at the clock edge."""

    # Nondeterminism hooks (only NondetScheduler uses them).
    def choice_space(self):
        return 1

    def set_choice(self, choice):
        pass

    def _check(self, channel):
        if not 0 <= channel < self.n_channels:
            raise SchedulerError(
                f"{type(self).__name__} predicted channel {channel} "
                f"out of range 0..{self.n_channels - 1}"
            )
        return channel

    @staticmethod
    def _mispredict_evidence(feedback):
        """Evidence that the current prediction is wasting the shared unit.

        Two cases (Section 4.1.1): the predicted channel's output token was
        stalled by the multiplexor (the paper's stop-bit signal), or the
        predicted channel has no valid token while another channel does —
        "a channel that is not valid ... cannot use the shared unit even if
        selected".  Repairing on both is what makes the repair-style
        schedulers satisfy the leads-to constraint for *every* environment
        behaviour (the model-checking tests exercise exactly this).  When
        the predicted channel is idle, another channel is valid exactly
        when any channel is.
        """
        if feedback.stalled:
            return True
        valid = feedback.valid_inputs
        return bool(valid) and feedback.predicted not in valid


class StaticScheduler(Scheduler):
    """Always predicts the same channel... except that, to satisfy leads-to,
    it falls back to the stalled evidence: on a detected misprediction it
    serves the other side once, then returns to its favourite.

    With ``repair=False`` it is a *pure* static predictor, which violates
    leads-to (useful to demonstrate the deadlock the paper's constraint
    rules out — see the verification tests).
    """

    state_slots = {"_current": lambda s: s.favourite}

    def __init__(self, n_channels=2, favourite=0, repair=True):
        super().__init__(n_channels)
        self.favourite = self._check(favourite)
        self.repair = repair
        self.reset()

    def prediction(self):
        return self._current

    def observe(self, feedback):
        if not self.repair:
            return
        if self._mispredict_evidence(feedback):
            self._current = (self._current + 1) % self.n_channels
        else:
            self._current = self.favourite


class ToggleScheduler(Scheduler):
    """Alternates channels every cycle — the scheduler behind Table 1
    (``Sched = 0 1 0 1 0 1 0``).  Trivially satisfies leads-to because every
    channel is predicted infinitely often."""

    state_slots = {"_current": lambda s: s.start}

    def __init__(self, n_channels=2, start=0):
        super().__init__(n_channels)
        self.start = self._check(start)
        self.reset()

    def prediction(self):
        return self._current

    def observe(self, feedback):
        self._current = (self._current + 1) % self.n_channels


class RoundRobinScheduler(Scheduler):
    """Advances to the next channel only after a successful grant (or a kill
    of the predicted channel's waiting token)."""

    state_slots = {"_current": 0}

    def __init__(self, n_channels=2):
        super().__init__(n_channels)
        self.reset()

    def prediction(self):
        return self._current

    def observe(self, feedback):
        if feedback.granted is not None or feedback.stalled:
            self._current = (self._current + 1) % self.n_channels
        elif self._current in feedback.killed:
            self._current = (self._current + 1) % self.n_channels


class RepairScheduler(Scheduler):
    """Sticky predictor: keeps its last prediction and flips only on the
    paper's misprediction evidence (predicted token stalled at the mux)."""

    state_slots = {"_current": lambda s: s.start}

    def __init__(self, n_channels=2, start=0):
        super().__init__(n_channels)
        self.start = self._check(start)
        self.reset()

    def prediction(self):
        return self._current

    def observe(self, feedback):
        if self._mispredict_evidence(feedback):
            self._current = (self._current + 1) % self.n_channels


class PrimaryScheduler(Scheduler):
    """Predicts a *primary* channel (e.g. "the approximation is correct" /
    "no soft error") and deviates for exactly one service on misprediction
    evidence, then returns to the primary.

    This is the replay scheduler of the variable-latency unit (Section 5.1)
    and the SECDED design (Section 5.2): "If there were errors last cycle,
    the addition is replayed with corrected values, otherwise, a new
    operation is started."
    """

    state_slots = {"_current": lambda s: s.primary}

    def __init__(self, n_channels=2, primary=0):
        super().__init__(n_channels)
        self.primary = self._check(primary)
        self.reset()

    def prediction(self):
        return self._current

    def observe(self, feedback):
        if self._current != self.primary:
            # Replay mode: return to primary once the replay token was
            # granted or destroyed.
            if feedback.granted == self._current or self._current in feedback.killed:
                self._current = self.primary
            elif self._mispredict_evidence(feedback):
                self._current = (self._current + 1) % self.n_channels
        elif self._mispredict_evidence(feedback):
            self._current = (self._current + 1) % self.n_channels


class LastGrantScheduler(Scheduler):
    """Predicts the channel that was most recently granted (1-bit history
    branch prediction), with stall repair."""

    state_slots = {"_current": lambda s: s.start}

    def __init__(self, n_channels=2, start=0):
        super().__init__(n_channels)
        self.start = self._check(start)
        self.reset()

    def prediction(self):
        return self._current

    def observe(self, feedback):
        if feedback.granted is not None:
            self._current = feedback.granted
        elif self._mispredict_evidence(feedback):
            self._current = (self._current + 1) % self.n_channels


class TwoBitScheduler(Scheduler):
    """Classic two-bit saturating counter over a two-channel choice, with
    stall repair — "state-of-the-art branch prediction" in miniature."""

    #: 0,1 -> predict 0 ; 2,3 -> predict 1; a pending one-shot repair
    state_slots = {"_counter": 1, "_repair": None}

    def __init__(self, n_channels=2):
        if n_channels != 2:
            raise SchedulerError("TwoBitScheduler supports exactly 2 channels")
        super().__init__(n_channels)
        self.reset()

    def prediction(self):
        if self._repair is not None:
            return self._repair
        return 0 if self._counter < 2 else 1

    def observe(self, feedback):
        outcome = None
        if feedback.granted is not None:
            outcome = feedback.granted
        elif feedback.killed:
            # The killed channel was the wrong one; the other was selected.
            outcome = 1 - feedback.killed[0]
        if outcome == 1:
            self._counter = min(3, self._counter + 1)
        elif outcome == 0:
            self._counter = max(0, self._counter - 1)
        if self._mispredict_evidence(feedback):
            self._repair = 1 - feedback.predicted
        else:
            self._repair = None


class OracleScheduler(Scheduler):
    """Perfect prediction via a callback ``fn(grant_index) -> channel``
    giving the channel of the ``k``-th grant.  Upper-bounds every realizable
    scheduler (used for bounds in the benchmarks)."""

    state_slots = {"_grants": 0}

    def __init__(self, fn, n_channels=2):
        super().__init__(n_channels)
        self.fn = fn
        self.reset()

    def prediction(self):
        return self._check(self.fn(self._grants))

    def observe(self, feedback):
        if feedback.granted is not None:
            self._grants += 1


class RandomScheduler(Scheduler):
    """Seeded random prediction with stall repair (robustness testing)."""

    state_slots = {"_current": 0}
    reset_slots = {"_rng": lambda s: random.Random(s.seed)}

    def __init__(self, n_channels=2, seed=0):
        super().__init__(n_channels)
        self.seed = seed
        self.reset()

    def prediction(self):
        return self._current

    def observe(self, feedback):
        if self._mispredict_evidence(feedback):
            self._current = (self._current + 1) % self.n_channels
        else:
            self._current = self._rng.randrange(self.n_channels)


class NondetScheduler(Scheduler):
    """Fully nondeterministic scheduler for model checking: any channel may
    be predicted each cycle.  Combined with fairness assumptions this is the
    specification the paper verifies the leads-to refinement against."""

    state_slots = {"_current": 0}

    def __init__(self, n_channels=2):
        super().__init__(n_channels)
        self.reset()

    def choice_space(self):
        return self.n_channels

    def set_choice(self, choice):
        self._current = self._check(choice)

    def prediction(self):
        return self._current
