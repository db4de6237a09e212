"""Unit tests for the scheduler zoo (Section 4.1.1)."""

import itertools

import pytest

from repro.core.scheduler import (
    LastGrantScheduler,
    NondetScheduler,
    OracleScheduler,
    PrimaryScheduler,
    RandomScheduler,
    RepairScheduler,
    RoundRobinScheduler,
    Scheduler,
    SchedulerFeedback,
    StaticScheduler,
    ToggleScheduler,
    TwoBitScheduler,
)
from repro.errors import SchedulerError


def fb(predicted=0, granted=None, killed=(), stalled=False, valid=()):
    return SchedulerFeedback(
        predicted=predicted, granted=granted, killed=tuple(killed),
        stalled=stalled, valid_inputs=tuple(valid),
    )


class TestBase:
    def test_min_channels(self):
        with pytest.raises(SchedulerError):
            StaticScheduler(1)

    def test_out_of_range_favourite(self):
        with pytest.raises(SchedulerError):
            StaticScheduler(2, favourite=5)


def _old_evidence(feedback):
    """The evidence formula before it was simplified: stalled, or the
    predicted channel idle while a channel other than it is valid."""
    if feedback.stalled:
        return True
    others_valid = any(ch != feedback.predicted
                       for ch in feedback.valid_inputs)
    return feedback.predicted not in feedback.valid_inputs and others_valid


class TestMispredictEvidence:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_every_feedback(self, k):
        channels = range(k)
        subsets = [tuple(ch for ch in channels if mask >> ch & 1)
                   for mask in range(1 << k)]
        cases = 0
        for predicted, granted, killed, stalled, valid in itertools.product(
                channels, (None, *channels), subsets, (False, True), subsets):
            feedback = fb(predicted, granted, killed, stalled, valid)
            assert Scheduler._mispredict_evidence(feedback) is \
                _old_evidence(feedback), feedback
            cases += 1
        assert cases == k * (k + 1) * 2 * (1 << k) ** 2


class TestStatic:
    def test_sticks_to_favourite(self):
        s = StaticScheduler(2, favourite=1)
        s.reset()
        assert s.prediction() == 1
        s.observe(fb(predicted=1, granted=1))
        assert s.prediction() == 1

    def test_repair_flips_then_returns(self):
        s = StaticScheduler(2, favourite=0)
        s.reset()
        s.observe(fb(predicted=0, stalled=True))
        assert s.prediction() == 1
        s.observe(fb(predicted=1, granted=1))
        assert s.prediction() == 0

    def test_no_repair_never_flips(self):
        s = StaticScheduler(2, favourite=0, repair=False)
        s.reset()
        s.observe(fb(predicted=0, stalled=True))
        assert s.prediction() == 0


class TestToggle:
    def test_alternates_unconditionally(self):
        s = ToggleScheduler(2)
        s.reset()
        seq = []
        for _ in range(6):
            seq.append(s.prediction())
            s.observe(fb())
        assert seq == [0, 1, 0, 1, 0, 1]

    def test_table1_sched_row(self):
        """The toggle scheduler is exactly the paper's Sched = 0 1 0 1 0 1 0."""
        s = ToggleScheduler(2, start=0)
        s.reset()
        row = []
        for _ in range(7):
            row.append(s.prediction())
            s.observe(fb())
        assert row == [0, 1, 0, 1, 0, 1, 0]


class TestRoundRobin:
    def test_advances_on_grant(self):
        s = RoundRobinScheduler(3)
        s.reset()
        assert s.prediction() == 0
        s.observe(fb(granted=0))
        assert s.prediction() == 1
        s.observe(fb())               # nothing happened: hold
        assert s.prediction() == 1

    def test_advances_on_kill_of_predicted(self):
        s = RoundRobinScheduler(2)
        s.reset()
        s.observe(fb(predicted=0, killed=(0,)))
        assert s.prediction() == 1


class TestRepair:
    def test_flips_only_on_stall(self):
        s = RepairScheduler(2)
        s.reset()
        s.observe(fb(granted=0))
        assert s.prediction() == 0
        s.observe(fb(stalled=True))
        assert s.prediction() == 1


class TestPrimary:
    def test_replay_once_then_return(self):
        s = PrimaryScheduler(2, primary=0)
        s.reset()
        s.observe(fb(predicted=0, stalled=True))
        assert s.prediction() == 1          # replay
        s.observe(fb(predicted=1, granted=1))
        assert s.prediction() == 0          # back to primary

    def test_replay_return_on_kill(self):
        s = PrimaryScheduler(2, primary=0)
        s.reset()
        s.observe(fb(predicted=0, stalled=True))
        s.observe(fb(predicted=1, killed=(1,)))
        assert s.prediction() == 0


class TestLastGrant:
    def test_follows_grants(self):
        s = LastGrantScheduler(2)
        s.reset()
        s.observe(fb(granted=1))
        assert s.prediction() == 1
        s.observe(fb(granted=0))
        assert s.prediction() == 0


class TestTwoBit:
    def test_requires_two_channels(self):
        with pytest.raises(SchedulerError):
            TwoBitScheduler(3)

    def test_saturation_behaviour(self):
        s = TwoBitScheduler()
        s.reset()
        for _ in range(3):
            s.observe(fb(granted=1))
        assert s.prediction() == 1
        # One contrary outcome must not flip a saturated counter.
        s.observe(fb(granted=0))
        assert s.prediction() == 1
        s.observe(fb(granted=0))
        assert s.prediction() == 0

    def test_stall_repair_overrides(self):
        s = TwoBitScheduler()
        s.reset()
        assert s.prediction() == 0
        s.observe(fb(predicted=0, stalled=True))
        assert s.prediction() == 1


class TestOracle:
    def test_perfect_sequence(self):
        seq = [0, 1, 1, 0]
        s = OracleScheduler(lambda k: seq[k % len(seq)])
        s.reset()
        assert s.prediction() == 0
        s.observe(fb(granted=0))
        assert s.prediction() == 1
        s.observe(fb())                # no grant: index holds
        assert s.prediction() == 1


class TestRandomAndNondet:
    def test_random_is_reproducible(self):
        a = RandomScheduler(2, seed=4)
        b = RandomScheduler(2, seed=4)
        a.reset()
        b.reset()
        seq_a, seq_b = [], []
        for _ in range(10):
            seq_a.append(a.prediction())
            seq_b.append(b.prediction())
            a.observe(fb())
            b.observe(fb())
        assert seq_a == seq_b

    def test_nondet_choice_space(self):
        s = NondetScheduler(2)
        s.reset()
        assert s.choice_space() == 2
        s.set_choice(1)
        assert s.prediction() == 1

    def test_nondet_rejects_bad_choice(self):
        s = NondetScheduler(2)
        with pytest.raises(SchedulerError):
            s.set_choice(5)


class TestSnapshots:
    @pytest.mark.parametrize("make", [
        lambda: StaticScheduler(2),
        lambda: ToggleScheduler(2),
        lambda: RoundRobinScheduler(2),
        lambda: RepairScheduler(2),
        lambda: PrimaryScheduler(2),
        lambda: LastGrantScheduler(2),
        lambda: TwoBitScheduler(),
        lambda: OracleScheduler(lambda k: 0),
    ])
    def test_roundtrip(self, make):
        s = make()
        s.reset()
        snap = s.snapshot()
        s.observe(fb(predicted=s.prediction(), stalled=True))
        s.restore(snap)
        assert s.snapshot() == snap
