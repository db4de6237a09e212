"""Differential resilience tests for :mod:`repro.runtime`.

The acceptance bar for the fault-tolerance layer is the same one the
simulation engines meet: *recovery must be invisible in the results*.
Every test here drives a deterministic, seed-driven fault schedule
(:class:`~repro.runtime.faults.FaultPlan`) through a sweep or an
exploration and pins the recovered outcome — retried configurations,
respawned workers, resumed checkpoints — byte- or value-identical to an
unfaulted run.  Corrupt checkpoints must be detected (checksum / header /
key) and reported as a clean :class:`~repro.errors.CheckpointError`,
never silently loaded.

Single-process fault cases run everywhere; the multiprocessing cases
(worker crash / hang / kill-and-respawn under the supervisor) are gated
on ``usable_cpus() >= 2`` like the sharded benchmarks.
"""

import os

import pytest

from repro.errors import CheckpointError
from repro.perf.presets import fig6_point, fig6_spec
from repro.perf.sweep import SweepSpec, run_sweep
from repro.runtime.checkpoint import (
    atomic_write_text,
    content_key,
    load_checkpoint,
    save_checkpoint,
)
from repro.runtime.faults import (
    Fault,
    FaultPlan,
    InjectedFault,
    attempt_scope,
    corrupt_checkpoint,
    fault_point,
    install_plan,
    plan_scope,
)
from repro.runtime.control import JobControl
from repro.runtime.supervisor import Supervisor, usable_cpus
from repro.verif.explore import StateExplorer
from test_explore_diff import build_mc_pipeline

needs_multiprocessing = pytest.mark.skipif(
    usable_cpus() < 2,
    reason="supervised-worker fault cases need >= 2 usable CPUs",
)


def tiny_spec(**overrides):
    """A four-configuration sweep small enough to re-run many times."""
    kwargs = dict(fracs=(0.0, 1.0), windows=(2, 3), cycles=60)
    kwargs.update(overrides)
    return fig6_spec(**kwargs)


def explore_net():
    return build_mc_pipeline(["eb", "zbl"], can_kill=True)


def explorer_fingerprint(result):
    """Everything observable about an exploration, for identity checks."""
    return (
        result.states,
        [(t.source, t.target, t.choices) for t in result.transitions],
        result.violations,
        result.complete,
        result.channel_names,
        result.stopped,
    )


# ---------------------------------------------------------------------------
# checkpoint primitives


class TestCheckpointPrimitives:
    def test_atomic_write_failure_leaves_target_intact(self, tmp_path,
                                                       monkeypatch):
        """A crash between the temp-file write and the rename must leave
        the previous file byte-identical and no temp litter behind."""
        path = tmp_path / "out.txt"
        atomic_write_text(str(path), "original\n")

        def exploding_replace(src, dst):
            raise OSError("injected crash before rename")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError, match="injected crash"):
            atomic_write_text(str(path), "replacement\n")
        monkeypatch.undo()
        assert path.read_text() == "original\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    @pytest.mark.parametrize("codec,body", [
        ("json", {"rows": [{"index": 0, "theta": 0.5}]}),
        ("pickle", {"states": [({"a": 1}, b"\x03")], "next_index": 7}),
    ])
    def test_save_load_round_trip(self, tmp_path, codec, body):
        path = str(tmp_path / "ck")
        key = content_key(("job", 1))
        save_checkpoint(path, "kind", key, body, codec=codec)
        assert load_checkpoint(path, "kind", key) == body

    def test_missing_file_is_a_fresh_start(self, tmp_path):
        assert load_checkpoint(str(tmp_path / "absent"), "k", "key") is None

    @pytest.mark.parametrize("mode", ["flip", "truncate", "garbage"])
    def test_corruption_is_detected(self, tmp_path, mode):
        path = str(tmp_path / "ck")
        key = content_key("job")
        save_checkpoint(path, "kind", key, {"rows": list(range(50))})
        corrupt_checkpoint(path, mode=mode)
        with pytest.raises(CheckpointError):
            load_checkpoint(path, "kind", key)

    def test_kind_and_key_mismatches_refuse_to_load(self, tmp_path):
        path = str(tmp_path / "ck")
        save_checkpoint(path, "sweep", content_key("a"), {"rows": []})
        with pytest.raises(CheckpointError, match="kind"):
            load_checkpoint(path, "explore", content_key("a"))
        with pytest.raises(CheckpointError, match="different job"):
            load_checkpoint(path, "sweep", content_key("b"))

    def test_content_key_is_value_deterministic(self):
        assert content_key(("x", 1, (2.5,))) == content_key(("x", 1, (2.5,)))
        assert content_key("a") != content_key("b")


# ---------------------------------------------------------------------------
# the fault harness itself


class TestFaultHarness:
    def test_fault_point_is_noop_without_plan(self):
        fault_point("anywhere", 123)  # must not raise

    def test_raise_and_sigint_kinds(self):
        with plan_scope(FaultPlan([Fault("s", 1, kind="raise")])):
            fault_point("s", 0)  # key mismatch: no fire
            with pytest.raises(InjectedFault):
                fault_point("s", 1)
        with plan_scope(FaultPlan([Fault("s", kind="sigint")])):
            with pytest.raises(KeyboardInterrupt):
                fault_point("s", "any key matches a None-keyed fault")

    def test_crash_and_hang_degrade_in_process(self):
        """Outside a supervised worker, ``crash``/``hang`` must not take
        the test process down — they degrade to :class:`InjectedFault`."""
        for kind in ("crash", "hang"):
            with plan_scope(FaultPlan([Fault("s", kind=kind)])):
                with pytest.raises(InjectedFault, match="degradation"):
                    fault_point("s")

    def test_attempts_exhaust_times_limited_faults(self):
        plan = FaultPlan([Fault("s", kind="raise", times=2)])
        with plan_scope(plan):
            for attempt in (0, 1):
                with attempt_scope(attempt), pytest.raises(InjectedFault):
                    fault_point("s")
            with attempt_scope(2):
                fault_point("s")  # exhausted: retry succeeds

    def test_seeded_plans_are_reproducible(self):
        a = FaultPlan.seeded(7, "s", range(100), rate=0.3)
        b = FaultPlan.seeded(7, "s", range(100), rate=0.3)
        assert a.faults == b.faults
        assert 0 < len(a.faults) < 100
        assert a.faults != FaultPlan.seeded(8, "s", range(100), rate=0.3).faults

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            Fault("s", kind="meteor")


# ---------------------------------------------------------------------------
# serial sweep resilience (always on)


class TestSerialSweepResilience:
    def test_retried_faults_leave_no_trace(self):
        """Seeded crash/raise faults, each retried once: the recovered
        sweep renders byte-identical JSON to the clean sweep."""
        clean = run_sweep(tiny_spec())
        plan = FaultPlan.seeded(11, "sweep_config", range(4),
                                kinds=("crash", "raise"), rate=0.9)
        assert plan.faults, "seed must schedule at least one fault"
        faulted = run_sweep(tiny_spec(), retries=1, backoff=0.0,
                            fault_plan=plan)
        assert faulted.ok()
        assert faulted.to_json() == clean.to_json()
        assert faulted.stats.retries == len(plan.faults)

    def test_exhausted_retries_become_failed_rows(self):
        plan = FaultPlan([Fault("sweep_config", 2, kind="raise", times=5)])
        result = run_sweep(tiny_spec(), retries=1, backoff=0.0,
                           fault_plan=plan)
        assert not result.ok()
        (failure,) = result.failures
        assert failure.index == 2
        assert failure.attempts == 2
        assert "injected" in failure.error
        # the healthy rows are unaffected
        clean = run_sweep(tiny_spec())
        healthy = [row for row in clean.rows if row["index"] != 2]
        assert result.rows == healthy

    def test_sigint_flushes_checkpoint_and_resume_matches_clean(self,
                                                                tmp_path):
        ck = str(tmp_path / "sweep.ckpt")
        clean = run_sweep(tiny_spec())
        plan = FaultPlan([Fault("sweep_config", 2, kind="sigint")])
        with pytest.raises(KeyboardInterrupt):
            run_sweep(tiny_spec(), checkpoint=ck, fault_plan=plan)
        body = load_checkpoint(ck, "sweep", _sweep_key_of(tiny_spec()))
        assert [row["index"] for row in body["rows"]] == [0, 1]
        resumed = run_sweep(tiny_spec(), checkpoint=ck)
        assert resumed.to_json() == clean.to_json()
        # a second resume is a pure cache hit: every row from the checkpoint
        again = run_sweep(tiny_spec(), checkpoint=ck)
        assert again.to_json() == clean.to_json()

    @pytest.mark.parametrize("mode", ["flip", "truncate", "garbage"])
    def test_corrupt_sweep_checkpoint_is_loud(self, tmp_path, mode):
        ck = str(tmp_path / "sweep.ckpt")
        run_sweep(tiny_spec(), checkpoint=ck)
        corrupt_checkpoint(ck, mode=mode)
        with pytest.raises(CheckpointError):
            run_sweep(tiny_spec(), checkpoint=ck)

    def test_checkpoint_of_different_sweep_is_rejected(self, tmp_path):
        ck = str(tmp_path / "sweep.ckpt")
        run_sweep(tiny_spec(), checkpoint=ck)
        with pytest.raises(CheckpointError, match="different job"):
            run_sweep(tiny_spec(cycles=61), checkpoint=ck)

    def test_lane_chunk_split_isolates_poison_config(self):
        """One poison configuration in a lanes=4 sweep: every
        configuration is its own task, so the poison row fails alone (no
        retries charged) and the rest match the clean lanes=4 sweep
        exactly."""
        clean = run_sweep(tiny_spec(), lanes=4)
        plan = FaultPlan([Fault("sweep_config", 1, kind="raise", times=99)])
        faulted = run_sweep(tiny_spec(), lanes=4, fault_plan=plan)
        assert faulted.stats.retries == 0
        assert [f.index for f in faulted.failures] == [1]
        healthy = [row for row in clean.rows if row["index"] != 1]
        assert faulted.rows == healthy


def _sweep_key_of(spec):
    """The content key run_sweep derives for ``spec`` (white-box, used to
    inspect checkpoint bodies mid-test)."""
    from repro.perf import sweep as sweep_module
    from repro.sim.engine import get_default_engine

    configs = spec.expand()
    payloads = [
        {"index": c.index, "name": c.name, "factory": spec.factory,
         "params": c.params, "channel": c.channel, "cycles": spec.cycles,
         "warmup": spec.warmup, "engine": get_default_engine()}
        for c in configs
    ]
    return sweep_module._sweep_key(spec, payloads)


# ---------------------------------------------------------------------------
# explorer checkpoint / resume (always on)


class TestExplorerResilience:
    def test_sigint_resume_is_bit_identical_scalar(self, tmp_path):
        ck = str(tmp_path / "explore.ckpt")
        clean = StateExplorer(explore_net(), max_states=5000).explore()
        install_plan(FaultPlan([Fault("explore_state", 40, kind="sigint")]))
        try:
            with pytest.raises(KeyboardInterrupt):
                StateExplorer(explore_net(), max_states=5000, checkpoint=ck,
                              checkpoint_every=10).explore()
        finally:
            install_plan(None)
        resumed = StateExplorer(explore_net(), max_states=5000,
                                checkpoint=ck).explore()
        assert explorer_fingerprint(resumed) == explorer_fingerprint(clean)

    def test_scalar_checkpoint_resumes_under_lanes_and_back(self, tmp_path):
        """Checkpoints are engine-agnostic: a worklist interrupt resumed
        by a lanes=4 (codegen) exploration (and vice versa) still
        reproduces the clean exploration exactly."""
        clean = StateExplorer(explore_net(), max_states=5000).explore()
        for first_lanes, second_lanes in ((1, 4), (4, 1)):
            ck = str(tmp_path / f"explore-{first_lanes}.ckpt")
            install_plan(FaultPlan(
                [Fault("explore_state", 24, kind="sigint")]))
            try:
                StateExplorer(explore_net(), max_states=5000, checkpoint=ck,
                              lanes=first_lanes,
                              checkpoint_every=5).explore()
            except KeyboardInterrupt:
                pass
            finally:
                install_plan(None)
            resumed = StateExplorer(explore_net(), max_states=5000,
                                    checkpoint=ck,
                                    lanes=second_lanes).explore()
            assert (explorer_fingerprint(resumed)
                    == explorer_fingerprint(clean))

    def test_time_budget_slices_converge_to_clean(self, tmp_path):
        ck = str(tmp_path / "explore.ckpt")
        clean = StateExplorer(explore_net(), max_states=5000).explore()
        sliced = StateExplorer(explore_net(), max_states=5000, checkpoint=ck,
                               control=JobControl(deadline=0.0)).explore()
        assert sliced.stopped == "deadline exceeded"
        assert not sliced.ok()
        for _ in range(10_000):
            if sliced.stopped is None:
                break
            sliced = StateExplorer(explore_net(), max_states=5000,
                                   checkpoint=ck,
                                   control=JobControl(deadline=0.005)
                                   ).explore()
        assert explorer_fingerprint(sliced) == explorer_fingerprint(clean)

    def test_resume_of_finished_checkpoint_is_a_cache_hit(self, tmp_path):
        ck = str(tmp_path / "explore.ckpt")
        first = StateExplorer(explore_net(), max_states=5000,
                              checkpoint=ck).explore()
        again = StateExplorer(explore_net(), max_states=5000,
                              checkpoint=ck).explore()
        assert explorer_fingerprint(again) == explorer_fingerprint(first)

    def test_interrupt_and_resume_at_max_states_cap(self, tmp_path):
        """An exploration that hits the state cap, interrupted mid-way:
        the resumed run must reproduce the truncated graph exactly —
        including ``complete=False`` — for both engines."""
        cap = 60
        clean = StateExplorer(explore_net(), max_states=cap).explore()
        assert not clean.complete
        for lanes in (1, 4):
            ck = str(tmp_path / f"capped-{lanes}.ckpt")
            install_plan(FaultPlan(
                [Fault("explore_state", 30, kind="sigint")]))
            try:
                StateExplorer(explore_net(), max_states=cap, checkpoint=ck,
                              lanes=lanes, checkpoint_every=5).explore()
            except KeyboardInterrupt:
                pass
            finally:
                install_plan(None)
            resumed = StateExplorer(explore_net(), max_states=cap,
                                    checkpoint=ck, lanes=lanes).explore()
            assert (explorer_fingerprint(resumed)
                    == explorer_fingerprint(clean))

    @pytest.mark.parametrize("mode", ["flip", "truncate", "garbage"])
    def test_corrupt_explore_checkpoint_is_loud(self, tmp_path, mode):
        ck = str(tmp_path / "explore.ckpt")
        StateExplorer(explore_net(), max_states=5000,
                      checkpoint=ck).explore()
        corrupt_checkpoint(ck, mode=mode)
        with pytest.raises(CheckpointError):
            StateExplorer(explore_net(), max_states=5000,
                          checkpoint=ck).explore()

    def test_checkpoint_of_different_design_is_rejected(self, tmp_path):
        ck = str(tmp_path / "explore.ckpt")
        StateExplorer(explore_net(), max_states=5000,
                      checkpoint=ck).explore()
        other = build_mc_pipeline(["eb"], can_kill=False)
        with pytest.raises(CheckpointError, match="different job"):
            StateExplorer(other, max_states=5000, checkpoint=ck).explore()


# ---------------------------------------------------------------------------
# supervised multiprocessing fault cases (gated)


def _double(task):
    fault_point("task", task["n"])
    return task["n"] * 2


@needs_multiprocessing
class TestSupervisorMultiprocessing:
    def test_worker_crash_is_respawned_and_task_retried(self):
        plan = FaultPlan([Fault("task", 3, kind="crash")])
        supervisor = Supervisor("test_runtime_faults:_runner_with_plan",
                                n_workers=2, retries=1, backoff=0.0)
        results, failures = supervisor.run(
            [{"n": n, "plan": plan} for n in range(6)]
        )
        assert failures == []
        assert sorted(results) == [0, 2, 4, 6, 8, 10]
        assert supervisor.stats.deaths >= 1
        assert supervisor.stats.respawns >= 1

    def test_hung_worker_is_killed_by_deadline(self):
        plan = FaultPlan([Fault("task", 1, kind="hang", seconds=60.0)])
        supervisor = Supervisor("test_runtime_faults:_runner_with_plan",
                                n_workers=2, timeout=1.0, retries=1,
                                backoff=0.0)
        results, failures = supervisor.run(
            [{"n": n, "plan": plan} for n in range(4)]
        )
        assert failures == []
        assert sorted(results) == [0, 2, 4, 6]
        assert supervisor.stats.timeouts >= 1

    def test_slow_worker_start_does_not_eat_the_retry_deadline(self):
        """The retry of a hung task lands on a replacement worker whose
        start-up is delayed past the task timeout: the deadline starts
        only once that worker is ready, so the retry completes whatever
        the host load (one worker, so the retry must use it)."""
        plan = FaultPlan([Fault("task", 1, kind="hang", seconds=60.0)])
        start = FaultPlan([Fault("worker_start", 1, kind="slow",
                                 seconds=1.5)])
        supervisor = Supervisor("test_runtime_faults:_runner_with_plan",
                                n_workers=1, timeout=1.0, retries=1,
                                backoff=0.0, fault_plan=start)
        results, failures = supervisor.run(
            [{"n": n, "plan": plan} for n in range(4)]
        )
        assert failures == []
        assert sorted(results) == [0, 2, 4, 6]
        assert supervisor.stats.timeouts == 1
        assert supervisor.stats.slow_starts == 1
        assert supervisor.stats.start_timeouts == 0

    def test_worker_that_never_starts_is_replaced(self):
        start = FaultPlan([Fault("worker_start", 0, kind="hang")])
        supervisor = Supervisor("test_runtime_faults:_runner_with_plan",
                                n_workers=1, timeout=30.0, backoff=0.0,
                                fault_plan=start)
        supervisor.start_timeout = 3.0
        results, failures = supervisor.run(
            [{"n": n, "plan": None} for n in range(3)]
        )
        assert failures == []
        assert sorted(results) == [0, 2, 4]
        assert supervisor.stats.start_timeouts == 1
        assert supervisor.stats.respawns == 1
        assert supervisor.stats.timeouts == 0

    def test_unimportable_runner_stops_respawning(self):
        supervisor = Supervisor("no_such_module_anywhere:runner",
                                n_workers=1, backoff=0.0)
        with pytest.raises(RuntimeError, match="failed to start"):
            supervisor.run([{"n": 0}])
        assert supervisor.stats.respawns == 3

    def test_exhausted_crashes_become_task_failures(self):
        plan = FaultPlan([Fault("task", 2, kind="crash", times=99)])
        supervisor = Supervisor("test_runtime_faults:_runner_with_plan",
                                n_workers=2, retries=1, backoff=0.0)
        results, failures = supervisor.run(
            [{"n": n, "plan": plan} for n in range(4)]
        )
        assert sorted(results) == [0, 2, 6]
        (failure,) = failures
        assert failure.task["n"] == 2
        assert failure.attempts == 2
        assert "worker died" in failure.error

    def test_supervised_sweep_recovers_bit_identically(self):
        clean = run_sweep(tiny_spec())
        plan = FaultPlan([Fault("sweep_config", 1, kind="crash")])
        faulted = run_sweep(tiny_spec(), n_workers=2, retries=1, backoff=0.0,
                            fault_plan=plan)
        assert faulted.ok()
        assert faulted.to_json() == clean.to_json()
        assert faulted.stats.deaths >= 1


def _runner_with_plan(task):
    """Importable supervisor runner for the gated tests: installs the
    plan shipped in the task (spawn workers inherit nothing) and runs the
    faultable body at the scheduler-provided attempt number."""
    from repro.runtime import faults

    with faults.plan_scope(task["plan"]), \
            faults.attempt_scope(task.get("attempt", 0)):
        return _double(task)


# ---------------------------------------------------------------------------
# durability, retry-jitter and shutdown-courtesy regressions (PR 8)


class TestAtomicWriteDurability:
    def test_rename_is_followed_by_parent_directory_fsync(self, tmp_path,
                                                          monkeypatch):
        """``os.replace`` alone is atomic but not crash-durable — only an
        fsync of the *parent directory* pins the rename.  Regression: the
        directory fsync must happen, and must happen after the rename."""
        from repro.runtime import checkpoint as ckpt

        order = []
        real_replace = os.replace

        def spy_replace(src, dst):
            order.append(("replace", os.path.abspath(dst)))
            return real_replace(src, dst)

        def spy_fsync_dir(directory):
            order.append(("fsync_dir", os.path.abspath(directory)))

        monkeypatch.setattr(ckpt.os, "replace", spy_replace)
        monkeypatch.setattr(ckpt, "_fsync_directory", spy_fsync_dir)
        target = str(tmp_path / "sub" / "state.json")
        os.makedirs(os.path.dirname(target))
        ckpt.atomic_write_text(target, "payload")
        assert order == [
            ("replace", os.path.abspath(target)),
            ("fsync_dir", os.path.dirname(os.path.abspath(target))),
        ]

    def test_unfsyncable_directory_degrades_silently(self, tmp_path,
                                                     monkeypatch):
        """Filesystems that refuse directory fsync (network mounts) keep
        the old behaviour — best-effort, no exception.  (The *data* fsync
        inside :func:`atomic_write_bytes` stays mandatory; only the
        directory sync is allowed to degrade.)"""
        from repro.runtime.checkpoint import _fsync_directory

        def refuse(fd):
            raise OSError("fsync not supported here")

        monkeypatch.setattr(os, "fsync", refuse)
        _fsync_directory(str(tmp_path))             # swallowed
        monkeypatch.undo()
        _fsync_directory(str(tmp_path / "missing"))  # unopenable: swallowed
        target = str(tmp_path / "state.json")
        atomic_write_text(target, "survived")
        with open(target) as fh:
            assert fh.read() == "survived"


class TestJitteredBackoff:
    def test_schedule_is_pinned(self):
        """The retry schedule is part of the reproducibility contract:
        these exact delays (base 0.1, key "job-a") must never drift."""
        from repro.runtime.control import jittered_backoff

        schedule = [jittered_backoff(0.1, attempt, key="job-a")
                    for attempt in range(4)]
        assert schedule == [
            jittered_backoff(0.1, attempt, key="job-a")
            for attempt in range(4)
        ]
        for attempt, delay in enumerate(schedule):
            bare = 0.1 * 2 ** attempt
            assert 0.5 * bare <= delay < 1.5 * bare

    def test_keys_decorrelate_but_stay_deterministic(self):
        from repro.runtime.control import jittered_backoff

        a = [jittered_backoff(0.1, n, key="job-a") for n in range(4)]
        b = [jittered_backoff(0.1, n, key="job-b") for n in range(4)]
        assert a != b                       # different tasks spread out
        assert jittered_backoff(0.1, 2, key=None) == 0.4   # bare exponential
        assert jittered_backoff(0.0, 5, key="job-a") == 0.0


class TestSupervisorStopCourtesy:
    class _FakeProcess:
        """Records the stop protocol; ``alive_after`` controls how many
        liveness probes report the process still running."""

        def __init__(self, alive_after):
            self.alive_after = alive_after
            self.calls = []
            self._probes = 0

        def is_alive(self):
            self._probes += 1
            return self._probes <= self.alive_after

        def terminate(self):
            self.calls.append("terminate")

        def kill(self):
            self.calls.append("kill")

        def join(self, timeout=None):
            self.calls.append("join")

    def test_terminate_precedes_kill(self):
        """A worker that ignores SIGTERM is SIGKILLed — but only after the
        grace join, never first."""
        process = self._FakeProcess(alive_after=99)
        Supervisor._stop_process(process, grace=0.0)
        assert process.calls == ["terminate", "join", "kill", "join"]

    def test_cooperative_worker_is_never_killed(self):
        process = self._FakeProcess(alive_after=1)
        Supervisor._stop_process(process, grace=0.0)
        assert process.calls == ["terminate", "join", "join"]
        assert "kill" not in process.calls

    def test_dead_worker_is_not_signalled(self):
        process = self._FakeProcess(alive_after=0)
        Supervisor._stop_process(process, grace=0.0)
        assert process.calls == ["join"]
