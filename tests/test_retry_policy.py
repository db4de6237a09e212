"""The one retry policy: its rules, its single home, and stable keys.

:class:`~repro.runtime.control.RetryPolicy` decides the attempt budget,
the jittered delay before a retry and which errors are retried, for the
serial sweep, the supervisor, the job server and ``verify``'s deadline
slices.  These tests pin its rules, guard (by reading the source's AST)
that no module grows its own retry loop again, and check that a sweep
configuration's retry key is the same in every process and on both
sweep paths.
"""

import ast
import json
import os
import subprocess
import sys

import pytest

from repro.errors import DeadlineExceeded, JobCancelled
from repro.runtime import control
from repro.runtime.control import RetryPolicy, jittered_backoff

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
PACKAGE = os.path.join(SRC, "repro")
CONTROL = os.path.join(PACKAGE, "runtime", "control.py")


class _Flaky:
    """``call(attempt)`` that raises ``errors[attempt]`` while there is
    one, then returns the attempt number."""

    def __init__(self, *errors):
        self.errors = errors
        self.attempts = []

    def __call__(self, attempt):
        self.attempts.append(attempt)
        if attempt < len(self.errors):
            raise self.errors[attempt]
        return attempt


@pytest.fixture
def naps(monkeypatch):
    """The delays :meth:`RetryPolicy.run` sleeps, recorded, not slept."""
    slept = []
    monkeypatch.setattr(control.time, "sleep", slept.append)
    return slept


class TestRetryPolicy:
    def test_success_first_time_never_sleeps(self, naps):
        call = _Flaky()
        assert RetryPolicy(3, backoff=1.0).run(call, "k") == 0
        assert call.attempts == [0]
        assert naps == []

    def test_retries_on_the_keyed_schedule(self, naps):
        call = _Flaky(ValueError("a"), ValueError("b"))
        assert RetryPolicy(2, backoff=0.1).run(call, "job-a") == 2
        assert call.attempts == [0, 1, 2]
        assert naps == [jittered_backoff(0.1, 0, key="job-a"),
                        jittered_backoff(0.1, 1, key="job-a")]

    def test_spent_budget_raises_the_last_error(self, naps):
        call = _Flaky(ValueError("first"), ValueError("last"))
        with pytest.raises(ValueError, match="last"):
            RetryPolicy(1, backoff=0.0).run(call, "k")
        assert call.attempts == [0, 1]

    @pytest.mark.parametrize("stop", [JobCancelled("cancelled"),
                                      DeadlineExceeded("deadline exceeded")])
    def test_a_stop_is_never_retried(self, naps, stop):
        call = _Flaky(stop)
        with pytest.raises(type(stop)):
            RetryPolicy(5).run(call, "k")
        assert call.attempts == [0]

    def test_interrupt_always_propagates(self, naps):
        call = _Flaky(KeyboardInterrupt())
        with pytest.raises(KeyboardInterrupt):
            RetryPolicy(5).run(call, "k", retry_on=BaseException)
        assert call.attempts == [0]

    def test_retry_on_replaces_the_choice(self, naps):
        slices = _Flaky(DeadlineExceeded("d"), DeadlineExceeded("d"))
        policy = RetryPolicy(2, backoff=0)
        assert policy.run(slices, "eb", retry_on=DeadlineExceeded) == 2
        assert naps == [0, 0]
        other = _Flaky(ValueError("not a deadline"))
        with pytest.raises(ValueError):
            policy.run(other, "eb", retry_on=DeadlineExceeded)
        assert other.attempts == [0]

    def test_budget_and_delay_queries(self):
        policy = RetryPolicy(2, backoff=0.1)
        assert [policy.exhausted(n) for n in range(4)] == [
            False, False, True, True]
        assert policy.delay(1, "job-a") == jittered_backoff(0.1, 1, "job-a")
        assert RetryPolicy(0).exhausted(0)

    def test_negative_budget_is_rejected(self):
        with pytest.raises(ValueError, match="retries must be >= 0, got -1"):
            RetryPolicy(-1)

    def test_every_entry_point_rejects_a_negative_budget(self, tmp_path):
        from repro.perf.presets import fig6_spec
        from repro.perf.sweep import run_sweep
        from repro.runtime.supervisor import Supervisor
        from repro.serve.server import JobServer

        with pytest.raises(ValueError, match="retries must be >= 0"):
            run_sweep(fig6_spec(), retries=-1)
        with pytest.raises(ValueError, match="retries must be >= 0"):
            Supervisor("repro.perf.sweep:_supervised_config", 2, retries=-1)
        with pytest.raises(ValueError, match="retries must be >= 0"):
            JobServer(str(tmp_path), retries=-1)


# ---------------------------------------------------------------------------
# one home for the retry rules


def _modules():
    for folder, _dirs, files in os.walk(PACKAGE):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path) as fh:
                    yield path, ast.parse(fh.read(), filename=path)


def _callee(call):
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(
        func, "id", None)


def _retry_loops(tree):
    """Line numbers of loops that count attempts (``attempt += 1`` or
    ``for attempt in ...``), catch an exception and sleep: a retry loop
    with its own budget and backoff."""
    for loop in ast.walk(tree):
        if not isinstance(loop, (ast.For, ast.AsyncFor, ast.While)):
            continue
        inner = list(ast.walk(loop))
        counts = any(
            isinstance(node, (ast.AugAssign, ast.For, ast.AsyncFor))
            and isinstance(node.target, ast.Name)
            and "attempt" in node.target.id
            for node in inner)
        catches = any(isinstance(node, ast.ExceptHandler) for node in inner)
        sleeps = any(isinstance(node, ast.Call) and _callee(node) == "sleep"
                     for node in inner)
        if counts and catches and sleeps:
            yield loop.lineno


def _calls(tree, name):
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _callee(node) == name]


def test_jittered_backoff_is_called_only_by_the_policy():
    calls = {os.path.relpath(path, SRC): len(_calls(tree, "jittered_backoff"))
             for path, tree in _modules()}
    assert {path: n for path, n in calls.items() if n} == {
        "repro/runtime/control.py": 1}
    with open(CONTROL) as fh:
        (policy,) = [node for node in ast.parse(fh.read()).body
                     if isinstance(node, ast.ClassDef)
                     and node.name == "RetryPolicy"]
    assert len(_calls(policy, "jittered_backoff")) == 1


def test_no_module_but_control_has_a_retry_loop():
    found = {os.path.relpath(path, SRC): list(_retry_loops(tree))
             for path, tree in _modules()}
    assert found.pop("repro/runtime/control.py"), \
        "the guard no longer recognises RetryPolicy.run's loop"
    assert {path: lines for path, lines in found.items() if lines} == {}


# ---------------------------------------------------------------------------
# a sweep configuration's retry key: stable across processes and paths

#: prints the retry keys both sweep paths use for a small fig6 grid: the
#: serial path runs with a fault on every first attempt, the supervised
#: one routes each task through Supervisor._fail without starting workers
KEYS_SCRIPT = """
import json
from repro.perf.presets import fig6_spec
from repro.perf.sweep import run_sweep
from repro.runtime.control import RetryPolicy
from repro.runtime.faults import Fault, FaultPlan
from repro.runtime.supervisor import Supervisor, _Item

keys = {"serial": [], "supervised": []}
path = ["serial"]
real_delay = RetryPolicy.delay

def delay(self, attempt, key):
    keys[path[0]].append(key)
    return real_delay(self, attempt, key)

def route_failures(self, tasks):
    for task in tasks:
        self._fail(_Item(id=0, task=task), "injected", "", [], [])
    return [], []

RetryPolicy.delay = delay
Supervisor.run = route_failures
spec = fig6_spec(fracs=(0.0, 1.0), cycles=40, warmup=10)
assert run_sweep(spec, retries=1, backoff=0.0,
                 fault_plan=FaultPlan([Fault("sweep_config")])).ok()
path[0] = "supervised"
run_sweep(spec, n_workers=2, retries=1, backoff=0.0)
print(json.dumps(keys))
"""


def _sweep_keys():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    out = subprocess.run([sys.executable, "-c", KEYS_SCRIPT], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_sweep_retry_keys_are_stable_across_processes_and_paths():
    first, second = _sweep_keys(), _sweep_keys()
    assert first == second
    assert first["serial"] == first["supervised"]
    assert len(first["serial"]) == 8
    assert not any("0x" in key for key in first["serial"])


def test_task_key_names_callables_by_import_path():
    from repro.perf.presets import fig6_point

    assert control.task_key({"factory": fig6_point}) == (
        '{"factory": "repro.perf.presets:fig6_point"}')
