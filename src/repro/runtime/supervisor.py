"""A supervised multiprocessing worker pool for long-running jobs.

``multiprocessing.Pool`` is the wrong primitive for a job that runs for
minutes to hours: one worker dying (OOM kill, segfault in a native
extension, a stray ``os._exit``) poisons the pool, a hung task blocks its
worker forever, and a raising task unwinds the whole ``map`` with partial
results lost.  :class:`Supervisor` replaces it with the structure every
production scheduler has:

* **Liveness tracking** — each worker runs one task at a time over a
  dedicated duplex pipe; the parent multiplexes results with
  :func:`multiprocessing.connection.wait` and checks ``Process.is_alive``
  every tick, so a dead worker is detected within one tick, not at pool
  teardown.
* **Ready handshake** — a fresh worker sends a ready message once its
  runner is imported, and only ready workers get tasks, so spawning and
  importing never eat into a task's deadline.  Start-up has its own
  bound (``start_timeout``): a worker that is not ready in time is
  killed and replaced, which counts as a respawn.
* **Wall-clock timeouts** — each task carries a deadline (``timeout``
  seconds, from when a ready worker receives it); a worker that blows it
  is killed and replaced, and the task is rescheduled.
* **Respawn** — dead or killed workers are replaced immediately; the pool
  never shrinks below its target width while work remains.
* **Retry** — a failed task is retried as
  :class:`~repro.runtime.control.RetryPolicy` says (budget and jittered
  delay, keyed on the task's ``"key"`` entry when it has one, else on
  :func:`~repro.runtime.control.task_key`); the attempt number is
  shipped inside the task payload so deterministic fault schedules
  (:mod:`repro.runtime.faults`) are exhausted by retries even across
  process respawns.
* **Graceful degradation** — a task that exhausts its retry budget
  becomes a structured :class:`TaskFailure` in the result instead of an
  exception that aborts the run.

The worker entry point (:func:`_worker_main`) resolves its task runner
from a ``"module:attribute"`` reference, keeping the protocol picklable
under the spawn start method (workers inherit nothing from the parent —
the same discipline :mod:`repro.perf.sweep` established for engine
propagation).

``multiprocessing`` is imported by :meth:`Supervisor.run`, where the
first worker starts: importing this module (a serial sweep does, for
:class:`SupervisorStats`) or building a :class:`Supervisor` loads none
of it.
"""

from __future__ import annotations

import importlib
import os
import time
import traceback
from collections import deque
from dataclasses import dataclass, field

from repro.runtime.control import RetryPolicy, task_key


def usable_cpus():
    """CPUs this process may actually run on (affinity-aware; the gate the
    benchmarks and multiprocessing fault tests share)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # non-Linux
        return os.cpu_count() or 1


def resolve_ref(ref):
    """Resolve a ``"module:attribute"`` reference to the callable."""
    if callable(ref):
        return ref
    module_name, sep, attr = str(ref).partition(":")
    if not sep:
        raise ValueError(f"{ref!r} is not a 'module:attribute' reference")
    return getattr(importlib.import_module(module_name), attr)


@dataclass
class TaskFailure:
    """A task that exhausted its retry budget."""

    task: dict
    error: str
    traceback: str
    attempts: int


@dataclass
class SupervisorStats:
    """Observability counters for one :meth:`Supervisor.run`."""

    retries: int = 0      # task re-executions after a failure
    respawns: int = 0     # workers replaced (died or killed)
    timeouts: int = 0     # tasks killed by the wall-clock deadline
    deaths: int = 0       # workers found dead (crash, not killed by us)
    start_timeouts: int = 0   # workers killed for missing start_timeout
    slow_starts: int = 0  # workers ready only after a task timeout's span


@dataclass
class _Item:
    id: int
    task: dict
    attempt: int = 0
    not_before: float = 0.0


@dataclass
class _Worker:
    process: object
    conn: object
    started: float
    ready: bool = False
    item: object = field(default=None)
    deadline: object = field(default=None)


#: Workers in a row that may fail to start before :meth:`Supervisor.run`
#: gives up (a runner that cannot be imported would respawn forever).
_MAX_START_FAILURES = 3


def _worker_main(conn, runner_ref, fault_plan=None, spawn_index=0):
    """Worker loop: import the runner, send a ready message, then
    receive ``(task_id, task)``, run, send the outcome.

    ``fault_plan`` is installed for start-up only, at the site
    ``worker_start`` keyed by ``spawn_index`` (the supervisor's count of
    workers spawned before this one), so a test can delay or hang one
    worker's start.  Runs until the parent sends ``None`` or the pipe
    closes.  Any exception in the runner is reported as a structured
    error message — the worker itself survives and takes the next task.
    A ``crash`` fault (or a real segfault) never reaches the except
    clause; the parent notices the dead process instead.
    """
    from repro.runtime import faults

    faults.mark_worker()
    with faults.plan_scope(fault_plan):
        faults.fault_point("worker_start", spawn_index)
    runner = resolve_ref(runner_ref)
    conn.send((None, "ready", None))
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        task_id, task = message
        try:
            result = runner(task)
            conn.send((task_id, "ok", result))
        except BaseException as exc:  # noqa: BLE001 — report, don't die
            conn.send((task_id, "error", {
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(),
            }))


class Supervisor:
    """Run picklable task dicts through supervised spawn workers.

    Parameters
    ----------
    runner:
        ``"module:attribute"`` reference to ``runner(task) -> result``,
        resolved inside each worker (and therefore importable there).
    n_workers:
        Target pool width.
    timeout:
        Per-task wall-clock seconds, counted from dispatch to a ready
        worker; ``None`` disables deadlines.
    retries / backoff:
        The task's :class:`~repro.runtime.control.RetryPolicy`.
    on_result:
        Optional ``on_result(task, result)`` parent-side callback per
        completed task — the checkpoint hook.
    fault_plan:
        Optional :class:`~repro.runtime.faults.FaultPlan` each worker
        installs for its start-up (site ``worker_start``, key: the
        spawn index, counting from 0).
    """

    _TICK = 0.02
    #: seconds a fresh worker may take to become ready (spawn plus runner
    #: import) before it is killed and replaced
    start_timeout = 60.0

    def __init__(self, runner, n_workers, timeout=None, retries=0,
                 backoff=0.05, on_result=None, fault_plan=None):
        self.runner = runner
        self.n_workers = max(1, int(n_workers))
        self.timeout = timeout
        self.fault_plan = fault_plan
        self._spawned = 0
        self.policy = RetryPolicy(retries, backoff)
        self.on_result = on_result
        self.stats = SupervisorStats()
        self._context = None            # spawn context, made by run()

    # -- worker lifecycle ---------------------------------------------------

    def _spawn(self):
        """Start a worker; it takes tasks once it reports ready."""
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_worker_main,
            args=(child_conn, self.runner, self.fault_plan, self._spawned),
            daemon=True,
        )
        self._spawned += 1
        process.start()
        child_conn.close()
        return _Worker(process=process, conn=parent_conn,
                       started=time.monotonic())

    def _replace(self, worker, workers, kill=False):
        """Reap ``worker`` and spawn its replacement (a respawn)."""
        self.stats.respawns += 1
        self._reap(worker, kill=kill)
        workers[workers.index(worker)] = self._spawn()

    def _start_failed(self, worker, workers, reason, kill=False):
        """A worker died or timed out before it was ready: replace it,
        unless too many starts in a row have failed."""
        self._start_failures += 1
        if self._start_failures > _MAX_START_FAILURES:
            raise RuntimeError(
                f"{self._start_failures} workers in a row failed to start "
                f"(last: {reason}); runner {self.runner!r}"
            )
        self._replace(worker, workers, kill=kill)

    @staticmethod
    def _stop_process(process, grace=0.25):
        """Stop a worker process: SIGTERM first (a chance to run cleanup
        handlers and flush), escalate to SIGKILL only after ``grace``
        seconds — the same courtesy every production supervisor extends
        before resorting to the hard kill."""
        if process.is_alive():
            process.terminate()
            process.join(timeout=grace)
        if process.is_alive():
            process.kill()
        process.join(timeout=5)

    def _reap(self, worker, kill=False):
        """Dispose of a worker (already dead, or to be stopped)."""
        try:
            if kill:
                self._stop_process(worker.process)
            else:
                worker.process.join(timeout=5)
        finally:
            worker.conn.close()

    def _shutdown(self, workers):
        for worker in workers:
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for worker in workers:
            worker.process.join(timeout=1)
            if worker.process.is_alive():
                self._stop_process(worker.process)
            worker.conn.close()

    # -- scheduling ---------------------------------------------------------

    def _fail(self, item, error, tb, waiting, failures):
        """Route one failed execution: back off into ``waiting``, or give
        up into a :class:`TaskFailure`."""
        if self.policy.exhausted(item.attempt):
            failures.append(TaskFailure(
                task=item.task, error=error, traceback=tb,
                attempts=item.attempt + 1,
            ))
            return
        self.stats.retries += 1
        key = item.task.get("key") or task_key(item.task)
        waiting.append(_Item(
            id=item.id, task=item.task, attempt=item.attempt + 1,
            not_before=time.monotonic() + self.policy.delay(item.attempt, key),
        ))

    def run(self, tasks):
        """Execute ``tasks``; returns ``(results, failures)``.

        ``results`` is a list of every completed task's result (order
        reflects completion, not submission — merge on content, as the
        sweep does by row index); ``failures`` is a list of
        :class:`TaskFailure`.  KeyboardInterrupt tears the pool down
        (workers killed) and propagates, leaving any ``on_result``
        checkpointing already durable.  Raises ``RuntimeError`` when
        more than ``_MAX_START_FAILURES`` workers in a row fail to start.
        """
        ready = deque(_Item(id=index, task=task)
                      for index, task in enumerate(tasks))
        results, failures = [], []
        if not ready:
            return results, failures
        import multiprocessing
        from multiprocessing import connection

        self._context = multiprocessing.get_context("spawn")
        self._start_failures = 0
        width = min(self.n_workers, len(ready))
        workers = [self._spawn() for _ in range(width)]
        waiting = []      # failed items backing off until not_before
        try:
            while ready or waiting or any(w.item is not None for w in workers):
                now = time.monotonic()
                for entry in list(waiting):
                    if entry.not_before <= now:
                        waiting.remove(entry)
                        ready.append(entry)
                idle = [w for w in workers if w.ready and w.item is None]
                while idle and ready:
                    item = ready.popleft()
                    worker = idle.pop()
                    task = dict(item.task, attempt=item.attempt)
                    try:
                        if not worker.process.is_alive():
                            # Died while idle: never assign work to a corpse.
                            raise BrokenPipeError
                        worker.conn.send((item.id, task))
                    except (BrokenPipeError, OSError):
                        self._replace(worker, workers)
                        ready.appendleft(item)
                        continue
                    worker.item = item
                    worker.deadline = (
                        None if self.timeout is None else now + self.timeout
                    )
                pending = [w for w in workers
                           if w.item is not None or not w.ready]
                if not pending:       # only backed-off items are left
                    wake = min((e.not_before for e in waiting), default=now)
                    time.sleep(min(self._TICK, max(0.0, wake - now)))
                    continue
                readable = connection.wait(
                    [w.conn for w in pending], timeout=self._TICK
                )
                by_conn = {w.conn: w for w in pending}
                for conn in readable:
                    worker = by_conn[conn]
                    item = worker.item
                    try:
                        task_id, status, payload = conn.recv()
                    except (EOFError, OSError):
                        # Worker died: its end of the pipe closed before a
                        # message arrived (an os._exit / segfault usually
                        # lands here, via the EOF, before the liveness
                        # check below sees the corpse).
                        self.stats.deaths += 1
                        died = f"died (exit code {worker.process.exitcode})"
                        if item is None:
                            self._start_failed(worker, workers, died)
                        else:
                            self._replace(worker, workers)
                            self._fail(item, f"worker {died}", "", waiting,
                                       failures)
                        continue
                    if status == "ready":
                        worker.ready = True
                        self._start_failures = 0
                        if (self.timeout is not None and time.monotonic()
                                - worker.started > self.timeout):
                            self.stats.slow_starts += 1
                        continue
                    worker.item = None
                    worker.deadline = None
                    if status == "ok":
                        results.append(payload)
                        if self.on_result is not None:
                            self.on_result(item.task, payload)
                    else:
                        self._fail(item, payload["error"],
                                   payload["traceback"], waiting, failures)
                now = time.monotonic()
                for worker in list(workers):
                    item = worker.item
                    if not worker.ready:
                        if not worker.process.is_alive():
                            self.stats.deaths += 1
                            self._start_failed(
                                worker, workers, "died (exit code "
                                f"{worker.process.exitcode})")
                        elif now - worker.started > self.start_timeout:
                            self.stats.start_timeouts += 1
                            self._start_failed(
                                worker, workers,
                                f"not ready after {self.start_timeout:.1f}s",
                                kill=True)
                        continue
                    if item is None:
                        continue
                    if not worker.process.is_alive():
                        self.stats.deaths += 1
                        self._replace(worker, workers)
                        self._fail(item, "worker died (exit code "
                                   f"{worker.process.exitcode})", "",
                                   waiting, failures)
                    elif worker.deadline is not None and now > worker.deadline:
                        self.stats.timeouts += 1
                        self._replace(worker, workers, kill=True)
                        self._fail(item,
                                   f"timed out after {self.timeout:.1f}s",
                                   "", waiting, failures)
        finally:
            self._shutdown(workers)
        return results, failures
