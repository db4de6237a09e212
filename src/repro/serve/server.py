"""The asyncio job server: admission, execution, caching, drain.

One :class:`JobServer` owns a *root* directory::

    <root>/endpoint.json     where to connect (written on startup)
    <root>/journal.ckpt      the crash-safe job journal
    <root>/cache/            the content-addressed result cache
    <root>/ckpt/             per-job progress checkpoints

and serves the length-prefixed JSON protocol (:mod:`repro.serve.protocol`)
over a unix-domain socket (default) or localhost TCP.  Jobs run one at a
time on a single worker thread — the container budget is one CPU, and a
serial executor keeps every run bit-reproducible — while the event loop
keeps accepting, answering status probes, streaming progress and taking
cancellations the whole time.

Failure containment, site by site (each pinned by the PR 6 fault plans):

``serve_admit``
    Admission: a full queue, a draining server, a malformed spec or an
    injected admission fault all answer with a structured ``rejected`` /
    ``error`` reply — the connection is never just dropped.
``serve_execute``
    Execution: failures retry as the server's
    :class:`~repro.runtime.control.RetryPolicy` says, keyed on the job
    key; a job that fails every attempt is **quarantined** — journaled
    ``failed`` so a restart will not re-run it — and reported as a
    structured ``failed`` event.  Cancellations and deadlines stop the
    job at its next checkpoint boundary and are never retried; a cancel
    or a drain ends a retry's backoff, cancelling or detaching the job.
``serve_cache``
    A failed cache write degrades to an uncached (still correct) reply
    carrying a ``cache_error`` note.
``serve_journal``
    A failed ``submitted`` append rejects the job (the acceptance was
    never durable); a failed terminal append still delivers the result,
    with a ``journal_error`` note.
``serve_drain``
    SIGTERM / SIGINT / a ``shutdown`` request start a graceful drain:
    the running job is cancelled at its checkpoint boundary, queued jobs
    are answered with ``detached`` events and stay journaled pending —
    a restarted server re-enqueues and finishes them, resuming their
    checkpoints, with byte-identical results.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import signal
import sys
from concurrent.futures import ThreadPoolExecutor

from repro.errors import JobCancelled, JobRejected, ServeError
from repro.runtime import faults
from repro.runtime.checkpoint import atomic_write_text
from repro.runtime.control import JobControl, RetryPolicy
from repro.runtime.faults import fault_point
from repro.serve.cache import ResultCache
from repro.serve.jobs import job_key, run_job, validate_job
from repro.serve.journal import JobJournal
from repro.serve.protocol import read_message, write_message

#: event types that end a submit stream
TERMINAL_TYPES = ("result", "failed", "cancelled", "detached")


def _supports_unix_sockets():
    return hasattr(asyncio, "start_unix_server") and hasattr(os, "fork")


class JobServer:
    """One job service instance rooted at a directory."""

    def __init__(self, root, socket_path=None, host=None, port=None,
                 max_queue=8, retries=1, backoff=0.05, deadline=None,
                 cache_entries=256, engine=None, fault_plan=None):
        self.root = root
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.max_queue = max(1, int(max_queue))
        self.policy = RetryPolicy(retries, backoff)
        self.deadline = deadline
        self.cache_entries = cache_entries
        self.engine = engine
        self.fault_plan = fault_plan

        self.loop = None
        self.queue = None
        self.jobs = {}
        self.depth = 0              # queued + running (admission bound)
        self.running = None
        self.draining = False
        self.drain_signal = None
        self.drain_errors = []
        self._next_id = 0
        self._connections = set()
        self.cache = None
        self.journal = None

    # -- lifecycle -----------------------------------------------------------

    async def run(self, ready=None):
        """Serve until drained.  ``ready`` is an optional
        :class:`threading.Event` set once the endpoint file exists (tests
        start the server in a background thread and wait on it)."""
        self.loop = asyncio.get_running_loop()
        os.makedirs(self.root, exist_ok=True)
        self.ckpt_dir = os.path.join(self.root, "ckpt")
        os.makedirs(self.ckpt_dir, exist_ok=True)
        # Module-global plan: the executor thread (fault sites
        # serve_execute and below) and the loop thread (admission,
        # journal, cache, drain) share it.
        faults.install_plan(self.fault_plan)
        self.cache = ResultCache(self.root, max_entries=self.cache_entries)
        self.journal = JobJournal(os.path.join(self.root, "journal.ckpt"))
        self.journal.load()
        self._next_id = self.journal.max_job_id()
        self.queue = asyncio.Queue()
        self._drain_event = asyncio.Event()
        self.executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve")

        # Jobs accepted by a previous process but never finished: finish
        # them.  Their checkpoints make the rerun a resume.
        for job_id, key, spec in self.journal.pending():
            job = self._make_job(spec, key, job_id=job_id)
            self.depth += 1
            self.queue.put_nowait(job)

        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self.loop.add_signal_handler(
                    signum, self.request_drain,
                    f"signal {signum}", signum)
            except (NotImplementedError, RuntimeError, ValueError):
                pass                # non-main thread / unsupported platform

        if self.host is not None or not _supports_unix_sockets():
            server = await asyncio.start_server(
                self._handle, self.host or "127.0.0.1", self.port or 0)
            sockname = server.sockets[0].getsockname()
            endpoint = {"host": sockname[0], "port": sockname[1]}
        else:
            if self.socket_path is None:
                self.socket_path = os.path.join(self.root, "serve.sock")
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass
            server = await asyncio.start_unix_server(
                self._handle, path=self.socket_path)
            endpoint = {"socket": self.socket_path}
        endpoint["pid"] = os.getpid()
        atomic_write_text(os.path.join(self.root, "endpoint.json"),
                          json.dumps(endpoint, sort_keys=True))
        worker = asyncio.ensure_future(self._worker())
        if ready is not None:
            ready.set()

        await self._drain_event.wait()
        server.close()
        await server.wait_closed()
        await worker
        try:
            fault_point("serve_drain", "shutdown")
        except Exception as exc:
            # An injected (or real) drain-path failure must not abort the
            # shutdown; it is recorded and the drain completes.
            self.drain_errors.append(str(exc))
        # Let submit streams deliver their terminal events, then cut off
        # whatever is left.
        if self._connections:
            await asyncio.wait(list(self._connections), timeout=5.0)
        for task in list(self._connections):
            task.cancel()
        self.executor.shutdown(wait=True)
        if self.fault_plan is not None:
            faults.install_plan(None)   # don't leak the plan past the server
        try:
            os.unlink(os.path.join(self.root, "endpoint.json"))
        except OSError:
            pass
        return self

    def request_drain(self, reason="drain requested", signum=None):
        """Begin a graceful drain (idempotent; callable from the loop
        thread or a signal handler registered on it)."""
        if self.draining:
            return
        self.draining = True
        self.drain_signal = signum
        if self.running is not None:
            self.running["control"].cancel("server draining")
            self.running["wake"].set()
        self.queue.put_nowait(None)         # wake the worker
        self._drain_event.set()

    # -- job bookkeeping -----------------------------------------------------

    def _make_job(self, spec, key, job_id=None, deadline=None):
        if job_id is None:
            self._next_id += 1
            job_id = str(self._next_id)
        else:
            try:
                self._next_id = max(self._next_id, int(job_id))
            except (TypeError, ValueError):
                pass
        control = JobControl(on_progress=None)
        job = {
            "id": job_id, "key": key, "kind": spec["kind"], "spec": spec,
            "status": "queued", "attempts": 0, "deadline": deadline,
            "control": control, "subscribers": [], "terminal": None,
            "wake": asyncio.Event(),    # set by a cancel or a drain
        }
        control.on_progress = (
            lambda site, info: self.loop.call_soon_threadsafe(
                self._publish, job,
                {"type": "progress", "job": job_id, "site": site, **info}))
        self.jobs[job_id] = job
        return job

    def _subscribe(self, job):
        queue = asyncio.Queue()
        if job["terminal"] is not None:
            queue.put_nowait(job["terminal"])
        else:
            job["subscribers"].append(queue)
        return queue

    def _publish(self, job, event):
        if event["type"] in TERMINAL_TYPES:
            job["terminal"] = event
            job["status"] = event["type"]
        for queue in job["subscribers"]:
            queue.put_nowait(event)
        if event["type"] in TERMINAL_TYPES:
            job["subscribers"] = []

    def _journal_guarded(self, event, job, **extra):
        """Append a terminal journal record; an injected/real journal
        failure degrades to a warning carried on the reply."""
        try:
            self.journal.append(event, job["id"], key=job["key"], **extra)
        except Exception as exc:
            return f"journal write failed: {exc}"
        return None

    # -- the worker ----------------------------------------------------------

    async def _worker(self):
        while True:
            job = await self.queue.get()
            if job is None:
                if self.draining:
                    break
                continue
            if self.draining:
                self._detach(job)
                continue
            if job["control"].cancelled():
                self._finish_cancelled(job, job["control"].stop_reason())
                continue
            await self._run_job(job)
        while True:
            try:
                job = self.queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if job is not None:
                self._detach(job)

    def _detach(self, job):
        """A drain overtook this job: answer its clients, keep it
        journaled pending so a restarted server finishes it."""
        self.depth -= 1
        self._publish(job, {
            "type": "detached", "job": job["id"], "key": job["key"],
            "error": "server draining; job remains journaled and will be "
                     "finished by the next server on this root",
        })

    def _stopped(self, job, reason):
        """The running job stopped on a cancel, a deadline or a drain."""
        self.running = None
        if self.draining and job["control"].stop_reason() == "server draining":
            self._detach(job)
        else:
            self._finish_cancelled(job, reason)

    def _finish_cancelled(self, job, reason):
        self.depth -= 1
        warning = self._journal_guarded("cancelled", job, reason=reason)
        event = {"type": "cancelled", "job": job["id"], "key": job["key"],
                 "reason": reason}
        if warning:
            event["journal_error"] = warning
        self._publish(job, event)

    async def _run_job(self, job):
        control = job["control"]
        attempt = 0
        while True:
            job["status"] = "running"
            job["attempts"] = attempt + 1
            self.running = job
            try:
                payload = await self.loop.run_in_executor(
                    self.executor, self._execute, job, attempt)
            except JobCancelled as exc:    # incl. DeadlineExceeded
                self._stopped(job, str(exc))
                return
            except Exception as exc:
                if not self.policy.exhausted(attempt):
                    self._publish(job, {
                        "type": "retry", "job": job["id"],
                        "attempt": attempt + 1, "error": str(exc)})
                    # A cancel or a drain ends the backoff and starts no
                    # more attempts (the job stays self.running, so a
                    # drain stops it as it stops a running attempt).
                    with contextlib.suppress(asyncio.TimeoutError):
                        await asyncio.wait_for(
                            job["wake"].wait(),
                            self.policy.delay(attempt, job["key"]))
                    if not control.cancelled():
                        attempt += 1
                        continue
                    self._stopped(job, control.stop_reason())
                    return
                self.running = None
                # Quarantine: journaled failed, so a restart will not
                # poison itself re-running this job.
                self.depth -= 1
                warning = self._journal_guarded(
                    "failed", job, error=str(exc), attempts=job["attempts"])
                event = {"type": "failed", "job": job["id"],
                         "key": job["key"], "error": str(exc),
                         "error_type": type(exc).__name__,
                         "attempts": job["attempts"]}
                if warning:
                    event["journal_error"] = warning
                self._publish(job, event)
                return
            else:
                self.running = None
                self.depth -= 1
                event = {"type": "result", "job": job["id"],
                         "key": job["key"], "payload": payload,
                         "cached": False, "attempts": job["attempts"]}
                try:
                    self.cache.put(job["key"], payload)
                except Exception as exc:
                    event["cache_error"] = str(exc)
                warning = self._journal_guarded("done", job)
                if warning:
                    event["journal_error"] = warning
                try:
                    os.unlink(os.path.join(self.ckpt_dir,
                                           f"{job['key']}.ckpt"))
                except OSError:
                    pass
                self._publish(job, event)
                return

    def _execute(self, job, attempt):
        """Runs on the worker thread: one attempt of one job."""
        control = job["control"]
        with faults.attempt_scope(attempt):
            fault_point("serve_execute", job["kind"])
            deadline = job["deadline"] if job["deadline"] is not None \
                else self.deadline
            if deadline is not None:
                control.arm_deadline(deadline)
            control.raise_if_stopped("execute_start")
            checkpoint = os.path.join(self.ckpt_dir, f"{job['key']}.ckpt")
            return run_job(job["spec"], control=control,
                           checkpoint=checkpoint, engine=self.engine)

    # -- connections ---------------------------------------------------------

    async def _handle(self, reader, writer):
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            try:
                message = await read_message(reader)
            except ServeError:
                return
            if message is None:
                return
            op = message.get("op") if isinstance(message, dict) else None
            try:
                if op == "submit":
                    await self._op_submit(message, writer)
                elif op == "status":
                    await write_message(writer, self._status_payload())
                elif op == "cancel":
                    await self._op_cancel(message, writer)
                elif op == "shutdown":
                    self.request_drain("shutdown requested")
                    await write_message(writer, {"type": "ok"})
                else:
                    await write_message(writer, {
                        "type": "error", "error": f"unknown op {op!r}",
                        "error_type": "ServeError"})
            except (ConnectionError, BrokenPipeError):
                pass                # client went away; job keeps running
        finally:
            self._connections.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _op_submit(self, message, writer):
        raw = message.get("spec")
        try:
            kind = raw.get("kind") if isinstance(raw, dict) else None
            fault_point("serve_admit", kind)
            if self.draining:
                raise JobRejected("server is draining",
                                  queue_depth=self.depth,
                                  max_queue=self.max_queue)
            if self.depth >= self.max_queue:
                raise JobRejected(
                    f"admission queue is full ({self.depth} jobs)",
                    queue_depth=self.depth, max_queue=self.max_queue)
            spec = validate_job(raw)
            key = job_key(spec, engine=self.engine)
        except JobRejected as exc:
            await write_message(writer, {
                "type": "rejected", "error": str(exc),
                "queue_depth": exc.queue_depth, "max_queue": exc.max_queue})
            return
        except Exception as exc:
            await write_message(writer, {
                "type": "error", "error": str(exc),
                "error_type": type(exc).__name__})
            return

        if not message.get("fresh"):
            cached = self.cache.get(key)
            if cached is not None:
                await write_message(writer, {
                    "type": "result", "job": None, "key": key,
                    "payload": cached, "cached": True})
                return

        job = self._make_job(spec, key, deadline=message.get("deadline"))
        try:
            self.journal.append("submitted", job["id"], key=key, spec=spec)
        except Exception as exc:
            del self.jobs[job["id"]]
            await write_message(writer, {
                "type": "rejected",
                "error": f"journal write failed: {exc}",
                "queue_depth": self.depth, "max_queue": self.max_queue})
            return
        subscription = self._subscribe(job)
        self.depth += 1
        self.queue.put_nowait(job)
        await write_message(writer, {
            "type": "accepted", "job": job["id"], "key": key,
            "queue_depth": self.depth})
        while True:
            event = await subscription.get()
            await write_message(writer, event)
            if event["type"] in TERMINAL_TYPES:
                return

    async def _op_cancel(self, message, writer):
        job = self.jobs.get(str(message.get("job")))
        if job is None:
            await write_message(writer, {
                "type": "error",
                "error": f"unknown job {message.get('job')!r}",
                "error_type": "ServeError"})
            return
        job["control"].cancel(message.get("reason") or "cancelled by client")
        job["wake"].set()
        await write_message(writer, {"type": "ok", "job": job["id"]})

    def _status_payload(self):
        counts = {}
        for job in self.jobs.values():
            counts[job["status"]] = counts.get(job["status"], 0) + 1
        return {
            "type": "status", "queue_depth": self.depth,
            "max_queue": self.max_queue, "draining": self.draining,
            "jobs": counts, "cache": self.cache.stats(),
            "engine": self.engine,
        }


def serve_forever(root, **kwargs):
    """Blocking entry point: run a :class:`JobServer` until drained.

    Returns the conventional exit status: 0 after a clean drain
    (``shutdown`` request), 143 after SIGTERM, 130 after SIGINT.
    """
    server = JobServer(root, **kwargs)
    asyncio.run(server.run())
    if server.drain_errors:
        print(f"serve: drain completed with {len(server.drain_errors)} "
              f"error(s): {'; '.join(server.drain_errors)}",
              file=sys.stderr)
    if server.drain_signal == signal.SIGTERM:
        return 143
    if server.drain_signal == signal.SIGINT:
        return 130
    return 0
