"""Shared job-control primitives: cooperative cancellation, wall-clock
deadlines, the retry policy and SIGTERM parity.

The long-running subsystems (:func:`~repro.perf.sweep.run_sweep`,
:class:`~repro.verif.explore.StateExplorer`) already stop cleanly at
*checkpoint boundaries* — the instants where their progress is consistent
and durable.  :class:`JobControl` is the thin handle the job server (and
any other driver) threads into them so the same boundaries also serve
client-initiated cancellation, per-job deadlines and streaming progress:

* the driver calls :meth:`JobControl.cancel` (or arms a deadline) from any
  thread;
* the job calls :meth:`JobControl.raise_if_stopped` (sweeps — raising is
  safe once the boundary is saved) or :meth:`JobControl.stop_reason`
  (the explorer — it must flush *before* unwinding) at each boundary;
* progress published through :meth:`JobControl.progress` is throttled so
  per-state instrumentation does not flood the event stream.

:class:`RetryPolicy` is the one retry rule of the sweep (both paths),
the job server and ``verify``'s deadline slices.  Its delay,
:func:`jittered_backoff`, is exponential and scaled by a factor in
``[0.5, 1.5)`` derived from the task's key: simultaneous failures spread
out, while each task's schedule stays bit-reproducible.

:func:`install_term_handler` gives SIGTERM the same semantics SIGINT has
had since PR 6 — flush checkpoints, then exit — with the conventional
status 143 instead of 130 (:func:`interrupt_exit_code` picks).
"""

from __future__ import annotations

import hashlib
import json
import signal
import threading
import time

from repro.errors import DeadlineExceeded, JobCancelled


def _stable_repr(value):
    """A callable by its import path (never its per-process address),
    anything else by ``repr`` (stable for the dataclasses used here)."""
    if callable(value):
        qualname = getattr(value, "__qualname__", type(value).__name__)
        return f"{getattr(value, '__module__', '?')}:{qualname}"
    return repr(value)


def task_key(task):
    """Stable textual identity of a task for keying retry jitter (and
    anything else that wants a reproducible, process-independent handle on
    "this task").  Any JSON-renderable structure works; other values
    render through :func:`_stable_repr`."""
    return json.dumps(task, sort_keys=True, default=_stable_repr)


def jittered_backoff(base, attempt, key=None):
    """Exponential backoff with deterministic, key-seeded jitter.

    Returns ``base * 2**attempt`` scaled by a factor in ``[0.5, 1.5)``
    drawn from SHA-256 over ``(key, attempt)`` — the same task retries on
    the same schedule every run, but two tasks failing together do not
    retry together.  ``key=None`` (or a zero delay) keeps the bare
    exponential value.
    """
    delay = base * (2 ** attempt)
    if key is None or not delay:
        return delay
    digest = hashlib.sha256(f"{key}#{attempt}".encode("utf-8")).digest()
    fraction = int.from_bytes(digest[:8], "big") / 2.0 ** 64
    return delay * (0.5 + fraction)


class RetryPolicy:
    """How often a failed task is retried, how long to wait first, and
    which failures count.

    ``retries`` is the budget after the first attempt (attempts count
    from 0); ``backoff`` is the base of the :func:`jittered_backoff`
    delay.  A stop (:class:`~repro.errors.JobCancelled`, deadlines
    included) is not retried unless asked for by type, and
    :class:`KeyboardInterrupt` always propagates.  Schedulers (the
    supervisor, the job server) ask :meth:`exhausted` and :meth:`delay`;
    in-process callers hand the whole loop to :meth:`run`.
    """

    def __init__(self, retries=0, backoff=0.05):
        self.retries = int(retries)
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        self.backoff = backoff

    def exhausted(self, attempt):
        """True when a failure of ``attempt`` spent the budget."""
        return attempt >= self.retries

    def delay(self, attempt, key):
        """Seconds to wait after a failure of ``attempt``, seeded by the
        task's stable ``key``."""
        return jittered_backoff(self.backoff, attempt, key=key)

    def run(self, call, key, retry_on=None):
        """Return ``call(attempt)`` of the first attempt that succeeds,
        sleeping :meth:`delay` before each retry.  The error of attempt
        ``retries``, or one not retried, propagates.  ``retry_on`` (a
        type or tuple) replaces the default: any ``Exception`` but a
        stop."""
        attempt = 0
        while True:
            try:
                return call(attempt)
            except Exception as exc:
                retried = (isinstance(exc, retry_on) if retry_on is not None
                           else not isinstance(exc, JobCancelled))
                if not retried or self.exhausted(attempt):
                    raise
            time.sleep(self.delay(attempt, key))
            attempt += 1


class JobControl:
    """Cooperative stop/progress handle for one long-running job.

    Thread-safe: the driver cancels (or lets the armed deadline expire)
    from its thread; the job polls from its own.  Stopping is always
    *cooperative* — nothing is interrupted mid-step; the job notices at
    its next checkpoint boundary, where its progress is durable.
    """

    def __init__(self, deadline=None, on_progress=None,
                 progress_interval=0.2):
        self._lock = threading.Lock()
        self._cancel_reason = None
        self._deadline_hit = False
        self.on_progress = on_progress
        self.progress_interval = progress_interval
        self._last_progress = 0.0
        self.deadline = None
        if deadline is not None:
            self.arm_deadline(deadline)

    def arm_deadline(self, seconds):
        """Start (or restart) the wall clock: the job must reach a
        checkpoint boundary within ``seconds`` from *now*.  Armed when
        execution actually starts, so queue wait does not count."""
        self.deadline = None if seconds is None else time.monotonic() + seconds

    def cancel(self, reason="cancelled"):
        """Request a stop at the next checkpoint boundary (idempotent —
        the first reason wins)."""
        with self._lock:
            if self._cancel_reason is None:
                self._cancel_reason = str(reason)

    def cancelled(self):
        return self._cancel_reason is not None

    def stop_reason(self):
        """``None`` while the job should keep running; otherwise the
        reason string (cancellation message or ``"deadline exceeded"``).
        The non-raising query for callers that must flush state before
        unwinding (the explorer's boundary hook)."""
        with self._lock:
            if self._cancel_reason is not None:
                return self._cancel_reason
            if self.deadline is not None and time.monotonic() >= self.deadline:
                self._deadline_hit = True
                return "deadline exceeded"
        return None

    def stop_error(self, reason):
        """The structured exception matching a :meth:`stop_reason`."""
        if self._deadline_hit:
            return DeadlineExceeded(reason)
        return JobCancelled(reason)

    def progress(self, site, **info):
        """Publish a progress event (never raises; throttled to one event
        per ``progress_interval`` seconds per call site)."""
        if self.on_progress is None:
            return
        now = time.monotonic()
        if now - self._last_progress < self.progress_interval:
            return
        self._last_progress = now
        try:
            self.on_progress(site, info)
        except Exception:
            # A broken progress sink must never take the job down.
            pass

    def raise_if_stopped(self, site=None, **info):
        """Checkpoint-boundary hook for jobs whose progress is already
        durable when they reach it: publish progress, then raise
        :class:`~repro.errors.JobCancelled` /
        :class:`~repro.errors.DeadlineExceeded` if a stop was requested."""
        if site is not None:
            self.progress(site, **info)
        reason = self.stop_reason()
        if reason is not None:
            raise self.stop_error(reason)


# -- SIGTERM parity ----------------------------------------------------------

#: process-wide record of the last termination signal the CLI handler saw
#: (SIGTERM must exit 143 where SIGINT exits 130; both flush first).
_TERM_STATE = {"fired": False}


def install_term_handler():
    """Give SIGTERM the flush-then-exit semantics of SIGINT.

    The handler raises :class:`KeyboardInterrupt`, so every existing
    checkpoint-flushing ``except KeyboardInterrupt`` path (sweep, the
    explorer, the job server's drain) runs unchanged; the CLI then exits
    with :func:`interrupt_exit_code` — 143 after a SIGTERM, 130 after a
    real Ctrl-C.  No-op outside the main thread (signal handlers can only
    be installed there; worker threads inherit the process handler).
    Returns True when the handler was installed.
    """
    _TERM_STATE["fired"] = False

    def _handler(signum, frame):
        _TERM_STATE["fired"] = True
        raise KeyboardInterrupt("SIGTERM")

    try:
        signal.signal(signal.SIGTERM, _handler)
    except ValueError:          # not the main thread
        return False
    return True


def term_signal_fired():
    """True when the installed SIGTERM handler fired (sticky until the
    next :func:`install_term_handler`)."""
    return _TERM_STATE["fired"]


def interrupt_exit_code():
    """Conventional exit status for the interrupt that just unwound:
    143 (128+SIGTERM) when the SIGTERM handler fired, else 130
    (128+SIGINT)."""
    return 143 if _TERM_STATE["fired"] else 130
