"""repro.serve — a fault-tolerant persistent job service.

The interactive CLI pays a full process start (imports, design builds,
engine warm-up) per invocation and forgets every result.  This package
keeps one long-lived server per *root* directory instead:

* :class:`~repro.serve.server.JobServer` — asyncio service speaking a
  length-prefixed JSON protocol over a unix socket or localhost TCP;
  ``sweep`` / ``verify`` / ``measure`` / ``lint`` / ``chaos`` jobs (the
  code the matching CLI subcommands run in-process) run serially on a
  worker thread with bounded admission, per-job deadlines, cooperative
  cancellation at checkpoint boundaries, seeded-jitter retries and
  poison-job quarantine.
* :class:`~repro.serve.cache.ResultCache` — content-addressed results
  (SHA-256 over the design's canonical encoding + job config), verified
  on every read, LRU-bounded; repeats are served without recomputation.
* :class:`~repro.serve.journal.JobJournal` — write-ahead record of every
  accepted job; a SIGKILLed server restarts, re-enqueues the pending
  jobs and finishes them from their checkpoints with byte-identical
  results.
* :class:`~repro.serve.client.ServeClient` — the blocking client behind
  ``python -m repro submit``.

Use ``python -m repro serve ROOT`` / ``python -m repro submit --root
ROOT ...`` from the command line.

The exports load on first use (:mod:`repro._lazy`), and the modules keep
their layers apart: :mod:`~repro.serve.client` imports only the wire
protocol and the error types, so ``repro submit`` loads neither asyncio
nor the job code, and the server imports a job kind's layer
(simulation, model checking, lint, sweeps) when the first job of that
kind runs, not at start-up.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".cache": ("ResultCache",),
    ".client": ("ServeClient", "wait_for_endpoint"),
    ".jobs": ("JOB_KINDS", "job_key", "run_job", "validate_job"),
    ".journal": ("JobJournal",),
    ".server": ("JobServer", "serve_forever"),
})
