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
"""

from repro.serve.cache import ResultCache
from repro.serve.client import ServeClient, wait_for_endpoint
from repro.serve.jobs import JOB_KINDS, job_key, run_job, validate_job
from repro.serve.journal import JobJournal
from repro.serve.server import JobServer, serve_forever

__all__ = [
    "JOB_KINDS",
    "JobJournal",
    "JobServer",
    "ResultCache",
    "ServeClient",
    "job_key",
    "run_job",
    "serve_forever",
    "validate_job",
    "wait_for_endpoint",
]
