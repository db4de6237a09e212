"""Crash-safe job journal: what was accepted and is not finished yet.

The journal is the server's write-ahead log.  A job is journaled
``submitted`` *before* its acceptance is acknowledged to the client, and
journaled terminal (``done`` / ``failed`` / ``cancelled``) only after
its outcome is durable.  A server killed at any instant therefore
restarts into exactly one of two states per job: *not accepted* (the
client never got an acceptance either) or *accepted with a known
outcome-or-pending status* — :meth:`pending` lists the accepted jobs
with no terminal record, and the server re-enqueues them on startup.
Combined with each job's own checkpoint file, a SIGKILLed sweep resumes
mid-grid and completes with byte-identical results.

Physically the journal is one checkpoint-format file rewritten
atomically per append (temp file + fsync + rename + directory fsync via
:func:`~repro.runtime.checkpoint.save_checkpoint`), and it inherits the
checksum verification — a torn or corrupted journal fails loudly on load
instead of silently replaying half a history.  A terminal append
compacts it: the file keeps only the pending jobs' ``submitted`` records
and one ``high_water`` record holding the highest job id journaled, so
it never holds more than the admission queue plus one record, and an
append costs the same after ten jobs as after ten thousand.  A journal
written before compaction existed (the same ``journal-v1`` format, with
every terminal record kept) loads as it is and compacts at its first
terminal append.

Appends pass through ``fault_point("serve_journal", event)`` *before*
mutating in-memory state, so an injected journal failure leaves the
journal and the record list consistent (the record simply never
happened) and the server degrades per call site: a failed ``submitted``
append rejects the job, a failed terminal append still delivers the
result with a warning.
"""

from __future__ import annotations

from repro.runtime.checkpoint import load_checkpoint, save_checkpoint
from repro.runtime.faults import fault_point

_KIND = "serve-journal"
_KEY = "journal-v1"

#: events that end a job's lifecycle (anything journaled ``submitted``
#: without one of these is pending and re-enqueued on restart)
TERMINAL_EVENTS = ("done", "failed", "cancelled")

#: the record a compacted journal keeps the highest job id in
HIGH_WATER = "high_water"


class JobJournal:
    """Job journal backed by one atomic checkpoint file: the accepted,
    unfinished jobs and the highest job id ever journaled."""

    def __init__(self, path):
        self.path = path
        #: the file's records: ``submitted`` ones, then (once a job has
        #: finished) a ``high_water`` one; a journal from before
        #: compaction also holds terminal records until its next one
        self.records = []

    def load(self):
        """Read the journal back; loud
        :class:`~repro.errors.CheckpointError` on corruption, empty
        history when the file does not exist.  Returns ``self``."""
        body = load_checkpoint(self.path, _KIND, _KEY)
        self.records = list(body["records"]) if body else []
        return self

    def append(self, event, job_id, key=None, spec=None, **extra):
        """Durably journal one record; returns it.

        A terminal record is not kept: it removes its job's ``submitted``
        record and every other finished job's, and raises the
        ``high_water`` record to cover ``job_id``.  The fault point fires
        before any state changes, and the in-memory list changes only
        after the save — an append either fully happened or fully
        didn't.
        """
        fault_point("serve_journal", event)
        record = {"event": event, "job": job_id}
        if key is not None:
            record["key"] = key
        if spec is not None:
            record["spec"] = spec
        record.update(extra)
        if event in TERMINAL_EVENTS:
            high = str(max(self.max_job_id(), _job_number(job_id)))
            records = [r for r in self._pending_records()
                       if r["job"] != job_id]
            records.append({"event": HIGH_WATER, "job": high})
        else:
            records = self.records + [record]
        save_checkpoint(self.path, _KIND, _KEY, {"records": records},
                        codec="json")
        self.records = records
        return record

    def _pending_records(self):
        """The ``submitted`` records no terminal record follows."""
        finished = {r["job"] for r in self.records
                    if r["event"] in TERMINAL_EVENTS}
        return [r for r in self.records
                if r["event"] == "submitted" and r["job"] not in finished]

    def pending(self):
        """Accepted-but-unfinished jobs, in submission order: a list of
        ``(job_id, key, spec)`` tuples."""
        return [(r["job"], r.get("key"), r.get("spec"))
                for r in self._pending_records()]

    def max_job_id(self):
        """Highest numeric job id journaled (0 when empty) — restart
        continues the id sequence instead of reusing live ids."""
        return max((_job_number(r.get("job")) for r in self.records),
                   default=0)


def _job_number(job_id):
    """A job id's number (the server numbers jobs; 0 for any other id)."""
    try:
        return int(job_id)
    except (TypeError, ValueError):
        return 0
