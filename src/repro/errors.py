"""Exception hierarchy for the elastic-systems framework.

Every error raised by the library derives from :class:`ElasticError` so that
callers can catch framework failures without masking programming errors.
"""


class ElasticError(Exception):
    """Base class for all errors raised by this library."""


class NetlistError(ElasticError):
    """Structural problem in an elastic netlist (bad connection, dangling
    port, duplicate name, ...)."""


class CombinationalLoopError(ElasticError):
    """The combinational fix-point did not resolve: a genuine combinational
    cycle exists in the control (or datapath) network.

    The paper warns about exactly this hazard when chaining too many
    zero-backward-latency buffers (Section 4.3).
    """

    def __init__(self, unresolved, cycle=None):
        self.unresolved = tuple(unresolved)
        self.cycle = cycle
        names = ", ".join(self.unresolved[:12])
        more = "" if len(self.unresolved) <= 12 else f" (+{len(self.unresolved) - 12} more)"
        super().__init__(
            f"combinational fix-point left {len(self.unresolved)} signal(s) "
            f"unresolved at cycle {cycle}: {names}{more}"
        )


class SignalConflictError(ElasticError):
    """A node attempted to overwrite an already-resolved signal with a
    different value during fix-point evaluation (non-monotone update)."""


class ProtocolViolationError(ElasticError):
    """A SELF protocol property (Retry+, Retry-, Invariant) was violated on
    some channel.  Raised by the runtime monitors of :mod:`repro.sim.monitors`."""

    def __init__(self, prop, channel, cycle, detail=""):
        self.prop = prop
        self.channel = channel
        self.cycle = cycle
        msg = f"protocol property {prop} violated on channel '{channel}' at cycle {cycle}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class TransformError(ElasticError):
    """A correct-by-construction transformation could not be applied to the
    given netlist (precondition not met)."""


class VerificationError(ElasticError):
    """A verification run (model checking, equivalence, leads-to) found a
    counterexample or failed to complete."""


class SchedulerError(ElasticError):
    """A scheduler produced an illegal prediction (out of range channel)."""


class BackendError(ElasticError):
    """A back-end (Verilog / SMV / BLIF) could not emit the given design."""


class LintError(ElasticError):
    """Static analysis found diagnostics at or above the requested
    ``fail_on`` severity.  Carries the full :class:`repro.lint.LintReport`
    as :attr:`report` so callers (the transform session's
    ``lint_after_transforms`` hook, the CLI) can render every finding, not
    just the first."""

    def __init__(self, report):
        self.report = report
        worst = report.errors or report.warnings
        head = "; ".join(str(d) for d in worst[:3])
        more = "" if len(worst) <= 3 else f" (+{len(worst) - 3} more)"
        super().__init__(
            f"lint found {len(report.errors)} error(s), "
            f"{len(report.warnings)} warning(s): {head}{more}"
        )


class ServeError(ElasticError):
    """A job-service failure (:mod:`repro.serve`): protocol violation on the
    wire, malformed or unknown job spec, journal trouble — anything the
    server turns into a structured error event instead of a dead
    connection."""


class JobRejected(ServeError):
    """The admission controller refused a job: the bounded queue is full or
    the server is draining.  Structured backpressure — the client is told
    the queue depth and can retry later — never a hang or a dropped
    connection."""

    def __init__(self, detail, queue_depth=None, max_queue=None):
        self.queue_depth = queue_depth
        self.max_queue = max_queue
        super().__init__(detail)


class JobCancelled(ServeError):
    """A job was cancelled cooperatively (client cancel or server drain)
    at a checkpoint boundary — completed work is already durable in the
    job's checkpoint; nothing after the boundary ran."""


class DeadlineExceeded(JobCancelled):
    """A job blew its wall-clock deadline and was stopped at the next
    checkpoint boundary (a cancellation with a specific cause, hence the
    :class:`JobCancelled` parentage — both stop at boundaries with
    durable progress)."""


class ChaosError(ElasticError):
    """A chaos-harness failure (:mod:`repro.chaos`): a fault plan names a
    channel the design does not have, an unknown fault kind, a rate,
    coverage or budget out of range, or a wrap handle is unwound against
    the wrong netlist."""


class CheckpointError(ElasticError):
    """A checkpoint file could not be trusted: missing header, checksum
    mismatch (truncated or corrupted body), wrong kind, or a content-address
    key that does not match the job trying to resume from it.  Raised by
    :mod:`repro.runtime.checkpoint` — a corrupt checkpoint is always a loud,
    structured error, never silently loaded."""
