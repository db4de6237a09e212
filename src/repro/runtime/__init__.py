"""repro.runtime — resilience primitives for long-running jobs.

The compute layer under the design-space sweeps
(:func:`~repro.perf.sweep.run_sweep`) and the explicit-state explorer
(:class:`~repro.verif.explore.StateExplorer`): process supervision with
timeout / retry / respawn (:mod:`~repro.runtime.supervisor`), atomic
checksummed content-addressed checkpoints
(:mod:`~repro.runtime.checkpoint`), a deterministic fault-injection
harness (:mod:`~repro.runtime.faults`) that makes every recovery path
differentially testable against an unfaulted run, and the shared
job-control plumbing (:mod:`~repro.runtime.control`): cooperative
cancellation / deadlines at checkpoint boundaries, the retry policy
and SIGTERM-parity signal handling.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".checkpoint": ("atomic_write_bytes", "atomic_write_text", "content_key",
                    "load_checkpoint", "save_checkpoint"),
    ".control": ("JobControl", "RetryPolicy", "install_term_handler",
                 "interrupt_exit_code", "jittered_backoff", "task_key",
                 "term_signal_fired"),
    ".faults": ("Fault", "FaultPlan", "InjectedFault", "corrupt_checkpoint",
                "fault_point", "install_plan"),
    ".supervisor": ("Supervisor", "SupervisorStats", "TaskFailure",
                    "usable_cpus"),
})
