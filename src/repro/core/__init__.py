"""The paper's primary contribution: speculation in elastic systems.

* :mod:`repro.core.scheduler` — prediction strategies for shared modules
  (Section 4.1.1) including the mispredict-repair behaviour of Table 1;
* :mod:`repro.core.shared` — the shared elastic module and its controller
  (Figure 4);
* :mod:`repro.core.speculation` — the four-step correct-by-construction
  speculation pipeline of Section 4.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".scheduler": ("Scheduler", "SchedulerFeedback", "StaticScheduler",
                   "ToggleScheduler", "RoundRobinScheduler",
                   "RepairScheduler", "PrimaryScheduler",
                   "LastGrantScheduler", "TwoBitScheduler",
                   "OracleScheduler", "RandomScheduler", "NondetScheduler"),
    ".shared": ("SharedModule",),
    ".speculation": ("speculate", "SpeculationReport"),
})
