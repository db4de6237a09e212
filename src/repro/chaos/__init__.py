"""Design-level chaos harness: verify latency-insensitivity and recovery
under injected stalls, bubbles, and state corruption.

The latency-insensitivity theorem (Section 2 of the paper) promises that
output token streams are unchanged by arbitrary channel delays; the
speculative machinery (Sections 4-5) promises recovery from wrong
guesses and — in the Figure 7 SECDED adder — corrupted state.  This
package attacks both promises on purpose:

* :mod:`repro.chaos.plan` — deterministic seed-driven
  :class:`ChaosPlan`s and :func:`wrap`/:func:`unwrap`, splicing faults
  in and out through the netlist edit log.  A fault is a splice of
  ordinary node kinds (a join with a
  :class:`~repro.elastic.environment.PermissionSource` stalls, an empty
  buffer before it adds a bubble, a join with a mask source corrupts),
  so every engine runs it with the kinds' own emitters;
* :mod:`repro.chaos.verify` — the executable oracles:
  :func:`check_stream_invariance` (differential),
  :func:`explore_invariance` (exhaustive, all interleavings), and
  :func:`run_soak` (checkpointed many-plan soak), plus the payload
  builders of the ``chaos`` job's modes;
* :mod:`repro.chaos.mutants` — intentionally broken designs pinning
  that the oracles *can* fail.
"""

from repro.chaos.mutants import (
    BrokenKillBuffer,
    LatencySensitiveBuffer,
    broken_kill_design,
    latency_sensitive_design,
)
from repro.chaos.plan import (
    FAULT_KINDS,
    ChaosFault,
    ChaosHandle,
    ChaosPlan,
    check_knobs,
    unwrap,
    wrap,
)
from repro.chaos.verify import (
    ExploreReport,
    InvarianceReport,
    check_stream_invariance,
    explore_invariance,
    plan_payload,
    run_soak,
    sink_streams,
)

__all__ = [
    "BrokenKillBuffer",
    "ChaosFault",
    "ChaosHandle",
    "ChaosPlan",
    "ExploreReport",
    "FAULT_KINDS",
    "InvarianceReport",
    "LatencySensitiveBuffer",
    "broken_kill_design",
    "check_knobs",
    "check_stream_invariance",
    "explore_invariance",
    "latency_sensitive_design",
    "plan_payload",
    "run_soak",
    "sink_streams",
    "unwrap",
    "wrap",
]
