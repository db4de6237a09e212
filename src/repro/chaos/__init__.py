"""Design-level chaos harness: verify latency-insensitivity and recovery
under injected stalls, bubbles, and state corruption.

The latency-insensitivity theorem (Section 2 of the paper) promises that
output token streams are unchanged by arbitrary channel delays; the
speculative machinery (Sections 4-5) promises recovery from wrong
guesses and — in the Figure 7 SECDED adder — corrupted state.  This
package attacks both promises on purpose:

* :mod:`repro.chaos.saboteurs` — fault-injection node kinds
  (:class:`StallInjector`, :class:`BubbleInjector`,
  :class:`StateCorruptor`), implemented for every engine;
* :mod:`repro.chaos.plan` — deterministic seed-driven
  :class:`ChaosPlan`s and :func:`wrap`/:func:`unwrap`, splicing
  saboteurs in and out through the netlist edit log;
* :mod:`repro.chaos.verify` — the executable oracles:
  :func:`check_stream_invariance` (differential),
  :func:`explore_invariance` (exhaustive, all interleavings), and
  :func:`run_soak` (checkpointed many-plan soak);
* :mod:`repro.chaos.mutants` — intentionally broken designs pinning
  that the oracles *can* fail.

Importing this package also registers the saboteurs' codegen emitters
with :mod:`repro.backend.pysim`.
"""

from repro.chaos.mutants import (
    BrokenKillBuffer,
    LatencySensitiveBuffer,
    broken_kill_design,
    latency_sensitive_design,
)
from repro.chaos.plan import ChaosFault, ChaosHandle, ChaosPlan, unwrap, wrap
from repro.chaos.saboteurs import (
    SABOTEUR_KINDS,
    BubbleInjector,
    StallInjector,
    StateCorruptor,
)
from repro.chaos.verify import (
    ExploreReport,
    InvarianceReport,
    check_stream_invariance,
    explore_invariance,
    run_soak,
    sink_streams,
)

__all__ = [
    "BrokenKillBuffer",
    "BubbleInjector",
    "ChaosFault",
    "ChaosHandle",
    "ChaosPlan",
    "ExploreReport",
    "InvarianceReport",
    "LatencySensitiveBuffer",
    "SABOTEUR_KINDS",
    "StallInjector",
    "StateCorruptor",
    "broken_kill_design",
    "check_stream_invariance",
    "explore_invariance",
    "latency_sensitive_design",
    "run_soak",
    "sink_streams",
    "unwrap",
    "wrap",
]
