"""Verification: explicit-state model checking of elastic controllers with
nondeterministic environments (the role NuSMV plays in Section 4.2),
deadlock detection, scheduler leads-to (starvation) analysis and transfer
equivalence checking."""

from repro.verif.explore import StateExplorer, ExplorationResult, explore_or_raise
from repro.verif.encoding import StateCodec
from repro.verif.deadlock import find_deadlocks
from repro.verif.leads_to import check_leads_to
from repro.verif.equivalence import transfer_streams, assert_transfer_equivalent

__all__ = [
    "StateExplorer",
    "ExplorationResult",
    "explore_or_raise",
    "StateCodec",
    "find_deadlocks",
    "check_leads_to",
    "transfer_streams",
    "assert_transfer_equivalent",
]
