"""Verification: explicit-state model checking of elastic controllers with
nondeterministic environments (the role NuSMV plays in Section 4.2),
deadlock detection, scheduler leads-to (starvation) analysis and transfer
equivalence checking.

The exports load on first use, like every ``repro`` package's (PEP 562,
:mod:`repro._lazy`): the runtime monitor and every compiled netlist
import the SELF rule table :mod:`repro.verif.properties`, which must not
pull in the model checker with it.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".explore": ("StateExplorer", "ExplorationResult", "explore_or_raise"),
    ".encoding": ("StateCodec",),
    ".deadlock": ("find_deadlocks",),
    ".leads_to": ("check_leads_to",),
    ".equivalence": ("transfer_streams", "assert_transfer_equivalent"),
})
