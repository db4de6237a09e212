"""Verification: explicit-state model checking of elastic controllers with
nondeterministic environments (the role NuSMV plays in Section 4.2),
deadlock detection, scheduler leads-to (starvation) analysis and transfer
equivalence checking.

The exports load on first use (PEP 562): the runtime monitor and every
compiled netlist import the SELF rule table :mod:`repro.verif.properties`,
which must not pull in the model checker with it.
"""

import importlib

#: export -> the submodule defining it
_EXPORTS = {
    "StateExplorer": "explore",
    "ExplorationResult": "explore",
    "explore_or_raise": "explore",
    "StateCodec": "encoding",
    "find_deadlocks": "deadlock",
    "check_leads_to": "leads_to",
    "transfer_streams": "equivalence",
    "assert_transfer_equivalent": "equivalence",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
