"""Package exports that load on first use (PEP 562).

Every ``repro`` package ``__init__`` names its exports in a table instead
of importing them, so a process pays only for the layers it runs: ``import
repro.serve.client`` loads no simulator, a serial sweep loads no
``multiprocessing``.  A package does::

    from repro._lazy import lazy_exports

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        ".engine": ("Simulator", "set_default_engine"),
        ".trace": ("TraceRecorder", "format_trace_table"),
    })

The first ``package.Simulator`` (or ``from package import Simulator``)
imports ``package.engine`` and binds the name in the package, so later
lookups never reach ``__getattr__``.  A submodule name that is not an
export (``repro.sim.batch``, ``repro.netlist``) is imported on access
too, as an eager ``__init__`` used to leave it bound; any other name
raises :class:`AttributeError`.
"""

import importlib
import importlib.util
import sys


def lazy_exports(package, exports):
    """``(__getattr__, __dir__, __all__)`` for ``package`` (its
    ``__name__``) from ``exports``: the module each export is defined in,
    relative to ``package`` as in a relative import (``".engine"``,
    ``"..errors"``), mapped to the names the package re-exports from it."""
    where = {name: importlib.util.resolve_name(module, package)
             for module, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name):
        module = where.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module), name)
        elif not name.startswith("__") and importlib.util.find_spec(
                f"{package}.{name}") is not None:
            value = importlib.import_module(f"{package}.{name}")
        else:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(where))

    return __getattr__, __dir__, list(where)
