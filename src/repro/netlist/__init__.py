"""Elastic netlists: the abstract design representation of the paper's
exploration toolkit — "a collection of modules and FIFOs connected by
elastic channels" (Section 5)."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".graph": ("Netlist",),
    ".edits": ("NetlistEdit",),
    ".dot": ("to_dot",),
})
