"""Technology modelling: a toy 65 nm-style gate library, a structural gate
IR with evaluation / area / delay analysis, and helpers to estimate elastic
controller overheads."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".library": ("TechLibrary", "GateSpec", "DEFAULT_TECH"),
    ".gates": ("GateNetlist", "Gate"),
})
