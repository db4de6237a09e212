"""Back-ends of the exploration toolkit (Section 5): "it is possible to
generate a Verilog netlist of the elastic controller, a blif model for
logic synthesis with SIS or a NuSMV model for verification".

:mod:`repro.backend.pysim` is the fourth code generator in the family:
instead of targeting an external tool it elaborates the netlist into a
specialized Python simulation module (the ``engine="codegen"`` backend
of :class:`repro.sim.engine.Simulator`).  It is intentionally *not*
imported here — the simulation back-end must stay importable without
pulling the export back-ends, and vice versa; use
``from repro.backend import pysim`` directly."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".verilog": ("to_verilog",),
    ".smv": ("to_smv",),
    ".blif": ("to_blif", "parse_blif"),
})
