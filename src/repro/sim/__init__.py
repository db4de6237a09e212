"""Cycle-accurate simulation of elastic netlists: combinational fix-point
evaluation, clocking, SELF protocol monitors, trace capture and statistics."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".engine": ("ENGINES", "Simulator", "get_default_engine",
                "set_default_engine"),
    ".sensitivity": ("topology_signature",),
    ".monitors": ("ProtocolMonitor",),
    ".trace": ("TraceRecorder", "format_trace_table"),
    ".stats": ("ChannelStats",),
    ".profile": ("ProfileReport", "format_profile", "profile_run"),
})
