"""Cycle-accurate simulation of elastic netlists: combinational fix-point
evaluation, clocking, SELF protocol monitors, trace capture and statistics."""

from repro.sim.engine import (
    ENGINES,
    Simulator,
    get_default_engine,
    set_default_engine,
)
from repro.sim.monitors import ProtocolMonitor
from repro.sim.sensitivity import topology_signature
from repro.sim.trace import TraceRecorder, format_trace_table
from repro.sim.stats import ChannelStats
from repro.sim.profile import ProfileReport, format_profile, profile_run

__all__ = [
    "ENGINES",
    "Simulator",
    "topology_signature",
    "get_default_engine",
    "set_default_engine",
    "ProtocolMonitor",
    "TraceRecorder",
    "format_trace_table",
    "ChannelStats",
    "ProfileReport",
    "format_profile",
    "profile_run",
]
