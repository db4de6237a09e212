"""SELF-protocol substrate: channels, elastic buffers, forks, function
blocks, early-evaluation multiplexors and environments.

This package implements Section 3 of the paper (Synchronous Elastic Systems)
plus the early-evaluation / anti-token machinery of reference [7] that the
speculation method of Section 4 builds on.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".channel": ("Channel", "ChannelState", "ChannelEvents", "PRODUCER",
                 "CONSUMER"),
    ".node": ("Node", "PortRole"),
    ".buffers": ("ElasticBuffer", "ZeroBackwardLatencyBuffer", "bubble"),
    ".fifo_model": ("AbstractElasticFifo",),
    ".varlat": ("VariableLatencyUnit",),
    ".functional": ("Func", "identity_block", "const_block"),
    ".fork": ("EagerFork",),
    ".eemux": ("EarlyEvalMux",),
    ".environment": ("ListSource", "FunctionSource", "PermissionSource",
                     "Sink", "KillerSink", "NondetSource", "NondetSink"),
})
