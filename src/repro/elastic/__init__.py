"""SELF-protocol substrate: channels, elastic buffers, forks, function
blocks, early-evaluation multiplexors and environments.

This package implements Section 3 of the paper (Synchronous Elastic Systems)
plus the early-evaluation / anti-token machinery of reference [7] that the
speculation method of Section 4 builds on.
"""

from repro.elastic.channel import Channel, ChannelState, ChannelEvents, PRODUCER, CONSUMER
from repro.elastic.node import Node, PortRole
from repro.elastic.buffers import ElasticBuffer, ZeroBackwardLatencyBuffer, bubble
from repro.elastic.fifo_model import AbstractElasticFifo
from repro.elastic.functional import Func, identity_block, const_block
from repro.elastic.fork import EagerFork
from repro.elastic.eemux import EarlyEvalMux
from repro.elastic.varlat import VariableLatencyUnit
from repro.elastic.environment import (
    ListSource,
    FunctionSource,
    PermissionSource,
    Sink,
    KillerSink,
    NondetSource,
    NondetSink,
)

__all__ = [
    "Channel",
    "ChannelState",
    "ChannelEvents",
    "PRODUCER",
    "CONSUMER",
    "Node",
    "PortRole",
    "ElasticBuffer",
    "ZeroBackwardLatencyBuffer",
    "bubble",
    "AbstractElasticFifo",
    "VariableLatencyUnit",
    "Func",
    "identity_block",
    "const_block",
    "EagerFork",
    "EarlyEvalMux",
    "ListSource",
    "FunctionSource",
    "PermissionSource",
    "Sink",
    "KillerSink",
    "NondetSource",
    "NondetSink",
]
