"""Shared test utilities: tiny harness netlists around single nodes."""

from __future__ import annotations

from repro.elastic.buffers import ElasticBuffer
from repro.elastic.environment import KillerSink, ListSource, Sink
from repro.netlist.graph import Netlist
from repro.sim.engine import Simulator
from repro.sim.stats import TransferLog


def single_node_net(node, in_values=None, stall_rate=0.0, seed=0, kill_rate=None):
    """source -> node -> sink around a 1-in/1-out node."""
    net = Netlist(f"harness_{node.name}")
    net.add(node)
    net.add(ListSource("src", list(in_values or [])))
    if kill_rate is None:
        net.add(Sink("snk", stall_rate=stall_rate, seed=seed))
    else:
        net.add(KillerSink("snk", kill_rate=kill_rate, stall_rate=stall_rate, seed=seed))
    net.connect("src.o", (node.name, node.in_ports[0]), name="in")
    net.connect((node.name, node.out_ports[0]), "snk.i", name="out")
    net.validate()
    return net


def run(net, cycles, observers=(), check_protocol=True):
    sim = Simulator(net, observers=list(observers), check_protocol=check_protocol)
    sim.run(cycles)
    return sim


def sink_values(net, name="snk"):
    return net.nodes[name].values


def eb_between(name="eb", init=(), capacity=2, **kwargs):
    return ElasticBuffer(name, init=init, capacity=capacity, **kwargs)


def transfers_on(net, cycles, channels):
    """Run and return the forward-transfer value streams of ``channels``."""
    log = TransferLog(channels)
    run(net, cycles, observers=[log])
    return {name: log.values(name) for name in channels}


class DenseSweepSimulator(Simulator):
    """The reference fix-point of the differential suites: a dense sweep.

    Each pass clears the change log and calls every live node's ``comb()``
    in declaration order; the cycle's fix-point is reached when a pass
    appends nothing to the log.  No iteration bound is needed: every pass
    but the last records at least one of the finitely many
    ``unknown -> known`` signal transitions.  Everything around the
    fix-point (monitor, statistics, observers, edit following, reset,
    ownership) is the worklist :class:`Simulator` shell, whose sensitivity
    tables this class never consults.  ``engine`` is accepted so the class
    can stand in for :class:`Simulator` where a caller passes one; it may
    only name the shell.
    """

    def __init__(self, netlist, engine=None, **kwargs):
        assert engine in (None, "worklist"), engine
        super().__init__(netlist, engine="worklist", **kwargs)

    def _fixpoint(self):
        for channel in self._channels:
            channel.clear_cycle()
        log = self._log
        while True:
            log.clear()
            for node in self._nodes:
                node.comb()
            if not log:
                break
        self._check_resolved()
