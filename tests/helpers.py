"""Shared test utilities: tiny harness netlists around single nodes."""

from __future__ import annotations

from repro.datapath.secded import CORRECTED, DOUBLE, OK, PARITY_FIXED
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


# -- bit-serial datapath references ------------------------------------------
#
# The functional SECDED and carry-window models in ``repro.datapath`` work
# on whole words (mask tables, popcounts, a carry recurrence).  These are
# the bit-at-a-time definitions they replaced, kept as the reference the
# differential tests pin them to, as ``DenseSweepSimulator`` is for the
# engines.  They read only ``data_bits``, ``check_bits`` and ``code_bits``
# from the code, never its tables.

def _secded_positions(code):
    positions = list(range(1, code.data_bits + code.check_bits + 1))
    data_positions = [p for p in positions if p & (p - 1)]
    check_positions = [1 << i for i in range(code.check_bits)]
    return positions, data_positions, check_positions


def reference_encode(code, data):
    positions, data_positions, check_positions = _secded_positions(code)
    data &= (1 << code.data_bits) - 1
    word = {}
    for idx, pos in enumerate(data_positions):
        word[pos] = (data >> idx) & 1
    for check_pos in check_positions:
        parity = 0
        for pos in data_positions:
            if pos & check_pos:
                parity ^= word[pos]
        word[check_pos] = parity
    encoded = 0
    for pos in positions:
        encoded |= word[pos] << (pos - 1)
    overall = bin(encoded).count("1") & 1
    encoded |= overall << (code.code_bits - 1)
    return encoded


def reference_decode(code, word):
    """``(data, status)`` of the bit-serial decoder."""
    positions, data_positions, check_positions = _secded_positions(code)
    body = word & ((1 << (code.code_bits - 1)) - 1)
    overall_bit = (word >> (code.code_bits - 1)) & 1
    syndrome = 0
    for check_pos in check_positions:
        parity = 0
        for pos in positions:
            if pos & check_pos:
                parity ^= (body >> (pos - 1)) & 1
        if parity:
            syndrome |= check_pos
    parity_all = (bin(body).count("1") + overall_bit) & 1
    if syndrome == 0 and parity_all == 0:
        status = OK
    elif syndrome != 0 and parity_all == 1:
        body ^= 1 << (syndrome - 1)
        status = CORRECTED
    elif syndrome == 0 and parity_all == 1:
        status = PARITY_FIXED
    else:
        status = DOUBLE
    data = 0
    for idx, pos in enumerate(data_positions):
        data |= ((body >> (pos - 1)) & 1) << idx
    return data, status


def reference_decode_raw(code, word):
    _positions, data_positions, _checks = _secded_positions(code)
    data = 0
    for idx, pos in enumerate(data_positions):
        data |= ((word >> (pos - 1)) & 1) << idx
    return data


def reference_approx_add(a, b, width, window):
    mask = (1 << width) - 1
    a &= mask
    b &= mask
    result = 0
    for i in range(width):
        lo = max(0, i - window)
        # carry into bit i from the window [lo, i), assuming 0 into lo
        span = ((1 << i) - 1) & ~((1 << lo) - 1)
        carry = ((a & span) + (b & span)) >> i & 1
        result |= (((a >> i) ^ (b >> i) ^ carry) & 1) << i
    return result


def reference_approx_error(a, b, width, window):
    p = (a ^ b) & ((1 << width) - 1)
    run = 0
    for i in range(width):
        if (p >> i) & 1:
            run += 1
            if run >= window:
                return 1
        else:
            run = 0
    return 0
