"""Unit tests for the eager fork (per-branch completion + kill counters)."""

import pytest

from repro.elastic.buffers import ElasticBuffer
from repro.elastic.environment import KillerSink, ListSource, Sink
from repro.elastic.fork import EagerFork
from repro.netlist.graph import Netlist

from helpers import run


def fork_net(values, n=2, sink_kinds=None, stall_rates=None, seed=0):
    net = Netlist("t")
    net.add(EagerFork("fork", n_outputs=n))
    net.add(ListSource("src", list(values)))
    net.connect("src.o", "fork.i", name="in")
    sink_kinds = sink_kinds or ["sink"] * n
    stall_rates = stall_rates or [0.0] * n
    for k in range(n):
        if sink_kinds[k] == "sink":
            net.add(Sink(f"s{k}", stall_rate=stall_rates[k], seed=seed + k))
        else:
            net.add(KillerSink(f"s{k}", kill_rate=stall_rates[k], seed=seed + k))
        net.connect(f"fork.o{k}", f"s{k}.i", name=f"out{k}")
    net.validate()
    return net


class TestBasics:
    def test_rejects_zero_outputs(self):
        with pytest.raises(ValueError):
            EagerFork("f", n_outputs=0)

    def test_copies_to_all_branches(self):
        net = fork_net([1, 2, 3], n=3)
        run(net, 6)
        for k in range(3):
            assert net.nodes[f"s{k}"].values == [1, 2, 3]

    def test_zero_latency_passthrough(self):
        net = fork_net([5], n=2)
        run(net, 3)
        assert net.nodes["s0"].received == [(0, 5)]
        assert net.nodes["s1"].received == [(0, 5)]


class TestEagerness:
    def test_fast_branch_not_blocked_by_slow_branch(self):
        """Eager fork: branch 0 takes its copy while branch 1 stalls; the
        token is consumed only when both are served."""
        net = fork_net([1, 2], n=2, stall_rates=[0.0, 1.0])
        run(net, 6)
        assert net.nodes["s0"].values == [1]      # got its copy of token 1
        assert net.nodes["s1"].values == []       # still stalling
        assert net.nodes["src"].emitted == 0      # token 1 not fully consumed

    def test_duplicate_free_delivery_under_stalls(self):
        values = list(range(15))
        net = fork_net(values, n=2, stall_rates=[0.6, 0.3], seed=9)
        run(net, 150)
        assert net.nodes["s0"].values == values
        assert net.nodes["s1"].values == values


class TestKills:
    def test_branch_kill_absorbed_locally(self):
        """A kill on one branch destroys only that branch's copy."""
        net = fork_net([1, 2, 3], n=2, sink_kinds=["killer", "sink"],
                       stall_rates=[1.0, 0.0])
        run(net, 10)
        assert net.nodes["s0"].values == []        # killed copies
        assert net.nodes["s1"].values == [1, 2, 3]  # untouched branch

    def test_kill_rate_mix(self):
        values = list(range(20))
        net = fork_net(values, n=2, sink_kinds=["killer", "sink"],
                       stall_rates=[0.4, 0.0], seed=2)
        run(net, 120)
        survivors = net.nodes["s0"].values
        assert net.nodes["s1"].values == values
        # Branch-0 survivors are an ordered subsequence of the input.
        it = iter(values)
        assert all(any(v == w for w in it) for v in survivors)

    def test_three_way_fork_with_one_killer(self):
        values = list(range(10))
        net = fork_net(values, n=3, sink_kinds=["sink", "killer", "sink"],
                       stall_rates=[0.0, 1.0, 0.0])
        run(net, 40)
        assert net.nodes["s0"].values == values
        assert net.nodes["s1"].values == []
        assert net.nodes["s2"].values == values


class TestStateRoundtrip:
    def test_snapshot_restore(self):
        fork = EagerFork("f", n_outputs=2)
        fork.reset()
        snap = fork.snapshot()
        fork._served = (True, False)
        fork._kills = (0, 2)
        fork.restore(snap)
        assert fork._served == (False, False)
        assert fork._kills == (0, 0)
