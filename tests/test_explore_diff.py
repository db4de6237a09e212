"""Differential testing of lane-width explorations.

An exploration with ``StateExplorer(lanes=N)`` (which runs the codegen
engine) must be *bit-identical* to the default ``lanes=1`` BFS: same
states in the same discovery order, the same transition list (and
therefore the same multiset), the same violation strings, the same
completeness verdict, and the same deadlock / leads-to conclusions.  These tests fuzz random
nondeterministic-environment netlists across lane widths (the acceptance
floor is 20 fuzz cases), pin the paper-style compositions — the fig1d
speculative core, fig6-style variable-latency traffic (kills through a
ZBL chain) and fig7-style repair scheduling — and cover the ``max_states``
cap and lane-width edge cases.
"""

import random

import pytest

from repro.core.scheduler import (
    NondetScheduler,
    RepairScheduler,
    StaticScheduler,
    ToggleScheduler,
)
from repro.elastic.buffers import ElasticBuffer, ZeroBackwardLatencyBuffer
from repro.elastic.environment import (
    NondetChoiceSource,
    NondetSink,
    NondetSource,
)
from repro.elastic.functional import Func
from repro.netlist import patterns
from repro.netlist.graph import Netlist
from repro.verif.deadlock import find_deadlocks
from repro.verif.explore import StateExplorer
from repro.verif.leads_to import check_leads_to

#: fuzzed netlist/lane-width combos (acceptance floor: 20).
N_FUZZ_COMBOS = 24


def build_mc_pipeline(stages, can_kill):
    """Nondet source -> random eb/zbl/func chain -> nondet sink."""
    net = Netlist("mcfuzz")
    net.add(NondetSource("src"))
    prev = "src.o"
    for i, kind in enumerate(stages):
        name = f"n{i}"
        if kind == "eb":
            net.add(ElasticBuffer(name))
            port = f"{name}.i"
        elif kind == "zbl":
            net.add(ZeroBackwardLatencyBuffer(name))
            port = f"{name}.i"
        else:
            net.add(Func(name, lambda x: x + 1))
            port = f"{name}.i0"
        net.connect(prev, port, name=f"c{i}")
        prev = f"{name}.o"
    net.add(NondetSink("snk", can_kill=can_kill))
    net.connect(prev, "snk.i", name="out")
    net.validate()
    return net


def assert_explorations_identical(make_net, lanes, max_states=100000):
    """Explore scalar and lane-batched; compare everything observable."""
    scalar = StateExplorer(make_net(), max_states=max_states).explore()
    batched = StateExplorer(make_net(), max_states=max_states,
                            lanes=lanes).explore()
    # List equality pins discovery order, which subsumes the set/multiset
    # acceptance criteria (state set, transition multiset).
    assert scalar.states == batched.states
    assert scalar.transitions == batched.transitions
    assert scalar.violations == batched.violations
    assert scalar.complete == batched.complete
    assert scalar.channel_names == batched.channel_names
    assert find_deadlocks(scalar) == find_deadlocks(batched)
    return scalar, batched


def _fuzz_combo(seed):
    rng = random.Random(7_700 + seed)
    stages = [rng.choice(["eb", "zbl", "func"])
              for _ in range(rng.randint(1, 3))]
    can_kill = rng.random() < 0.5
    lanes = rng.choice([2, 3, 4, 5, 8, 16])
    # A third of the combos cap the state space mid-exploration, so the
    # truncated-graph agreement is fuzzed too, not just the happy path.
    max_states = rng.choice([150, 400, 100000])
    return stages, can_kill, lanes, max_states


class TestFuzzedExplorations:
    @pytest.mark.parametrize("seed", range(N_FUZZ_COMBOS))
    def test_batched_explorer_bit_identical(self, seed):
        stages, can_kill, lanes, max_states = _fuzz_combo(seed)
        assert_explorations_identical(
            lambda: build_mc_pipeline(stages, can_kill),
            lanes, max_states=max_states,
        )


class TestPaperDesigns:
    def test_fig1d_style_speculative_core(self):
        """The fig1d speculation core (shared unit + scheduler + EE mux)
        under fully nondeterministic prediction."""
        scalar, _ = assert_explorations_identical(
            lambda: patterns.speculative_mc(NondetScheduler(2))[0], lanes=8)
        assert scalar.violations == []
        assert scalar.complete

    def test_fig6_style_kill_traffic(self):
        """fig6-style variable-latency traffic: replay kills flow backward
        through a ZBL chain behind the speculative unit."""
        scalar, batched = assert_explorations_identical(
            lambda: patterns.speculative_mc(
                ToggleScheduler(2), n_zbl=2, can_kill_sink=True)[0],
            lanes=16)
        for result in (scalar, batched):
            ok0, _ = check_leads_to(result, "fin0", "fout0")
            ok1, _ = check_leads_to(result, "fin1", "fout1")
            assert ok0 and ok1

    def test_fig7_style_repair_scheduler(self):
        """fig7-style resilience scheduling: the repair scheduler's
        misprediction correction, explored both ways."""
        scalar, batched = assert_explorations_identical(
            lambda: patterns.speculative_mc(RepairScheduler(2), n_zbl=1)[0],
            lanes=8)
        assert scalar.violations == []

    def test_broken_scheduler_verdict_matches(self):
        """A leads-to *violation* (static scheduler without repair) must be
        found — with the same starving lasso — by both engines."""
        scalar, batched = assert_explorations_identical(
            lambda: patterns.speculative_mc(
                StaticScheduler(2, favourite=0, repair=False))[0],
            lanes=8)
        verdict_scalar = check_leads_to(scalar, "fin1", "fout1")
        verdict_batched = check_leads_to(batched, "fin1", "fout1")
        assert verdict_scalar == verdict_batched
        assert verdict_scalar[0] is False
        assert verdict_scalar[1]


class TestLaneEdgeCases:
    def test_more_lanes_than_transitions(self):
        """A tiny state space with a huge lane width: almost every chunk is
        mostly padding."""
        assert_explorations_identical(
            lambda: build_mc_pipeline(["eb"], can_kill=False), lanes=64)

    @pytest.mark.parametrize("lanes", [2, 3, 5, 7])
    def test_odd_lane_widths(self, lanes):
        assert_explorations_identical(
            lambda: build_mc_pipeline(["zbl", "eb"], can_kill=True),
            lanes=lanes)

    def test_cap_hits_mid_chunk(self):
        """The cap lands inside a lane chunk: both engines must truncate at
        exactly the same state and keep the same residual transitions."""
        for cap in (7, 33, 101):
            scalar, batched = assert_explorations_identical(
                lambda: build_mc_pipeline(["eb", "zbl"], can_kill=True),
                lanes=8, max_states=cap)
            assert not scalar.complete
            assert scalar.n_states == cap

    def test_lanes_reject_scalar_engines(self):
        net = build_mc_pipeline(["eb"], can_kill=False)
        with pytest.raises(ValueError, match="implies the codegen engine"):
            StateExplorer(net, lanes=4, engine="worklist")
        with pytest.raises(ValueError, match="lanes must be >= 1"):
            StateExplorer(net, lanes=0)
