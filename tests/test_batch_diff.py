"""Differential testing of lane-width requests (``lanes=N``).

``lanes=N`` with ``N > 1`` asks for the codegen engine
(:func:`repro.sim.engine.lanes_engine`), one configuration at a time.
Every configuration of an N-wide request must be *bit-identical* to
running it in its own worklist simulator: same per-channel transfer
streams (values and cycles), same full :class:`ChannelStats`, same sink
streams, same combinational-loop diagnostics, same protocol verdicts.
These tests fuzz random same-topology pipelines with per-configuration
parameter variations and compare them one by one, plus the canned paper
designs and the sweep backend.
"""

import random

import pytest

from repro.elastic.buffers import ElasticBuffer
from repro.elastic.environment import ListSource, Sink
from repro.elastic.functional import Func
from repro.errors import CombinationalLoopError, ProtocolViolationError
from repro.netlist import patterns
from repro.netlist.graph import Netlist
from repro.sim.sensitivity import topology_signature
from repro.sim.engine import Simulator, lanes_engine
from repro.sim.stats import TransferLog

from test_fuzz import build_pipeline

#: fuzzed netlist/lane-assignment combos (acceptance floor: 20).
N_FUZZ_COMBOS = 24


def _stats_dict(stats):
    return {
        "cycles": stats.cycles,
        "transfers": stats.transfers,
        "cancels": stats.cancels,
        "backwards": stats.backwards,
        "stalls": stats.stalls,
        "idles": stats.idles,
    }


def _observed(net, engine, cycles):
    """Everything observable of one run: statistics, every channel's
    transfer stream and the sink's received values."""
    log = TransferLog(list(net.channels))
    sim = Simulator(net, engine=engine, observers=[log])
    sim.run(cycles)
    return (
        _stats_dict(sim.stats),
        {name: log.streams[name] for name in net.channels},
        net.nodes["snk"].values if "snk" in net.nodes else None,
    )


def assert_lanes_identical(make_lane, n_lanes, cycles=250):
    """Run each configuration ``make_lane(lane)`` on the worklist engine
    and on the engine an ``n_lanes``-wide request runs, and compare
    everything observable."""
    engine = lanes_engine(n_lanes)
    for lane in range(n_lanes):
        reference = _observed(make_lane(lane), "worklist", cycles)
        assert _observed(make_lane(lane), engine, cycles) == reference


def _fuzz_combo(seed):
    """One fuzzed topology plus per-lane parameter assignments."""
    rng = random.Random(seed)
    n_stages = rng.randint(1, 6)
    stages = [rng.choice(["eb", "zbl", "func"]) for _ in range(n_stages)]
    kill = rng.random() < 0.4
    n_lanes = rng.choice([1, 2, 3, 4, 5, 8, 11])
    lane_params = [
        (rng.choice([0.0, 0.2, 0.5, 0.8]),       # stall rate
         rng.randint(0, 1000),                   # sink seed
         rng.randint(15, 30))                    # source stream length
        for _ in range(n_lanes)
    ]
    return stages, kill, lane_params


class TestFuzzedLaneAssignments:
    @pytest.mark.parametrize("seed", range(N_FUZZ_COMBOS))
    def test_lanes_bit_identical(self, seed):
        stages, kill, lane_params = _fuzz_combo(seed)

        def make_lane(lane):
            stall, sink_seed, n_values = lane_params[lane]
            return build_pipeline(stages, stall, sink_seed,
                                  list(range(n_values)), kill=kill)

        assert_lanes_identical(make_lane, len(lane_params), cycles=250)


class TestChaosSaboteurLanes:
    """Chaos-wrapped configurations: same saboteur topology each, per-lane
    injection seeds — every configuration must match its own worklist run
    bit for bit."""

    @pytest.mark.parametrize("seed", range(6))
    def test_wrapped_lanes_bit_identical(self, seed):
        from repro.chaos import ChaosFault, ChaosPlan, wrap

        rng = random.Random(seed)
        n_stages = rng.randint(1, 5)
        stages = [rng.choice(["eb", "zbl", "func"]) for _ in range(n_stages)]
        kill = rng.random() < 0.4
        channels = [f"c{i}" for i in range(n_stages)] + ["out"]
        picks = [(ch, rng.choice(["stall", "bubble", "corrupt"]))
                 for ch in channels if rng.random() < 0.6]
        if not picks:
            picks = [("out", "stall")]

        def make_lane(lane):
            net = build_pipeline(stages, 0.3, seed, list(range(20)),
                                 kill=kill)
            faults = tuple(
                ChaosFault(channel=ch, kind=kind, rate=0.3,
                           seed=seed * 31 + lane * 7 + j)
                for j, (ch, kind) in enumerate(picks))
            wrap(net, ChaosPlan(faults=faults, seed=seed))
            return net

        assert_lanes_identical(make_lane, n_lanes=4, cycles=300)


class TestPaperDesignLanes:
    def test_fig1d_lanes(self):
        def make_lane(lane):
            return patterns.fig1d(lambda g, m=lane + 1: (g // m) % 2)[0]

        assert_lanes_identical(make_lane, 4, cycles=200)

    @pytest.mark.parametrize("design", ["stalling", "speculative"])
    def test_fig6_lanes(self, design):
        from repro.perf.presets import fig6_point

        fracs = [0.0, 0.3, 0.6, 1.0, 0.45]

        def make_lane(lane):
            return fig6_point(design=design, seed=3,
                              arith_fraction=fracs[lane])[0]

        assert_lanes_identical(make_lane, len(fracs), cycles=250)


class TestLoopDiagnostics:
    def _loop_net(self):
        net = Netlist("loop")
        net.add(Func("f", lambda x: x, n_inputs=1))
        net.add(Func("g", lambda x: x, n_inputs=1))
        net.connect("f.o", "g.i0", name="a")
        net.connect("g.o", "f.i0", name="b")
        return net

    def test_loop_error_identical_to_scalar(self):
        scalar = Simulator(self._loop_net(), engine="worklist")
        with pytest.raises(CombinationalLoopError) as scalar_err:
            scalar.step()
        laned = Simulator(self._loop_net(), engine=lanes_engine(3))
        with pytest.raises(CombinationalLoopError) as lanes_err:
            laned.step()
        assert sorted(lanes_err.value.unresolved) == sorted(
            scalar_err.value.unresolved
        )
        assert lanes_err.value.cycle == scalar_err.value.cycle


class TestProtocolVerdicts:
    class WithdrawingSource(ElasticBuffer):
        """Deliberately broken: withdraws a stalled token after 2 cycles.

        Subclasses ElasticBuffer only to inherit wiring; comb is replaced
        by a protocol-violating offer, which codegen compiles.
        """

        def __init__(self, name):
            super().__init__(name, init=(1, 2))
            self._age = 0

        def comb(self):
            self.drive("o", "vp", self._age < 2)
            if self._age < 2:
                self.drive("o", "data", 7)
            self.drive("o", "sm", False)
            self.drive("i", "sp", True)
            self.drive("i", "vm", False)

        def tick(self):
            self._age += 1

    def _net(self):
        net = Netlist("broken")
        net.add(ListSource("src", []))
        net.add(self.WithdrawingSource("bad"))
        net.add(Sink("snk", stall_rate=1.0, seed=1))
        net.connect("src.o", "bad.i", name="in")
        net.connect("bad.o", "snk.i", name="out")
        return net

    def test_same_violation_as_scalar(self):
        scalar = Simulator(self._net(), engine="worklist")
        with pytest.raises(ProtocolViolationError) as scalar_err:
            scalar.run(10)
        laned = Simulator(self._net(), engine=lanes_engine(3))
        with pytest.raises(ProtocolViolationError) as lanes_err:
            laned.run(10)
        for attr in ("prop", "channel", "cycle"):
            assert getattr(lanes_err.value, attr) == getattr(
                scalar_err.value, attr
            )
        assert str(lanes_err.value) == str(scalar_err.value)


class TestBatchConstruction:
    def test_signature_ignores_sequential_parameters(self):
        def make(capacity, values):
            net = Netlist("p")
            net.add(ListSource("src", values))
            net.add(ElasticBuffer("eb", capacity=capacity))
            net.add(Sink("snk"))
            net.connect("src.o", "eb.i", name="in")
            net.connect("eb.o", "snk.i", name="out")
            return net

        assert topology_signature(make(2, [1])) == topology_signature(
            make(7, [5, 6])
        )


class TestSweepLaneBatching:
    def _spec(self):
        from repro.perf.presets import fig6_spec

        return fig6_spec(fracs=(0.0, 0.5, 1.0), windows=(3,), cycles=120,
                         warmup=40)

    def test_lanes_json_identical_to_one_lane_batch(self):
        from repro.perf.sweep import run_sweep
        from repro.runtime.faults import Fault, FaultPlan

        # Failing every configuration's first attempt retries each one on
        # the engine lanes=4 resolved to.
        plan = FaultPlan([Fault("sweep_config", kind="raise", times=1)])
        one = run_sweep(self._spec(), lanes=4, retries=1, fault_plan=plan)
        assert one.stats.retries == 6
        assert not one.failures
        many = run_sweep(self._spec(), lanes=4)
        assert many.to_json() == one.to_json()
        assert many.lanes == 4

    def test_batch_is_not_a_scalar_engine(self):
        from repro.perf.sweep import run_sweep

        with pytest.raises(ValueError, match="unknown engine 'batch'"):
            run_sweep(self._spec(), engine="batch")

    def test_lanes_rows_match_scalar_except_engine(self):
        from repro.perf.sweep import run_sweep

        scalar = run_sweep(self._spec(), engine="worklist")
        compiled = run_sweep(self._spec(), engine="codegen")
        laned = run_sweep(self._spec(), lanes=8)
        assert laned.engine == "codegen"
        assert laned.rows == compiled.rows
        for scalar_row, laned_row in zip(scalar.rows, laned.rows):
            assert laned_row["engine"] == "codegen"
            assert dict(scalar_row, engine="codegen") == laned_row

    def test_lanes_conflicting_engine_rejected(self):
        from repro.perf.sweep import run_sweep

        with pytest.raises(ValueError, match="implies the codegen engine"):
            run_sweep(self._spec(), engine="worklist", lanes=2)

    def test_bad_lane_count_rejected(self):
        from repro.perf.sweep import run_sweep

        with pytest.raises(ValueError, match="lanes"):
            run_sweep(self._spec(), lanes=0)


class TestLaneCountEdgeCases:
    def _make_lane(self, lane):
        return build_pipeline(["eb", "func", "zbl"], 0.3, lane + 5,
                              list(range(18)), kill=False)

    def test_single_lane(self):
        assert_lanes_identical(self._make_lane, 1, cycles=150)

    @pytest.mark.parametrize("n_lanes", [3, 5, 7])
    def test_non_power_of_two_lanes(self, n_lanes):
        assert_lanes_identical(self._make_lane, n_lanes, cycles=150)

    def test_more_configs_than_lanes_in_sweep(self):
        """8 same-topology configurations at lane widths 3 and 8: the
        results do not depend on the width."""
        from repro.perf.presets import fig6_lane_spec
        from repro.perf.sweep import run_sweep

        spec = fig6_lane_spec(cycles=100, warmup=30)
        three = run_sweep(spec, lanes=3)
        eight = run_sweep(spec, lanes=8)
        assert len(three.rows) == 8
        assert three.to_json() == eight.to_json()


class TestFallbackMidFixpointEvents:
    class ProbingSink(Sink):
        """Interpreted sink (its ``comb``'s ``try`` is outside the compiled
        subset, so codegen defers it) whose comb consults another
        channel's events() mid-fix-point (legal, must raise on
        unresolved)."""

        def __init__(self, name, watch):
            super().__init__(name)
            self.watch = watch
            self.observations = []

        def comb(self):
            try:
                self.watch[0].events()
                self.observations.append("resolved")
            except ValueError:
                self.observations.append("unresolved")
            super().comb()

    def _net(self, watch):
        net = Netlist("probe")
        net.add(ListSource("src", [1, 2, 3]))
        net.add(ElasticBuffer("eb"))
        net.add(self.ProbingSink("snk", watch))
        net.connect("src.o", "eb.i", name="in")
        net.connect("eb.o", "snk.i", name="out")
        return net

    def _first_observation(self, engine_run):
        watch = []
        net = self._net(watch)
        watch.append(net.channels["out"])
        engine_run(net)
        return net.nodes["snk"].observations[0]

    def test_batch_fallback_matches_scalar_raise(self):
        """The sink is seeded before the buffer (no dependency edge), so
        out.vp is unknown at its first evaluation — the engine a lanes=2
        request runs must see the unresolved ValueError too, not stale
        previous-cycle events."""
        scalar = self._first_observation(
            lambda net: Simulator(net, engine="worklist").run(3)
        )
        laned = self._first_observation(
            lambda net: Simulator(net, engine=lanes_engine(2)).run(3)
        )
        assert scalar == "unresolved"
        assert laned == scalar
