"""Differential testing of the lane-parallel batch engine.

Every lane of a :class:`BatchSimulator` must be *bit-identical* to running
that configuration in its own scalar (worklist) simulator: same per-channel
transfer streams (values and cycles), same full :class:`ChannelStats`, same
sink streams, same combinational-loop diagnostics, same protocol verdicts.
These tests fuzz random same-topology pipelines with per-lane parameter
variations (the lane-assignment fuzz the acceptance criteria require) and
compare lane by lane, plus the canned paper designs and the sweep backend.
"""

import random

import pytest

from repro.elastic.buffers import ElasticBuffer
from repro.elastic.environment import ListSource, Sink
from repro.elastic.functional import Func
from repro.errors import CombinationalLoopError, ProtocolViolationError
from repro.netlist import patterns
from repro.netlist.graph import Netlist
from repro.sim.batch import BatchSimulator, topology_signature
from repro.sim.engine import Simulator
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


def _scalar_reference(make_lane, n_lanes, cycles):
    reference = []
    for lane in range(n_lanes):
        net = make_lane(lane)
        log = TransferLog(list(net.channels))
        sim = Simulator(net, engine="worklist", observers=[log])
        sim.run(cycles)
        reference.append((
            _stats_dict(sim.stats),
            {name: log.streams[name] for name in net.channels},
            net.nodes["snk"].values if "snk" in net.nodes else None,
        ))
    return reference


def assert_lanes_identical(make_lane, n_lanes, cycles=250):
    """Run ``make_lane(lane)`` per lane scalar-ly and batched, and compare
    everything observable per lane."""
    reference = _scalar_reference(make_lane, n_lanes, cycles)
    nets = [make_lane(lane) for lane in range(n_lanes)]
    logs = [TransferLog(list(net.channels)) for net in nets]
    batch = BatchSimulator(nets, observers=[[log] for log in logs])
    batch.run(cycles)
    for lane in range(n_lanes):
        ref_stats, ref_streams, ref_sink = reference[lane]
        assert _stats_dict(batch.lane_stats(lane)) == ref_stats
        streams = {name: logs[lane].streams[name] for name in nets[lane].channels}
        assert streams == ref_streams
        if ref_sink is not None:
            assert nets[lane].nodes["snk"].values == ref_sink


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
    """Chaos-wrapped lanes: same saboteur topology per lane (the batch
    engine requires it), per-lane injection seeds — every lane must match
    its own scalar run bit for bit through the saboteur batch kernels."""

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
        batch = BatchSimulator([self._loop_net() for _ in range(3)])
        with pytest.raises(CombinationalLoopError) as batch_err:
            batch.step()
        assert sorted(batch_err.value.unresolved) == sorted(
            scalar_err.value.unresolved
        )
        assert batch_err.value.cycle == scalar_err.value.cycle
        # Every lane loops; the diagnosis names the lowest one.
        assert batch_err.value.lane == 0


class TestProtocolVerdicts:
    class WithdrawingSource(ElasticBuffer):
        """Deliberately broken: withdraws a stalled token after 2 cycles.

        Subclasses ElasticBuffer only to inherit wiring; comb is replaced
        by a protocol-violating offer, and batch_comb is disabled so the
        batch engine exercises the scalar fallback path on it too.
        """

        batch_comb = None

        def __init__(self, name):
            super().__init__(name, init=(1, 2))
            self._age = 0

        def comb(self):
            changed = self.drive("o", "vp", self._age < 2)
            if self._age < 2:
                changed |= self.drive("o", "data", 7)
            changed |= self.drive("o", "sm", False)
            changed |= self.drive("i", "sp", True)
            changed |= self.drive("i", "vm", False)
            return changed

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
        batch = BatchSimulator([self._net() for _ in range(3)])
        with pytest.raises(ProtocolViolationError) as batch_err:
            batch.run(10)
        for attr in ("prop", "channel", "cycle"):
            assert getattr(batch_err.value, attr) == getattr(
                scalar_err.value, attr
            )
        assert str(batch_err.value) == str(scalar_err.value)
        assert batch_err.value.lane == 0


class TestBatchConstruction:
    def test_topology_mismatch_rejected(self):
        a = build_pipeline(["eb"], 0.0, 1, [1, 2])
        b = build_pipeline(["eb", "eb"], 0.0, 1, [1, 2])
        with pytest.raises(ValueError, match="topology"):
            BatchSimulator([a, b])

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

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            BatchSimulator([])

    def test_stale_batch_after_new_simulator(self):
        net = build_pipeline(["eb"], 0.0, 1, [1, 2, 3])
        batch = BatchSimulator([net])
        batch.step()
        Simulator(net, engine="worklist")
        with pytest.raises(RuntimeError, match="owned by a newer"):
            batch.step()


class TestSweepLaneBatching:
    def _spec(self):
        from repro.perf.presets import fig6_spec

        return fig6_spec(fracs=(0.0, 0.5, 1.0), windows=(3,), cycles=120,
                         warmup=40)

    def test_lanes_json_identical_to_one_lane_batch(self):
        from repro.perf.sweep import run_sweep
        from repro.runtime.faults import Fault, FaultPlan

        # Failing every configuration's first attempt splits each lane
        # chunk into single-configuration chunks, which stay on the lane
        # engine: the retried rows are all measured by one-lane batches.
        plan = FaultPlan([Fault("sweep_config", kind="raise", times=1)])
        one = run_sweep(self._spec(), lanes=4, retries=1, fault_plan=plan)
        assert one.stats.splits >= 1
        assert not one.failures
        # 6 configs over 4 lanes: two same-topology groups of 3, split 3+3.
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
        batched = run_sweep(self._spec(), lanes=8)
        for scalar_row, batched_row in zip(scalar.rows, batched.rows):
            assert batched_row["engine"] == "batch"
            trimmed = dict(scalar_row, engine="batch")
            assert trimmed == batched_row

    def test_lanes_conflicting_engine_rejected(self):
        from repro.perf.sweep import run_sweep

        with pytest.raises(ValueError, match="batch"):
            run_sweep(self._spec(), engine="naive", lanes=2)

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
        """8 same-topology configurations over 3 lanes: the sweep backend
        splits the group into 3+3+2 batch runs with identical results."""
        from repro.perf.presets import fig6_lane_spec
        from repro.perf.sweep import run_sweep

        spec = fig6_lane_spec(cycles=100, warmup=30)
        three = run_sweep(spec, lanes=3)
        eight = run_sweep(spec, lanes=8)
        assert len(three.rows) == 8
        assert three.to_json() == eight.to_json()


class TestObserverValidation:
    def test_observer_count_must_match_lanes(self):
        net = build_pipeline(["eb"], 0.0, 1, [1, 2])
        with pytest.raises(ValueError, match="observers"):
            BatchSimulator([net], observers=[[], []])


class TestPerLaneOwnership:
    def test_stale_batch_detects_takeover_of_any_lane(self):
        """A newer simulator claiming a lane other than lane 0 must also
        trip the batch ownership guard."""
        nets = [build_pipeline(["eb"], 0.0, s, [1, 2, 3]) for s in (1, 2, 3)]
        batch = BatchSimulator(nets)
        batch.step()
        Simulator(nets[2], engine="worklist")
        with pytest.raises(RuntimeError, match="owned by a newer"):
            batch.step()


class TestKernelAuthorHelpers:
    """The documented kernel-author API on BatchChannelState/BatchNodeCtx."""

    def test_lane_value_matches_scattered_state(self):
        nets = [build_pipeline(["eb"], 0.0, s, [10, 20, 30]) for s in (1, 2)]
        batch = BatchSimulator(nets)
        batch.step()
        bst = batch._bst_by_name["out"]
        for lane, net in enumerate(nets):
            st = net.channels["out"].state
            assert bst.lane_value("vp", lane) == st.vp
            assert bst.lane_value("sp", lane) == st.sp
            assert bst.lane_value("data", lane) == st.data

    def test_lane_value_unknown_is_none(self):
        from repro.elastic.channel import BatchChannelState

        bst = BatchChannelState(3, name="c")
        assert bst.lane_value("vp", 1) is None
        bst.set_mask("vp", 0b010, 0b010)
        assert bst.lane_value("vp", 1) is True
        assert bst.lane_value("vp", 0) is None

    def test_ctx_lane_mask(self):
        from repro.sim.batch import BatchNodeCtx

        class Probe:
            def __init__(self, flag):
                self.flag = flag

        ctx = BatchNodeCtx((Probe(True), Probe(False), Probe(True)), {}, 0b111)
        assert ctx.lane_mask(lambda node: node.flag) == 0b101


class TestFallbackMidFixpointEvents:
    class ProbingSink(Sink):
        """Fallback-path sink whose comb consults another channel's
        events() mid-fix-point (legal, must raise on unresolved)."""

        batch_comb = None

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
            return super().comb()

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
        out.vp is unknown at its first evaluation — both engines must see
        the unresolved ValueError, not stale previous-cycle events."""
        scalar = self._first_observation(
            lambda net: Simulator(net, engine="worklist").run(3)
        )
        batched = self._first_observation(
            lambda net: BatchSimulator([net]).run(3)
        )
        assert scalar == "unresolved"
        assert batched == scalar
