"""Integration tests for the Section 5 examples: the variable-latency ALU
(Figure 6) and the SECDED-resilient adder (Figure 7)."""

import pytest

from repro.datapath.alu import Alu
from repro.datapath.secded import Secded
from repro.netlist.resilient import (
    plain_adder,
    reference_sums,
    resilient_nonspeculative,
    resilient_speculative,
)
from repro.netlist.varlat import (
    alu_op_stream,
    reference_output_stream,
    variable_latency_speculative,
    variable_latency_stalling,
)
from repro.perf import performance_report
from repro.sim.engine import Simulator
from repro.sim.stats import TransferLog


def run_stream(net, channel, cycles):
    log = TransferLog([channel])
    Simulator(net, observers=[log]).run(cycles)
    return log.values(channel)


@pytest.fixture(scope="module")
def alu():
    return Alu(width=8, window=3)


@pytest.fixture(scope="module")
def code():
    return Secded(64)


class TestFig6Correctness:
    def test_stalling_matches_golden(self, alu):
        net, _ = variable_latency_stalling(alu, seed=3)
        values = run_stream(net, "out", 250)
        ref = reference_output_stream(alu, len(values), seed=3)
        assert values == ref

    def test_speculative_matches_golden(self, alu):
        net, _ = variable_latency_speculative(alu, seed=3)
        values = run_stream(net, "out", 250)
        ref = reference_output_stream(alu, len(values), seed=3)
        assert values == ref

    def test_designs_transfer_equivalent(self, alu):
        net_a, _ = variable_latency_stalling(alu, seed=4)
        net_b, _ = variable_latency_speculative(alu, seed=4)
        va = run_stream(net_a, "out", 200)
        vb = run_stream(net_b, "out", 200)
        n = min(len(va), len(vb))
        assert n > 50
        assert va[:n] == vb[:n]


class TestFig6Performance:
    def test_same_throughput_better_clock(self, alu):
        """The paper's Section 5.1 claims: identical stall behaviour (one
        lost cycle per approximation error) but the speculative design's
        clock no longer carries the F_err-to-controller path — a ~9%
        effective cycle time improvement at ~12% area overhead."""
        net_a, _ = variable_latency_stalling(alu, seed=5)
        net_b, _ = variable_latency_speculative(alu, seed=5)
        ra = performance_report(net_a, sim_channel="out", cycles=1500,
                                warmup=100, name="stalling")
        rb = performance_report(net_b, sim_channel="out", cycles=1500,
                                warmup=100, name="speculative")
        assert ra.throughput == pytest.approx(rb.throughput, abs=0.02)
        improvement = ra.effective_cycle_time / rb.effective_cycle_time - 1
        assert 0.04 < improvement < 0.15          # paper: 9%
        overhead = rb.area / ra.area - 1
        assert 0.05 < overhead < 0.25             # paper: 12%

    def test_throughput_tracks_error_rate(self, alu):
        """Throughput is 1/(1 + error rate): all-logic streams lose nothing,
        arithmetic-heavy streams pay per error."""
        net_logic, _ = variable_latency_speculative(alu, seed=6,
                                                    arith_fraction=0.0)
        net_arith, _ = variable_latency_speculative(alu, seed=6,
                                                    arith_fraction=1.0)
        r_logic = performance_report(net_logic, sim_channel="out",
                                     cycles=800, warmup=50)
        r_arith = performance_report(net_arith, sim_channel="out",
                                     cycles=800, warmup=50)
        assert r_logic.throughput == pytest.approx(1.0, abs=0.02)
        assert r_arith.throughput < 0.9

    def test_mispredict_penalty_is_one_cycle(self, alu):
        net, _ = variable_latency_speculative(alu, seed=7)
        sim = Simulator(net)
        sim.run(1000)
        outputs = sim.stats.transfers["out"]
        gen = alu_op_stream(seed=7)
        errors = sum(int(alu.mispredicts(*gen(i))) for i in range(outputs))
        # cycles ~= outputs + errors (+ small pipeline fill)
        assert outputs + errors == pytest.approx(1000, abs=10)


class TestFig7Correctness:
    def test_plain_adder_golden(self, code):
        net, _ = plain_adder(code, seed=8)
        values = run_stream(net, "out", 150)
        assert values == reference_sums(code, len(values), seed=8)

    def test_nonspeculative_corrects_errors(self, code):
        net, _ = resilient_nonspeculative(code, error_rate=0.2, seed=9)
        values = run_stream(net, "out", 150)
        assert values == reference_sums(code, len(values), error_rate=0.2, seed=9)

    def test_speculative_corrects_errors(self, code):
        net, _ = resilient_speculative(code, error_rate=0.2, seed=10)
        values = run_stream(net, "out", 200)
        assert len(values) > 100
        assert values == reference_sums(code, len(values), error_rate=0.2, seed=10)


class TestFig7BlockCosts:
    """Block delays and areas are synthesized once per code and cell
    table, not once per build."""

    def test_second_build_synthesizes_no_gates(self, monkeypatch):
        from repro.netlist import resilient
        from repro.tech.gates import GateNetlist

        calls = []
        add_gate = GateNetlist.add_gate

        def counting_add_gate(self, *args, **kwargs):
            calls.append(args)
            return add_gate(self, *args, **kwargs)

        monkeypatch.setattr(GateNetlist, "add_gate", counting_add_gate)
        monkeypatch.setattr(resilient, "_BLOCKS_CACHE", {})
        resilient_speculative()
        assert calls
        calls.clear()
        resilient_speculative()
        assert calls == []

    def test_changed_cell_changes_block_costs(self, code):
        from repro.netlist.resilient import _blocks
        from repro.tech.library import GateSpec, TechLibrary

        tech = TechLibrary()
        blocks = _blocks(code, tech)
        delay = blocks["correct_delay"]
        blocks["correct_delay"] = 0.0      # the caller's copy only
        assert _blocks(code, tech)["correct_delay"] == delay
        assert _blocks(code, TechLibrary())["correct_delay"] == delay
        xor2 = tech.cells["xor2"]
        tech.cells["xor2"] = GateSpec("xor2", xor2.area, 2 * xor2.delay,
                                      xor2.inputs)
        assert _blocks(code, tech)["correct_delay"] > delay


class TestFig6BlockCosts:
    """The gate-level ALU behind fig6's block costs is synthesized once per
    geometry and cell table, not once per build."""

    def test_fig6_grid_synthesizes_once_per_geometry(self, monkeypatch):
        from repro.netlist import varlat
        from repro.perf.presets import fig6_spec

        geometries = []
        stats = Alu.stats

        def counting_stats(self, tech):
            geometries.append((self.width, self.window))
            return stats(self, tech)

        monkeypatch.setattr(Alu, "stats", counting_stats)
        monkeypatch.setattr(varlat, "_ALU_BLOCKS_CACHE", {})
        spec = fig6_spec()
        configs = spec.expand()
        for config in configs:
            spec.factory(**config.params)
        expected = {(config.params["width"], config.params["window"])
                    for config in configs}
        assert len(configs) == 24
        assert sorted(geometries) == sorted(expected)

    def test_returned_costs_are_copies(self, alu):
        from repro.netlist.varlat import _alu_blocks
        from repro.tech.library import TechLibrary

        tech = TechLibrary()
        blocks = _alu_blocks(alu, tech)
        exact_delay = blocks["exact_delay"]
        blocks["exact_delay"] = 0.0        # the caller's copy only
        assert _alu_blocks(alu, tech)["exact_delay"] == exact_delay
        net, _ = variable_latency_stalling(alu, tech=tech)
        assert net.nodes["vl"].delay == exact_delay

    def test_changed_cell_changes_block_costs(self, alu):
        from repro.netlist.varlat import _alu_blocks
        from repro.tech.library import GateSpec, TechLibrary

        tech = TechLibrary()
        before = _alu_blocks(alu, tech)
        assert _alu_blocks(alu, TechLibrary()) == before
        and2 = tech.cells["and2"]
        tech.cells["and2"] = GateSpec("and2", 2 * and2.area, 2 * and2.delay,
                                      and2.inputs)
        after = _alu_blocks(alu, tech)
        assert after["approx_delay"] > before["approx_delay"]
        assert after["err_area"] > before["err_area"]
        assert _alu_blocks(alu, TechLibrary()) == before


class TestFig7Performance:
    def test_error_free_no_throughput_penalty(self, code):
        """Section 5.2: "there is no performance penalty during the
        error-free behaviors" — the speculative stage matches the
        unprotected adder's throughput."""
        net_p, _ = plain_adder(code, seed=11)
        net_b, _ = resilient_speculative(code, error_rate=0.0, seed=11)
        rp = performance_report(net_p, sim_channel="out", cycles=600, warmup=50)
        rb = performance_report(net_b, sim_channel="out", cycles=600, warmup=50)
        assert rp.throughput == pytest.approx(1.0, abs=0.01)
        assert rb.throughput == pytest.approx(1.0, abs=0.01)

    def test_single_cycle_lost_per_error(self, code):
        """"Whenever an error is detected, a single clock cycle is lost"."""
        rate = 0.15
        net, _ = resilient_speculative(code, error_rate=rate, seed=12)
        sim = Simulator(net)
        sim.run(1000)
        outputs = sim.stats.transfers["out"]
        # count actually-injected errors among the consumed ops
        ref_gen_errors = 0
        from repro.netlist.resilient import encoded_op_stream

        gen = encoded_op_stream(code, rate, seed=12)
        for i in range(outputs):
            a, b = gen(i)
            if code.decode(a).status != "ok" or code.decode(b).status != "ok":
                ref_gen_errors += 1
        assert outputs + ref_gen_errors == pytest.approx(1000, abs=10)

    def test_latency_advantage_over_nonspeculative(self, code):
        """Figure 7(a) pays the SECDED stage on every op; 7(b) only on
        errors: first-output latency is one cycle shorter."""
        net_a, _ = resilient_nonspeculative(code, seed=13)
        net_b, _ = resilient_speculative(code, seed=13)
        log_a, log_b = TransferLog(["out"]), TransferLog(["out"])
        Simulator(net_a, observers=[log_a]).run(10)
        Simulator(net_b, observers=[log_b]).run(10)
        assert log_b.cycles("out")[0] < log_a.cycles("out")[0]

    def test_area_overhead_from_recovery_ebs(self, code):
        """Section 5.2: overhead "caused mainly by the recovery EBs"."""
        from repro.perf.area import area_breakdown, total_area

        net_a, _ = resilient_nonspeculative(code, seed=14)
        net_b, names = resilient_speculative(code, seed=14)
        overhead = total_area(net_b) / total_area(net_a) - 1
        assert 0.10 < overhead < 0.50             # paper: 36%
        breakdown = area_breakdown(net_b)
        assert breakdown[names["recovery"]] > 0
