"""Back-end tests: Verilog, SMV and BLIF emission."""

import re

import pytest

from repro.backend.blif import parse_blif, to_blif
from repro.backend.smv import to_smv
from repro.backend.verilog import to_verilog
from repro.datapath.adders import adder_inputs, ripple_carry_adder
from repro.datapath.secded import Secded
from repro.netlist import patterns
from repro.netlist.varlat import variable_latency_speculative
from repro.tech.gates import GateNetlist
from repro.verif.properties import retry_exempt_channels


def balanced_modules(text):
    return len(re.findall(r"^\s*module\s", text, re.M)) == len(
        re.findall(r"^\s*endmodule", text, re.M)
    )


class TestVerilog:
    def test_fig1d_emits_all_primitives(self):
        net, _names = patterns.table1_design()
        text = to_verilog(net)
        for prim in ("self_eb", "self_fork", "self_join", "self_eemux",
                     "self_shared", "self_sched_toggle"):
            assert f"module {prim}" in text
        assert balanced_modules(text)

    def test_top_module_wires_every_channel(self):
        net, _names = patterns.table1_design()
        text = to_verilog(net, top_name="speculative_loop")
        assert "module speculative_loop" in text
        for channel in net.channels:
            assert f"{channel}_vp" in text

    def test_eb_chain_emission(self):
        net = patterns.eb_chain(3)
        text = to_verilog(net)
        assert text.count("self_eb #(.W(") == 3
        assert balanced_modules(text)

    def test_fig6b_emission(self):
        net, _names = variable_latency_speculative()
        text = to_verilog(net)
        assert "self_shared" in text
        assert "self_eemux" in text
        assert balanced_modules(text)

    def test_environment_nodes_become_comments(self):
        net = patterns.eb_chain(1)
        text = to_verilog(net)
        assert "environment node 'src'" in text
        assert "environment node 'snk'" in text

    def test_choice_source_is_an_environment(self):
        # a node with no input port is a testbench source, whatever its kind
        net, names = patterns.speculative_mc()
        text = to_verilog(net)
        assert "environment node 'sel' (nondet_choice_source)" in text
        assert f"assign {names['sel']}_vp = 1'b0" in text
        assert balanced_modules(text)


class TestSmv:
    def test_eb_chain_model(self):
        net = patterns.eb_chain(2)
        text = to_smv(net)
        assert "MODULE elastic_buffer" in text
        assert "MODULE main" in text
        assert text.count("elastic_buffer(") >= 3   # module + 2 instances

    def test_specs_present_for_internal_channels(self):
        net = patterns.eb_chain(3)
        text = to_smv(net)
        assert "LTLSPEC" in text
        assert "Retry+" in text

    def test_retry_exempt_channels_skipped(self):
        net, names = patterns.table1_design()
        text = to_smv(net)
        for channel in (names["fout0"], names["fout1"], names["mux_out"]):
            assert f"(({channel}_vp & {channel}_sp" not in text

    def test_table1_specs_follow_the_rule_table(self):
        """Plain ``to_smv`` (what ``repro export`` writes) computes the
        Section 4.2 exemption itself: the three shared-module cone channels
        lose Retry+ and keep Retry- and both Invariant terms, and every
        other channel between controllers gets all four specs."""
        net, _names = patterns.table1_design()
        text = to_smv(net)
        exempt = {"fin0__tail", "fin1__tail", "mux_f"}
        assert retry_exempt_channels(net) == exempt
        header = "  -- SELF protocol properties (Section 3.1) on channel "
        blocks = {}
        for line in text.splitlines():
            if line.startswith(header):
                specs = blocks[line[len(header):]] = []
            elif line.startswith("  LTLSPEC"):
                specs.append(line)
        assert sorted(blocks) == sorted(net.channels)
        for name, specs in blocks.items():
            want = [
                f"  LTLSPEC G (({name}_vp & {name}_sp & !{name}_vm) -> X "
                f"{name}_vp)  -- Retry+",
                f"  LTLSPEC G ((!{name}_vp & {name}_vm & {name}_sm) -> X "
                f"{name}_vm)  -- Retry-",
                f"  LTLSPEC G !({name}_sp & {name}_vm)  -- Invariant: "
                "V- and S+ both asserted",
                f"  LTLSPEC G !({name}_vp & {name}_vm & {name}_sm)  -- "
                "Invariant: cancellation with S- asserted",
            ]
            assert specs == want[name in exempt:], name

    def test_shared_module_emitted(self):
        net, _names = patterns.table1_design()
        text = to_smv(net)
        assert "MODULE shared2" in text
        assert "_g : 0..1" in text

    def test_choice_source_drives_env_inputs(self):
        net, names = patterns.speculative_mc()
        sel = names["sel"]
        text = to_smv(net)
        assert f"{sel}_vp : boolean;  -- env-driven valid" in text
        assert f"channel {sel}\n" not in text        # no specs on env channels
        assert "node sel" not in text

    def test_liveness_specs_optional(self):
        net = patterns.eb_chain(3)          # needs internal channels
        assert "G F" not in to_smv(net, liveness=False)
        assert "G F" in to_smv(net, liveness=True)


class TestBlif:
    def test_adder_roundtrip_evaluates_identically(self):
        net = ripple_carry_adder(4)
        text = to_blif(net)
        back = parse_blif(text)
        for a in (0, 3, 9, 15):
            for b in (0, 5, 15):
                vin = adder_inputs(a, b, 4)
                assert back.evaluate(vin) == net.evaluate(vin)

    def test_secded_encoder_blif_structure(self):
        net = Secded(16).encoder_gates()
        text = to_blif(net)
        assert text.startswith(".model secded_enc16")
        assert ".inputs d0" in text
        assert text.rstrip().endswith(".end")
        assert text.count(".names") == len(net.gates)

    def test_mux_gate_cubes(self):
        net = GateNetlist("m")
        s = net.add_input("s")
        a = net.add_input("a")
        b = net.add_input("b")
        net.add_gate("mux2", (s, a, b), "y")
        net.mark_output("y")
        back = parse_blif(to_blif(net))
        for s_v in (False, True):
            for a_v in (False, True):
                for b_v in (False, True):
                    vin = {"s": s_v, "a": a_v, "b": b_v}
                    assert back.evaluate(vin)["y"] == net.evaluate(vin)["y"]
