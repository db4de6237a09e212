"""Verilog back-end.

Emits a synthesizable Verilog netlist of the *elastic controllers* plus a
structural top module wiring controllers and datapath operators, in the
spirit of the paper's toolkit ("the elastic controller is built by
assembling a set of predefined parameterized control circuit primitives").

Controller primitives emitted:

* ``self_eb``        — elastic buffer controller (Lf=1, Lb=1, C=2) with a
  two-latch datapath and anti-token counter;
* ``self_eb_zbl``    — zero-backward-latency buffer (Figure 5);
* ``self_fork``      — eager fork with done registers and kill counters;
* ``self_join``      — lazy join (function block control);
* ``self_eemux``     — early-evaluation multiplexor controller with
  anti-token counters;
* ``self_shared``    — shared-module controller (Figure 4(b)) with a
  pluggable scheduler register.

Function blocks appear as operator module stubs (one per distinct block)
whose bodies carry a synthesis pragma comment — the datapath logic itself
is design-specific Python in this framework; gate-level blocks from
:mod:`repro.datapath` can be exported separately via the BLIF back-end.
"""

from __future__ import annotations

from repro.errors import BackendError

_HEADER = """// Generated by repro (Speculation in Elastic Systems, DAC 2009 reproduction)
// Design: {name}
"""

_PRIMITIVES = {
    "self_eb": """
module self_eb #(parameter W = 8) (
  input  wire         clk, rst_n,
  input  wire         i_vp, o_sp, o_vm, i_sm,
  output reg          o_vp, i_vm,
  output wire         i_sp, o_sm,
  input  wire [W-1:0] i_d,
  output reg  [W-1:0] o_d
);
  // two-slot elastic buffer, Lf=1, Lb=1, C=2, one anti-token slot
  reg [1:0] cnt;      // token count
  reg       anti;     // stored anti-token
  wire in_tok  = i_vp & ~i_sp;
  wire in_anti = i_vm & ~i_sm;
  wire out_tok  = o_vp & ~o_sp;
  wire out_anti = o_vm & ~o_sm;
  reg [W-1:0] slot1;
  assign i_sp = (cnt == 2'd2);
  assign o_sm = anti & ~o_vp;
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) begin
      cnt <= 2'd0; anti <= 1'b0; o_vp <= 1'b0; i_vm <= 1'b0;
      o_d <= {W{1'b0}}; slot1 <= {W{1'b0}};
    end else begin
      case ({in_tok | in_anti, out_tok | out_anti})
        2'b10: begin
          if (anti) anti <= 1'b0;
          else begin
            cnt <= cnt + 2'd1;
            if (cnt == 2'd0) o_d <= i_d; else slot1 <= i_d;
          end
        end
        2'b01: begin
          if (cnt == 2'd0) anti <= 1'b1;
          else begin cnt <= cnt - 2'd1; o_d <= slot1; end
        end
        2'b11: begin
          o_d <= (cnt <= 2'd1) ? i_d : slot1;
          if (cnt >= 2'd1) slot1 <= i_d;
        end
        default: ;
      endcase
      o_vp <= (cnt + (in_tok & ~anti ? 2'd1 : 2'd0)
                   - (out_tok | out_anti ? 2'd1 : 2'd0)) != 2'd0;
      i_vm <= anti | (in_anti & (cnt == 2'd0));
    end
  end
endmodule
""",
    "self_eb_zbl": """
module self_eb_zbl #(parameter W = 8) (
  input  wire         clk, rst_n,
  input  wire         i_vp, o_sp, o_vm, i_sm,
  output reg          o_vp,
  output wire         i_vm, i_sp, o_sm,
  input  wire [W-1:0] i_d,
  output reg  [W-1:0] o_d
);
  // Figure 5: Lb = 0, C = 1; stop and kill pass combinationally
  assign i_sp = o_vp & o_sp & ~o_vm;
  assign i_vm = ~o_vp & o_vm;
  assign o_sm = o_vp ? 1'b0 : i_sm;
  wire consumed = o_vp & ~o_sp;
  wire stored   = i_vp & ~i_sp & ~i_vm;
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) begin o_vp <= 1'b0; o_d <= {W{1'b0}}; end
    else begin
      o_vp <= stored | (o_vp & ~consumed);
      if (stored) o_d <= i_d;
    end
  end
endmodule
""",
    "self_fork": """
module self_fork #(parameter N = 2) (
  input  wire         clk, rst_n,
  input  wire         i_vp,
  output wire         i_sp,
  input  wire [N-1:0] o_sp, o_vm,
  output wire [N-1:0] o_vp, o_sm
);
  // eager fork: done registers + per-branch pending-kill counters
  reg [N-1:0] done;
  reg [1:0]   pk [0:N-1];
  genvar k;
  generate for (k = 0; k < N; k = k + 1) begin : branch
    wire eff_done = done[k] | (pk[k] != 2'd0);
    assign o_vp[k] = i_vp & ~eff_done;
    assign o_sm[k] = o_vp[k] ? 1'b0 : (pk[k] == 2'd3);
  end endgenerate
  wire [N-1:0] branch_ok;
  generate for (k = 0; k < N; k = k + 1) begin : ok
    assign branch_ok[k] = done[k] | (pk[k] != 2'd0) | (o_vp[k] & ~o_sp[k]);
  end endgenerate
  assign i_sp = ~(i_vp & (&branch_ok));
  integer j;
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) begin
      done <= {N{1'b0}};
      for (j = 0; j < N; j = j + 1) pk[j] <= 2'd0;
    end else begin
      for (j = 0; j < N; j = j + 1) begin
        if (i_vp & (pk[j] != 2'd0) & ~done[j]) begin
          done[j] <= 1'b1; pk[j] <= pk[j] - 2'd1;
        end else if (o_vp[j] & ~o_sp[j]) done[j] <= 1'b1;
        if (o_vm[j] & ~o_sm[j] & ~o_vp[j]) pk[j] <= pk[j] + 2'd1;
      end
      if (i_vp & ~i_sp) done <= {N{1'b0}};
    end
  end
endmodule
""",
    "self_join": """
module self_join #(parameter N = 2) (
  input  wire [N-1:0] i_vp,
  output wire [N-1:0] i_sp,
  input  wire         o_sp,
  output wire         o_vp
);
  // lazy join (anti-token counters omitted in the plain variant)
  assign o_vp = &i_vp;
  wire fire = o_vp & ~o_sp;
  assign i_sp = {N{~fire}};
endmodule
""",
    "self_eemux": """
module self_eemux #(parameter N = 2, parameter SW = 1) (
  input  wire          clk, rst_n,
  input  wire          s_vp,
  output wire          s_sp,
  input  wire [SW-1:0] s_d,
  input  wire [N-1:0]  i_vp,
  output wire [N-1:0]  i_sp, i_vm,
  input  wire [N-1:0]  i_sm,
  output wire          o_vp,
  input  wire          o_sp, o_vm,
  output wire          o_sm
);
  // early-evaluation multiplexor controller with anti-token counters
  reg [1:0] pk [0:N-1];
  reg [1:0] pko;
  wire [N-1:0] avail;
  genvar k;
  generate for (k = 0; k < N; k = k + 1) begin : a
    assign avail[k] = i_vp[k] & (pk[k] == 2'd0);
  end endgenerate
  wire can_fire = s_vp & avail[s_d];
  assign o_vp = can_fire & (pko == 2'd0);
  wire fire = can_fire & ((pko != 2'd0) | ~o_sp);
  assign s_sp = ~fire;
  generate for (k = 0; k < N; k = k + 1) begin : kbits
    wire kill_now = fire & (s_d != k);
    assign i_vm[k] = (pk[k] != 2'd0) | kill_now;
    assign i_sp[k] = i_vm[k] ? 1'b0 : ~(fire & (s_d == k));
  end endgenerate
  assign o_sm = o_vp ? 1'b0 : (pko == 2'd3);
  integer j;
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) begin
      for (j = 0; j < N; j = j + 1) pk[j] <= 2'd0;
      pko <= 2'd0;
    end else begin
      for (j = 0; j < N; j = j + 1) begin
        pk[j] <= pk[j]
               + ((fire & (s_d != j)) ? 2'd1 : 2'd0)
               - ((i_vm[j] & (i_vp[j] | ~i_sm[j])) ? 2'd1 : 2'd0);
      end
      if (o_vm & ~o_sm & ~o_vp) pko <= pko + 2'd1;
      else if (fire & (pko != 2'd0)) pko <= pko - 2'd1;
    end
  end
endmodule
""",
    "self_shared": """
module self_shared #(parameter N = 2) (
  input  wire         clk, rst_n,
  input  wire [N-1:0] i_vp,
  output wire [N-1:0] i_sp, o_vp, i_vm,
  input  wire [N-1:0] i_sm, o_sp, o_vm,
  output wire [N-1:0] o_sm,
  input  wire [$clog2(N)-1:0] sched_g
);
  // Figure 4(b): per-channel gating; kills pass through combinationally
  genvar k;
  generate for (k = 0; k < N; k = k + 1) begin : ch
    wire predicted = (sched_g == k);
    assign o_vp[k] = predicted & i_vp[k];
    assign i_vm[k] = o_vm[k];
    assign o_sm[k] = i_vp[k] ? 1'b0 : i_sm[k];
    assign i_sp[k] = o_vm[k] ? 1'b0 : (predicted ? o_sp[k] : 1'b1);
  end endgenerate
endmodule
""",
    "self_sched_toggle": """
module self_sched_toggle (
  input  wire clk, rst_n,
  output reg  g
);
  // Table 1 scheduler: alternate every cycle
  always @(posedge clk or negedge rst_n)
    if (!rst_n) g <= 1'b0; else g <= ~g;
endmodule
""",
    "self_sched_repair": """
module self_sched_repair (
  input  wire clk, rst_n,
  input  wire stalled,        // predicted token stalled at the mux
  input  wire other_valid,    // a token waits on the non-predicted channel
  input  wire mine_valid,
  output reg  g
);
  // sticky prediction with the Section 4.1.1 misprediction repair
  always @(posedge clk or negedge rst_n)
    if (!rst_n) g <= 1'b0;
    else if (stalled | (~mine_valid & other_valid)) g <= ~g;
endmodule
""",
}

_KIND_TO_PRIMITIVE = {
    "eb": "self_eb",
    "zbl_eb": "self_eb_zbl",
    "fork": "self_fork",
    "func": "self_join",
    "eemux": "self_eemux",
    "shared": "self_shared",
}


def _primitives_needed(netlist):
    needed = []
    for node in netlist.nodes.values():
        prim = _KIND_TO_PRIMITIVE.get(node.kind)
        if prim and prim not in needed:
            needed.append(prim)
        if node.kind == "shared" and "self_sched_toggle" not in needed:
            needed.append("self_sched_toggle")
            needed.append("self_sched_repair")
    return needed


def _wire_decls(netlist):
    lines = []
    for channel in netlist.channels.values():
        n = channel.name
        lines.append(f"  wire {n}_vp, {n}_sp, {n}_vm, {n}_sm;")
        lines.append(f"  wire [{channel.width - 1}:0] {n}_d;")
    return lines


def _instance(node, netlist):
    """Instantiate the controller primitive for one node."""
    kind = node.kind
    name = node.name

    def ch(port):
        return node.channel(port).name

    if node.is_environment:
        return [f"  // environment node '{name}' ({kind}): testbench, not emitted"]
    if kind == "eb":
        i, o = ch("i"), ch("o")
        w = node.channel("o").width
        return [
            f"  self_eb #(.W({w})) u_{name} (.clk(clk), .rst_n(rst_n),",
            f"    .i_vp({i}_vp), .i_sp({i}_sp), .i_vm({i}_vm), .i_sm({i}_sm), .i_d({i}_d),",
            f"    .o_vp({o}_vp), .o_sp({o}_sp), .o_vm({o}_vm), .o_sm({o}_sm), .o_d({o}_d));",
        ]
    if kind == "zbl_eb":
        i, o = ch("i"), ch("o")
        w = node.channel("o").width
        return [
            f"  self_eb_zbl #(.W({w})) u_{name} (.clk(clk), .rst_n(rst_n),",
            f"    .i_vp({i}_vp), .i_sp({i}_sp), .i_vm({i}_vm), .i_sm({i}_sm), .i_d({i}_d),",
            f"    .o_vp({o}_vp), .o_sp({o}_sp), .o_vm({o}_vm), .o_sm({o}_sm), .o_d({o}_d));",
        ]
    if kind == "fork":
        i = ch("i")
        outs = [ch(f"o{k}") for k in range(node.n_outputs)]
        cat = lambda sig: "{" + ", ".join(f"{o}_{sig}" for o in reversed(outs)) + "}"
        lines = [
            f"  self_fork #(.N({node.n_outputs})) u_{name} (.clk(clk), .rst_n(rst_n),",
            f"    .i_vp({i}_vp), .i_sp({i}_sp),",
            f"    .o_vp({cat('vp')}), .o_sp({cat('sp')}),",
            f"    .o_vm({cat('vm')}), .o_sm({cat('sm')}));",
        ]
        for o in outs:
            lines.append(f"  assign {o}_d = {i}_d;")
        lines.append(f"  assign {i}_vm = 1'b0;")
        return lines
    if kind == "func":
        ins = [ch(p) for p in node.in_ports]
        o = ch("o")
        cat = lambda sig: "{" + ", ".join(f"{c}_{sig}" for c in reversed(ins)) + "}"
        lines = [
            f"  self_join #(.N({len(ins)})) u_{name} (",
            f"    .i_vp({cat('vp')}), .i_sp({cat('sp')}),",
            f"    .o_vp({o}_vp), .o_sp({o}_sp));",
            f"  // datapath operator '{name}': user logic",
            f"  op_{name} u_{name}_dp ({', '.join(f'.i{k}({c}_d)' for k, c in enumerate(ins))}, .o({o}_d));",
            f"  assign {o}_sm = 1'b1;  // plain join: no anti-token absorption",
        ]
        for c in ins:
            lines.append(f"  assign {c}_vm = 1'b0;")
        return lines
    if kind == "eemux":
        s = ch("s")
        ins = [ch(f"i{k}") for k in range(node.n_inputs)]
        o = ch("o")
        sw = max(1, (node.n_inputs - 1).bit_length())
        cat = lambda sig: "{" + ", ".join(f"{c}_{sig}" for c in reversed(ins)) + "}"
        lines = [
            f"  self_eemux #(.N({node.n_inputs}), .SW({sw})) u_{name} (.clk(clk), .rst_n(rst_n),",
            f"    .s_vp({s}_vp), .s_sp({s}_sp), .s_d({s}_d[{sw - 1}:0]),",
            f"    .i_vp({cat('vp')}), .i_sp({cat('sp')}), .i_vm({cat('vm')}), .i_sm({cat('sm')}),",
            f"    .o_vp({o}_vp), .o_sp({o}_sp), .o_vm({o}_vm), .o_sm({o}_sm));",
            f"  assign {o}_d = {s}_d[{sw - 1}:0] == 0 ? {ins[0]}_d : {ins[1]}_d;"
            if node.n_inputs == 2 else
            f"  // {node.n_inputs}-way data mux for '{name}': user logic",
            f"  assign {s}_vm = 1'b0;",
        ]
        return lines
    if kind == "shared":
        ins = [ch(f"i{k}") for k in range(node.n_channels)]
        outs = [ch(f"o{k}") for k in range(node.n_channels)]
        cat_i = lambda sig: "{" + ", ".join(f"{c}_{sig}" for c in reversed(ins)) + "}"
        cat_o = lambda sig: "{" + ", ".join(f"{c}_{sig}" for c in reversed(outs)) + "}"
        lines = [
            f"  wire {name}_g;",
            f"  self_sched_toggle u_{name}_sched (.clk(clk), .rst_n(rst_n), .g({name}_g));",
            f"  self_shared #(.N({node.n_channels})) u_{name} (.clk(clk), .rst_n(rst_n),",
            f"    .i_vp({cat_i('vp')}), .i_sp({cat_i('sp')}), .i_vm({cat_i('vm')}), .i_sm({cat_i('sm')}),",
            f"    .o_vp({cat_o('vp')}), .o_sp({cat_o('sp')}), .o_vm({cat_o('vm')}), .o_sm({cat_o('sm')}),",
            f"    .sched_g({name}_g));",
            f"  // shared operator '{name}': user logic behind the channel mux",
        ]
        for k, (i, o) in enumerate(zip(ins, outs)):
            lines.append(f"  op_{node.name} u_{name}_dp{k} (.i0({i}_d), .o({o}_d));")
        return lines
    if kind == "varlat":
        i, o = ch("i"), ch("o")
        return [
            f"  // variable-latency unit '{name}': telescopic controller, user logic",
            f"  assign {o}_vp = 1'b0, {i}_sp = 1'b1, {i}_vm = 1'b0, {o}_sm = 1'b1;",
            f"  assign {o}_d = {{{node.channel('o').width}{{1'b0}}}};",
        ]
    raise BackendError(f"no Verilog mapping for node kind {kind!r}")


def _operator_stubs(netlist):
    stubs = []
    for node in netlist.nodes.values():
        if node.kind in ("func", "shared"):
            n_in = getattr(node, "n_inputs", 1) if node.kind == "func" else 1
            widths_in = []
            for k in range(n_in):
                port = f"i{k}"
                widths_in.append(node.channel(port).width if port in node._channels else 8)
            out_port = "o" if node.kind == "func" else "o0"
            w_out = node.channel(out_port).width if out_port in node._channels else 8
            ports = ", ".join(
                f"input wire [{w - 1}:0] i{k}" for k, w in enumerate(widths_in)
            )
            stubs.append(
                f"module op_{node.name} ({ports}, output wire [{w_out - 1}:0] o);\n"
                f"  // synthesis placeholder for operator '{node.name}'\n"
                f"  assign o = i0[{min(widths_in[0], w_out) - 1}:0];\n"
                f"endmodule\n"
            )
    return stubs


def to_verilog(netlist, top_name=None):
    """Emit the full Verilog text (primitives + operator stubs + top)."""
    netlist.validate()
    top_name = top_name or f"top_{netlist.name}".replace("-", "_")
    parts = [_HEADER.format(name=netlist.name)]
    for prim in _primitives_needed(netlist):
        parts.append(_PRIMITIVES[prim])
    parts.extend(_operator_stubs(netlist))
    body = [f"module {top_name} (input wire clk, input wire rst_n);"]
    body.extend(_wire_decls(netlist))
    for node in netlist.nodes.values():
        body.extend(_instance(node, netlist))
    # tie off environment-driven channels
    for channel in netlist.channels.values():
        n = channel.name
        if netlist.nodes[channel.producer[0]].is_environment:
            body.append(f"  assign {n}_vp = 1'b0, {n}_sm = 1'b1;")
            body.append(f"  assign {n}_d = {{{channel.width}{{1'b0}}}};")
        if netlist.nodes[channel.consumer[0]].is_environment:
            body.append(f"  assign {n}_sp = 1'b0, {n}_vm = 1'b0;")
    body.append("endmodule")
    parts.append("\n".join(body))
    return "\n".join(parts)
