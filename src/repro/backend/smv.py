"""NuSMV back-end.

Section 4.2: "all elastic controllers have been verified with NuSMV".
This module emits a NuSMV model of a netlist's control skeleton — boolean
channel handshakes, the behavioural controller state machines and the
Section 3.1 LTL specs — so the designs explored here can be re-checked by
the same external tool the paper used (the built-in explicit-state checker
of :mod:`repro.verif` covers the in-tree verification).
"""

from __future__ import annotations

from repro.errors import BackendError

_EB_MODULE = """
MODULE elastic_buffer(i_vp, o_sp, o_vm, i_sm)
  -- Lf=1, Lb=1, C=2 with one anti-token slot (Figure 3, deterministic)
  VAR cnt  : 0..2;
      anti : boolean;
  DEFINE
    o_vp := cnt > 0;
    i_sp := cnt = 2;
    i_vm := anti;
    o_sm := anti & cnt = 0 & !o_vp;
    in_ev  := (i_vp & !i_sp) | (i_vm & !i_sm);
    out_ev := (o_vp & !o_sp) | (o_vm & !o_sm);
  ASSIGN
    init(cnt)  := 0;
    init(anti) := FALSE;
    next(anti) := case
      anti & in_ev               : FALSE;
      !anti & o_vm & !o_sm & cnt = 0 : TRUE;
      TRUE                       : anti;
    esac;
    next(cnt) := case
      in_ev & !out_ev & !anti & cnt < 2 : cnt + 1;
      out_ev & !in_ev & cnt > 0         : cnt - 1;
      TRUE                              : cnt;
    esac;
"""

_ZBL_MODULE = """
MODULE zbl_buffer(i_vp, o_sp, o_vm, i_sm)
  -- Figure 5: Lb = 0, C = 1
  VAR full : boolean;
  DEFINE
    o_vp := full;
    i_sp := full & o_sp & !o_vm;
    i_vm := !full & o_vm;
    o_sm := full ? FALSE : i_sm;
    consumed := full & !o_sp;
    stored   := i_vp & !i_sp & !i_vm;
  ASSIGN
    init(full) := FALSE;
    next(full) := stored | (full & !consumed);
"""

_SHARED_MODULE = """
MODULE shared2(i0_vp, i1_vp, o0_sp, o1_sp, o0_vm, o1_vm, i0_sm, i1_sm, g)
  -- Figure 4(b) controller for two channels; g is the scheduler prediction
  DEFINE
    o0_vp := g = 0 & i0_vp;
    o1_vp := g = 1 & i1_vp;
    i0_vm := o0_vm;
    i1_vm := o1_vm;
    o0_sm := i0_vp ? FALSE : i0_sm;
    o1_sm := i1_vp ? FALSE : i1_sm;
    i0_sp := o0_vm ? FALSE : (g = 0 ? o0_sp : TRUE);
    i1_sp := o1_vm ? FALSE : (g = 1 ? o1_sp : TRUE);
"""

def _specs(name, exempt):
    """Channel ``name``'s LTLSPECs, rendered from the rule table of
    :mod:`repro.verif.properties`: each Retry obligation (but the exempt
    rule when ``exempt``), then each Invariant pattern."""
    from repro.verif.properties import (
        INVARIANT, RETRY, conjunction, literals, signal_of)

    def pattern(rule):
        return conjunction(literals(rule.mask, rule.value),
                           f"{name}_{{}}".format, " & ", "!")

    specs = [f"G (({pattern(r)}) -> X {name}_{signal_of(r.held)})  -- {r.prop}"
             for r in RETRY if not (r.exempt and exempt)]
    specs += [f"G !({pattern(r)})  -- {r.prop}: {r.detail}" for r in INVARIANT]
    return "".join([f"\n  -- SELF protocol properties (Section 3.1) on "
                    f"channel {name}\n"] + [f"  LTLSPEC {s}\n" for s in specs])


def to_smv(netlist, liveness=False):
    """Emit a NuSMV model skeleton for the netlist's control network.

    Channels driven by environment nodes become FROZENVAR-free
    nondeterministic inputs; controller nodes map to behavioural modules.
    Every channel between controllers gets the SELF specs, except Retry+
    on the channels Section 4.2 exempts (shared-module cones, see
    :func:`repro.verif.properties.retry_exempt_channels`).
    """
    from repro.verif.properties import retry_exempt_channels

    netlist.validate()
    retry_exempt = retry_exempt_channels(netlist)
    lines = ["-- Generated by repro: NuSMV model of the elastic control network",
             f"-- design: {netlist.name}"]
    kinds = {node.kind for node in netlist.nodes.values()}
    if "eb" in kinds:
        lines.append(_EB_MODULE)
    if "zbl_eb" in kinds:
        lines.append(_ZBL_MODULE)
    if "shared" in kinds:
        lines.append(_SHARED_MODULE)
    lines.append("MODULE main")
    env_channels = []
    var_lines = ["  VAR"]
    for name, channel in netlist.channels.items():
        src = netlist.nodes[channel.producer[0]]
        dst = netlist.nodes[channel.consumer[0]]
        if src.is_environment:
            var_lines.append(f"    {name}_vp : boolean;  -- env-driven valid")
            var_lines.append(f"    {name}_sm : boolean;")
            env_channels.append(name)
        if dst.is_environment:
            var_lines.append(f"    {name}_sp : boolean;  -- env back-pressure")
            var_lines.append(f"    {name}_vm : boolean;")
    instances = []
    for node in netlist.nodes.values():
        if node.kind == "eb":
            i, o = node.channel("i").name, node.channel("o").name
            instances.append(
                f"    u_{node.name} : elastic_buffer({i}_vp, {o}_sp, {o}_vm, {i}_sm);"
            )
        elif node.kind == "zbl_eb":
            i, o = node.channel("i").name, node.channel("o").name
            instances.append(
                f"    u_{node.name} : zbl_buffer({i}_vp, {o}_sp, {o}_vm, {i}_sm);"
            )
        elif node.kind == "shared":
            if node.n_channels != 2:
                raise BackendError("SMV back-end emits 2-channel shared modules")
            i0 = node.channel("i0").name
            i1 = node.channel("i1").name
            o0 = node.channel("o0").name
            o1 = node.channel("o1").name
            var_lines.append(f"    {node.name}_g : 0..1;  -- scheduler prediction")
            instances.append(
                f"    u_{node.name} : shared2({i0}_vp, {i1}_vp, {o0}_sp, {o1}_sp, "
                f"{o0}_vm, {o1}_vm, {i0}_sm, {i1}_sm, {node.name}_g);"
            )
        elif node.is_environment:
            continue
        else:
            instances.append(
                f"    -- node {node.name} ({node.kind}): combinational control,"
                " expanded in DEFINEs by the user flow"
            )
    lines.extend(var_lines)
    lines.extend(instances)
    specs = []
    for name in netlist.channels:
        src = netlist.nodes[netlist.channels[name].producer[0]]
        dst = netlist.nodes[netlist.channels[name].consumer[0]]
        if src.is_environment or dst.is_environment:
            continue
        specs.append(_specs(name, name in retry_exempt))
        if liveness:
            specs.append(
                f"  LTLSPEC G F (({name}_vp & !{name}_sp) | ({name}_vm & !{name}_sm))"
            )
    lines.extend(specs)
    return "\n".join(lines)
