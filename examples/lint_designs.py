#!/usr/bin/env python3
"""Static analysis walkthrough for the ``repro.lint`` subsystem.

Three acts:

1. lint a healthy design (the Table 1 speculative loop) — clean bill;
2. break it three ways — a zero-bubble ring, speculation with no kill
   point, a mis-wired width — and show each diagnostic with its fix hint;
3. audit the sensitivity every engine optimization silently trusts (the
   reads derived from each ``comb`` and the port-role drives), catching a
   seeded bug in the derivation.

Run:  python examples/lint_designs.py
"""

from repro import patterns, run_lint, to_dot
from repro.core import SharedModule, StaticScheduler
from repro.elastic import ElasticBuffer, Func, ListSource, Sink
from repro.lint import audit_node
from repro.netlist import Netlist
from repro.sim import inline


def act1_clean_design():
    print("=== 1. a healthy design lints clean ===")
    net, _ = patterns.table1_design()
    report = run_lint(net)
    print(f"{net.name}: {report.summary()}")
    assert report.ok
    print()


def act2_broken_designs():
    print("=== 2. three broken designs, three diagnostics ===")

    # a ring of elastic buffers with every slot occupied: tokens have
    # nowhere to move, the design deadlocks on cycle one
    ring = Netlist("full_ring")
    for i in range(3):
        ring.add(ElasticBuffer(f"eb{i}", init=(i, i), capacity=2))
    for i in range(3):
        ring.connect(f"eb{i}.o", f"eb{(i + 1) % 3}.i")

    # a shared (speculative) module whose outputs reach only plain sinks:
    # a mispredicted token can never be killed
    spec = Netlist("unkillable")
    spec.add(ListSource("a", [1, 2]))
    spec.add(ListSource("b", [3, 4]))
    spec.add(SharedModule("sh", fn=lambda v: v,
                          scheduler=StaticScheduler(2), n_channels=2))
    spec.add(Sink("s0"))
    spec.add(Sink("s1"))
    spec.connect("a.o", "sh.i0")
    spec.connect("b.o", "sh.i1")
    spec.connect("sh.o0", "s0.i")
    spec.connect("sh.o1", "s1.i")

    # a buffer asked to carry 16-bit tokens out of an 8-bit port
    widths = Netlist("mis_width")
    widths.add(ListSource("src", [1]))
    widths.add(ElasticBuffer("eb"))
    widths.add(Sink("snk"))
    widths.connect("src.o", "eb.i", width=16)
    widths.connect("eb.o", "snk.i", width=8)

    for net in (ring, spec, widths):
        report = run_lint(net)
        print(f"{net.name}: {report.summary()}")
        for diag in report.diagnostics:
            print(f"  {diag}")
            print(f"      fix: {diag.fix_hint}")
    # the dot export colors the offenders for a visual diff
    overlay = to_dot(ring, diagnostics=run_lint(ring).diagnostics)
    print(f"dot overlay marks the ring: {'E102' in overlay}")
    print()


def act3_sensitivity_audit():
    print("=== 3. auditing the derived sensitivity ===")

    honest = Func("honest", fn=lambda a, b: a + b, n_inputs=2)
    audit = audit_node(honest)
    print(f"{audit.node}: derived == observed: "
          f"{audit.observed_reads == audit.declared_reads}")

    class Liar(Func):
        """A function block the seeded bug below derives wrongly."""

    derived = inline.comb_sensitivity

    def buggy(node):
        """The derivation with a bug: it loses a liar's read of i0.data,
        so the worklist engine would skip re-evaluating it when that
        input changes."""
        tasks, reads = derived(node)
        if isinstance(node, Liar):
            reads = tuple(pair for pair in reads if pair != ("i0", "data"))
        return tasks, reads

    inline.comb_sensitivity = buggy
    try:
        audit = audit_node(Liar("liar", fn=lambda a, b: a + b, n_inputs=2))
    finally:
        inline.comb_sensitivity = derived
    print(f"{audit.node}: undeclared reads caught: "
          f"{sorted(audit.undeclared_reads)}")
    assert ("i0", "data") in audit.undeclared_reads
    print()


if __name__ == "__main__":
    act1_clean_design()
    act2_broken_designs()
    act3_sensitivity_audit()
    print("lint walkthrough complete")
