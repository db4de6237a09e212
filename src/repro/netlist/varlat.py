"""Figure 6: variable-latency unit, stalling vs. speculative.

Both designs compute ``G(F(op, a, b))`` for a stream of 8-bit ALU
operations; ``F`` is variable-latency (``F_approx`` usually suffices,
``F_exact`` is needed when the carry-window approximation fails).

* :func:`variable_latency_stalling` — Figure 6(a): a telescopic unit that
  stalls one extra cycle when ``F_err`` fires.  ``F_err`` needs the exact
  result (it is a comparison against ``F_approx``) and gates the stage's
  clock enables, so the ``F_exact -> F_err -> controller`` path sets the
  clock (Section 5.1: "F_exact followed by a few gates of the controller is
  delay critical").

* :func:`variable_latency_speculative` — Figure 6(b): Shannon decomposition
  plus sharing turn the same computation into speculation-with-replay: the
  approximate result feeds the shared ``G`` directly, the exact result
  parks in an empty EB, and the ``F_err`` outcome drives the
  early-evaluation mux select.  The error path now ends in elastic
  handshakes (a registered decision), pulling it off the clock-critical
  path.

All block delays and areas are taken from the gate-level models of
:mod:`repro.datapath` against the technology library — nothing here is a
free parameter except the operation stream.
"""

from __future__ import annotations

import random

from repro.core.scheduler import PrimaryScheduler
from repro.datapath.alu import ALU_OPS, Alu
from repro.elastic.buffers import ElasticBuffer
from repro.elastic.environment import FunctionSource, Sink
from repro.elastic.eemux import EarlyEvalMux
from repro.elastic.fork import EagerFork
from repro.elastic.functional import Func
from repro.elastic.varlat import VariableLatencyUnit
from repro.core.shared import SharedModule
from repro.netlist.graph import Netlist
from repro.tech.library import DEFAULT_TECH, memoized_costs

#: downstream-stage function G (the shaded block of Figure 6(b)).
def _g_stage(value):
    return (value * 3 + 1) & 0xFF


#: comparator cost on top of F_exact for F_err (8-bit equality).
_CMP_DELAY = 2.8
_CMP_AREA = 8 * 2.2 + 3 * 1.3


#: the ops a stream token draws from: arithmetic, else logic
_ARITH_OPS = (ALU_OPS["add"], ALU_OPS["sub"])
_LOGIC_OPS = tuple(ALU_OPS.values())[2:]


def alu_op_stream(n_ops=None, seed=0, arith_fraction=0.7, width=8,
                  pure=False):
    """Deterministic random stream of ``(op, a, b)`` tuples.

    The default generator advances one shared RNG per call — cheap, but
    the value of token ``i`` depends on how many tokens were drawn before
    it.  ``pure=True`` makes the generator a *pure function of the index*
    (a fresh RNG seeded by ``(seed, i)`` per call), so a netlist that is
    reset and re-run replays the exact same stream — the property the
    warm-simulator measurement loop (``reuse_simulator=``) relies on for
    run-to-run reproducibility.
    """
    def draw(rng):
        op = rng.choice(_ARITH_OPS if rng.random() < arith_fraction
                        else _LOGIC_OPS)
        return (op, rng.getrandbits(width), rng.getrandbits(width))

    if pure:
        def gen(i):
            return draw(random.Random(seed * 0x9E3779B1 + i))

        return gen

    rng = random.Random(seed)

    def gen(_i):
        return draw(rng)

    return gen


#: ``_alu_blocks`` results by ALU geometry and cell table: synthesizing the
#: gate-level ALU costs more than the rest of a fig6 build.
_ALU_BLOCKS_CACHE = {}


def _alu_blocks(alu, tech):
    """Delay/area figures derived from the gate-level ALU."""
    return memoized_costs(_ALU_BLOCKS_CACHE,
                          (type(alu), alu.width, alu.window), tech,
                          lambda: _synthesize_alu_blocks(alu, tech))


def _synthesize_alu_blocks(alu, tech):
    stats = alu.stats(tech)
    return {
        "exact_delay": stats["exact"]["delay"],
        "approx_delay": stats["approx"]["delay"],
        "err_delay": stats["exact"]["delay"] + _CMP_DELAY,   # compare vs exact
        "exact_area": stats["exact"]["area"] + stats["logic"]["area"],
        "approx_area": stats["approx"]["area"] + stats["logic"]["area"],
        "err_area": stats["err"]["area"] + _CMP_AREA,
        "g_delay": stats["logic"]["delay"] + 2.0,            # next-stage logic
        "g_area": stats["logic"]["area"] + 30.0,
    }


def variable_latency_stalling(alu=None, tech=None, seed=0, arith_fraction=0.7,
                              pure_stream=False):
    """Figure 6(a): src -> EB -> stalling VL unit -> G -> EB -> sink."""
    alu = alu or Alu(width=8, window=3)
    tech = tech or DEFAULT_TECH
    blocks = _alu_blocks(alu, tech)
    net = Netlist("fig6a")
    net.add(FunctionSource("src", alu_op_stream(seed=seed,
                                                arith_fraction=arith_fraction,
                                                pure=pure_stream)))
    net.add(ElasticBuffer("eb_in", capacity=2))
    unit = VariableLatencyUnit(
        "vl",
        fn=lambda tok: alu.exact_value(*tok),
        err_fn=lambda tok: alu.mispredicts(*tok),
        delay=blocks["exact_delay"],
        err_path_delay=blocks["err_delay"] + tech.vl_ctrl_delay,
        area_cost=blocks["exact_area"] + blocks["approx_area"] + blocks["err_area"],
    )
    net.add(unit)
    net.add(Func("G", _g_stage, n_inputs=1,
                 delay=blocks["g_delay"], area_cost=blocks["g_area"]))
    net.add(ElasticBuffer("eb_out", capacity=2))
    net.add(Sink("snk"))
    net.connect("src.o", "eb_in.i", name="in", width=18)
    net.connect("eb_in.o", "vl.i", name="vl_in", width=18)
    net.connect("vl.o", "G.i0", name="vl_out", width=8)
    net.connect("G.o", "eb_out.i", name="g_out", width=8)
    net.connect("eb_out.o", "snk.i", name="out", width=8)
    net.validate()
    names = {"out": "out", "unit": "vl"}
    return net, names


def variable_latency_speculative(alu=None, tech=None, seed=0,
                                 arith_fraction=0.7, scheduler=None,
                                 pure_stream=False):
    """Figure 6(b): the speculative variable-latency unit.

    src -> EB -> fork3 -> { F_approx -> shared.i0,
                            F_exact -> bubble EB -> shared.i1,
                            F_err -> mux select }
    shared(G) -> early-eval mux -> EB -> sink.
    """
    alu = alu or Alu(width=8, window=3)
    tech = tech or DEFAULT_TECH
    blocks = _alu_blocks(alu, tech)
    scheduler = scheduler or PrimaryScheduler(2, primary=0)
    net = Netlist("fig6b")
    net.add(FunctionSource("src", alu_op_stream(seed=seed,
                                                arith_fraction=arith_fraction,
                                                pure=pure_stream)))
    net.add(ElasticBuffer("eb_in", capacity=2))
    net.add(EagerFork("fork", n_outputs=3))
    net.add(Func("Fapprox", lambda tok: alu.approx_value(*tok), n_inputs=1,
                 delay=blocks["approx_delay"], area_cost=blocks["approx_area"]))
    net.add(Func("Fexact", lambda tok: alu.exact_value(*tok), n_inputs=1,
                 delay=blocks["exact_delay"], area_cost=blocks["exact_area"]))
    net.add(ElasticBuffer("recovery_eb", capacity=2))
    net.add(Func("Ferr", lambda tok: int(alu.mispredicts(*tok)), n_inputs=1,
                 delay=blocks["err_delay"], area_cost=blocks["err_area"]))
    net.add(SharedModule("sharedG", _g_stage, scheduler, n_channels=2,
                         delay=blocks["g_delay"], area_cost=blocks["g_area"]))
    net.add(EarlyEvalMux("mux", n_inputs=2))
    net.add(ElasticBuffer("eb_out", capacity=2))
    net.add(Sink("snk"))
    net.connect("src.o", "eb_in.i", name="in", width=18)
    net.connect("eb_in.o", "fork.i", name="fk", width=18)
    net.connect("fork.o0", "Fapprox.i0", name="c_approx", width=18)
    net.connect("fork.o1", "Fexact.i0", name="c_exact", width=18)
    net.connect("fork.o2", "Ferr.i0", name="c_err", width=18)
    net.connect("Fapprox.o", "sharedG.i0", name="fin0", width=8)
    net.connect("Fexact.o", "recovery_eb.i", name="exact_out", width=8)
    net.connect("recovery_eb.o", "sharedG.i1", name="fin1", width=8)
    net.connect("sharedG.o0", "mux.i0", name="fout0", width=8)
    net.connect("sharedG.o1", "mux.i1", name="fout1", width=8)
    net.connect("Ferr.o", "mux.s", name="sel", width=1)
    net.connect("mux.o", "eb_out.i", name="mux_out", width=8)
    net.connect("eb_out.o", "snk.i", name="out", width=8)
    net.validate()
    names = {"out": "out", "shared": "sharedG", "sel": "sel",
             "recovery": "recovery_eb"}
    return net, names


def reference_output_stream(alu, n_ops, seed=0, arith_fraction=0.7):
    """Golden model: exact pipeline results for the first ``n_ops`` tokens."""
    gen = alu_op_stream(seed=seed, arith_fraction=arith_fraction)
    return [_g_stage(alu.exact_value(*gen(i))) for i in range(n_ops)]
