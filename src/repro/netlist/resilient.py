"""Figure 7: resilient (SECDED-protected) adder, non-speculative vs.
speculative.

A stream of 64-bit operand pairs arrives SECDED-encoded (72 bits each),
with soft errors injected at a configurable rate.  The stage must deliver
``a + b`` on *corrected* operands.

* :func:`plain_adder` — no protection: one pipeline stage, the baseline the
  error-free speculative design must match.
* :func:`resilient_nonspeculative` — Figure 7(a): "SECDED needs a whole
  pipeline stage, and thus, the pipeline is deeper": EB -> SECDED correct
  -> EB -> add.
* :func:`resilient_speculative` — Figure 7(b): the adder starts immediately
  on the raw (unchecked) operands while SECDED runs in parallel; the
  detector outcome drives the early-evaluation mux; on error the addition
  replays one cycle later with the corrected values parked in the recovery
  EB.  "The system always predicts that no errors will be found."

Block delays and areas come from the gate-level models: the Kogge-Stone
64-bit prefix adder (the paper's "64-bit prefix-adder") and the SECDED
encoder/decoder/detector XOR trees.
"""

from __future__ import annotations

import random

from repro.core.scheduler import PrimaryScheduler
from repro.core.shared import SharedModule
from repro.datapath.adders import kogge_stone_adder
from repro.datapath.secded import Secded
from repro.elastic.buffers import ElasticBuffer
from repro.elastic.environment import FunctionSource, Sink
from repro.elastic.eemux import EarlyEvalMux
from repro.elastic.fork import EagerFork
from repro.elastic.functional import Func
from repro.netlist.graph import Netlist
from repro.tech.library import DEFAULT_TECH, memoized_costs

_MASK64 = (1 << 64) - 1


def encoded_op_stream(code, error_rate=0.0, seed=0, double_rate=0.0,
                      pure=False):
    """Generator fn(i) -> (code_a, code_b): encoded random operand pairs
    with injected single-bit (and optionally double-bit) errors.

    ``pure=True`` makes the generator a pure function of the index (a
    fresh RNG seeded from ``(seed, i)`` per call), so resetting and
    re-running the netlist replays the same stream — required for
    reproducible warm-simulator measurements (``reuse_simulator=``); the
    default shares one RNG across calls and is cheaper but replays
    differently after a reset.
    """

    def draw(rng):
        def corrupt(word):
            if double_rate and rng.random() < double_rate:
                bits = rng.sample(range(code.code_bits), 2)
                return code.inject(word, *bits)
            if error_rate and rng.random() < error_rate:
                return code.inject(word, rng.randrange(code.code_bits))
            return word

        a = rng.getrandbits(64)
        b = rng.getrandbits(64)
        return (corrupt(code.encode(a)), corrupt(code.encode(b)))

    if pure:
        def gen(i):
            return draw(random.Random(seed * 0x9E3779B1 + i))

        return gen

    rng = random.Random(seed)

    def gen(_i):
        return draw(rng)

    return gen


#: ``_blocks`` results by code and cell table: the gate-level netlists
#: behind them take ~17 ms to synthesize, 100x a fig7b build without them.
_BLOCKS_CACHE = {}


def _blocks(code, tech):
    return memoized_costs(_BLOCKS_CACHE, (type(code), code.data_bits), tech,
                          lambda: _synthesize_blocks(code, tech))


def _synthesize_blocks(code, tech):
    adder = kogge_stone_adder(64)
    stats = code.stats(tech)
    return {
        "add_delay": adder.delay(tech),
        "add_area": adder.area(tech),
        "correct_delay": stats["decoder"]["delay"],
        "correct_area": 2 * stats["decoder"]["area"],      # one per operand
        "detect_delay": stats["detector"]["delay"],
        "detect_area": 2 * stats["detector"]["area"],
        "strip_delay": 0.0,                                # wiring only
        "strip_area": 0.0,
    }


def _strip(code):
    def fn(tok):
        a, b = tok
        return (code.decode_raw(a), code.decode_raw(b))

    return fn


def _correct(code):
    def fn(tok):
        a, b = tok
        return (code.decode(a).data, code.decode(b).data)

    return fn


def _detect(code):
    def fn(tok):
        a, b = tok
        return int(code.decode(a).status != "ok" or code.decode(b).status != "ok")

    return fn


def _add(tok):
    a, b = tok
    return (a + b) & _MASK64


def plain_adder(code=None, tech=None, error_rate=0.0, seed=0,
                pure_stream=False):
    """Unprotected baseline: src -> EB -> strip+add -> EB -> sink."""
    code = code or Secded(64)
    tech = tech or DEFAULT_TECH
    blocks = _blocks(code, tech)
    net = Netlist("fig7_plain")
    net.add(FunctionSource("src", encoded_op_stream(code, error_rate, seed,
                                                    pure=pure_stream)))
    net.add(ElasticBuffer("eb_in", capacity=2))
    strip = _strip(code)
    net.add(Func("add", lambda tok: _add(strip(tok)), n_inputs=1,
                 delay=blocks["add_delay"], area_cost=blocks["add_area"]))
    net.add(ElasticBuffer("eb_out", capacity=2))
    net.add(Sink("snk"))
    net.connect("src.o", "eb_in.i", name="in", width=144)
    net.connect("eb_in.o", "add.i0", name="raw", width=144)
    net.connect("add.o", "eb_out.i", name="sum", width=64)
    net.connect("eb_out.o", "snk.i", name="out", width=64)
    net.validate()
    return net, {"out": "out"}


def resilient_nonspeculative(code=None, tech=None, error_rate=0.0, seed=0,
                             pure_stream=False):
    """Figure 7(a): src -> EB -> SECDED correct -> EB -> add -> EB -> sink
    (one extra pipeline stage, always paid)."""
    code = code or Secded(64)
    tech = tech or DEFAULT_TECH
    blocks = _blocks(code, tech)
    net = Netlist("fig7a")
    net.add(FunctionSource("src", encoded_op_stream(code, error_rate, seed,
                                                    pure=pure_stream)))
    net.add(ElasticBuffer("eb_in", capacity=2))
    net.add(Func("secded", _correct(code), n_inputs=1,
                 delay=blocks["correct_delay"], area_cost=blocks["correct_area"]))
    net.add(ElasticBuffer("eb_mid", capacity=2))
    net.add(Func("add", _add, n_inputs=1,
                 delay=blocks["add_delay"], area_cost=blocks["add_area"]))
    net.add(ElasticBuffer("eb_out", capacity=2))
    net.add(Sink("snk"))
    net.connect("src.o", "eb_in.i", name="in", width=144)
    net.connect("eb_in.o", "secded.i0", name="raw", width=144)
    net.connect("secded.o", "eb_mid.i", name="corrected", width=128)
    net.connect("eb_mid.o", "add.i0", name="to_add", width=128)
    net.connect("add.o", "eb_out.i", name="sum", width=64)
    net.connect("eb_out.o", "snk.i", name="out", width=64)
    net.validate()
    return net, {"out": "out"}


def resilient_speculative(code=None, tech=None, error_rate=0.0, seed=0,
                          scheduler=None, pure_stream=False):
    """Figure 7(b): speculate "no error"; replay from the recovery EB when
    SECDED disagrees."""
    code = code or Secded(64)
    tech = tech or DEFAULT_TECH
    blocks = _blocks(code, tech)
    scheduler = scheduler or PrimaryScheduler(2, primary=0)
    net = Netlist("fig7b")
    net.add(FunctionSource("src", encoded_op_stream(code, error_rate, seed,
                                                    pure=pure_stream)))
    net.add(ElasticBuffer("eb_in", capacity=2))
    net.add(EagerFork("fork", n_outputs=3))
    net.add(Func("raw", _strip(code), n_inputs=1,
                 delay=blocks["strip_delay"], area_cost=blocks["strip_area"]))
    net.add(Func("correct", _correct(code), n_inputs=1,
                 delay=blocks["correct_delay"], area_cost=blocks["correct_area"]))
    net.add(ElasticBuffer("recovery_eb", capacity=2))
    net.add(Func("detect", _detect(code), n_inputs=1,
                 delay=blocks["detect_delay"], area_cost=blocks["detect_area"]))
    net.add(SharedModule("sharedAdd", _add, scheduler, n_channels=2,
                         delay=blocks["add_delay"], area_cost=blocks["add_area"]))
    net.add(EarlyEvalMux("mux", n_inputs=2))
    net.add(ElasticBuffer("eb_out", capacity=2))
    net.add(Sink("snk"))
    net.connect("src.o", "eb_in.i", name="in", width=144)
    net.connect("eb_in.o", "fork.i", name="fk", width=144)
    net.connect("fork.o0", "raw.i0", name="c_raw", width=144)
    net.connect("fork.o1", "correct.i0", name="c_corr", width=144)
    net.connect("fork.o2", "detect.i0", name="c_det", width=144)
    net.connect("raw.o", "sharedAdd.i0", name="fin0", width=128)
    net.connect("correct.o", "recovery_eb.i", name="corr_out", width=128)
    net.connect("recovery_eb.o", "sharedAdd.i1", name="fin1", width=128)
    net.connect("sharedAdd.o0", "mux.i0", name="fout0", width=64)
    net.connect("sharedAdd.o1", "mux.i1", name="fout1", width=64)
    net.connect("detect.o", "mux.s", name="sel", width=1)
    net.connect("mux.o", "eb_out.i", name="mux_out", width=64)
    net.connect("eb_out.o", "snk.i", name="out", width=64)
    net.validate()
    names = {"out": "out", "shared": "sharedAdd", "sel": "sel",
             "recovery": "recovery_eb"}
    return net, names


def reference_sums(code, n_ops, error_rate=0.0, seed=0):
    """Golden model: corrected sums for the first ``n_ops`` pairs."""
    gen = encoded_op_stream(code, error_rate, seed)
    out = []
    for i in range(n_ops):
        a, b = gen(i)
        out.append((code.decode(a).data + code.decode(b).data) & _MASK64)
    return out
