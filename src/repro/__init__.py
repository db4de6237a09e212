"""repro — a reproduction of *Speculation in Elastic Systems* (DAC 2009).

The library implements synchronous elastic (SELF) systems with anti-token
counterflow, early evaluation and speculative shared modules, plus the
exploration toolkit the paper's Section 5 describes: correct-by-construction
transformations, cycle-accurate simulation, performance analysis, built-in
model checking and Verilog/SMV/BLIF back-ends.

Quick start::

    from repro import patterns, Simulator
    from repro.sim import TraceRecorder, format_trace_table

    net, names = patterns.table1_design()
    trace = TraceRecorder([names["fin0"], names["fout0"],
                           names["fin1"], names["fout1"]])
    Simulator(net, observers=[trace]).run(7)
    print(format_trace_table(trace))

Every package's exports, and this one's, load on first use (PEP 562, see
:mod:`repro._lazy`): ``import repro`` imports no subpackage, and a name
such as ``repro.Simulator`` or ``repro.sim`` imports the module that
defines it when it is first looked up.  A process therefore loads only
the layers it runs.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".elastic.channel": ("Channel",),
    ".elastic.buffers": ("ElasticBuffer", "ZeroBackwardLatencyBuffer",
                         "bubble"),
    ".elastic.functional": ("Func",),
    ".elastic.fork": ("EagerFork",),
    ".elastic.eemux": ("EarlyEvalMux",),
    ".elastic.environment": ("ListSource", "FunctionSource", "Sink",
                             "KillerSink"),
    ".core.shared": ("SharedModule",),
    ".core.scheduler": ("StaticScheduler", "ToggleScheduler",
                        "RoundRobinScheduler", "RepairScheduler",
                        "PrimaryScheduler", "TwoBitScheduler",
                        "OracleScheduler"),
    ".core.speculation": ("speculate",),
    ".netlist.graph": ("Netlist",),
    ".netlist.dot": ("to_dot",),
    ".netlist": ("patterns",),
    ".lint.diagnostics": ("Diagnostic", "LintReport"),
    ".lint.runner": ("run_lint", "cached_lint"),
    ".sim.engine": ("Simulator",),
    ".sim.trace": ("TraceRecorder", "format_trace_table"),
    ".transform.session": ("Session",),
})

__all__ = ["errors", *__all__, "__version__"]
