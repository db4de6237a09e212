"""Canned paper designs, shared by the CLI and the job server.

One registry instead of two: ``python -m repro export/profile/explore/
lint`` and the ``repro serve`` job kinds (``measure``, ``verify``,
``lint``, ``chaos``) resolve design names through the same tables, so a
design a client can ask the server for is one the CLI can inspect.

The fig6b/fig7b entries use pure (index-seeded) op streams so that
resetting and re-running replays the same tokens — warm measurement
loops and repeated server requests score every design reproducibly.

Factories import lazily inside the functions, keeping ``import
repro.designs`` (and therefore ``import repro.cli``) free of the heavy
simulation modules.
"""

from __future__ import annotations


def _fig1a():
    from repro.netlist import patterns

    return patterns.fig1a(lambda g: g % 2)


def _fig1d():
    from repro.netlist import patterns

    return patterns.table1_design()


def _fig6b():
    from repro.netlist.varlat import variable_latency_speculative

    return variable_latency_speculative(pure_stream=True)


def _fig7b():
    from repro.netlist.resilient import resilient_speculative

    return resilient_speculative(pure_stream=True)


#: simulation / analysis designs (``measure`` and ``lint`` jobs, the CLI's
#: ``export`` / ``profile`` / ``explore`` / ``lint`` subcommands).  Each
#: factory returns the pattern function's ``(netlist, names)`` pair; the
#: registry values here unwrap to the netlist for the CLI's historical
#: ``_DESIGNS[name]()`` contract.
_DESIGN_FACTORIES = {
    "fig1a": _fig1a,
    "fig1d": _fig1d,
    "fig6b": _fig6b,
    "fig7b": _fig7b,
}

DESIGNS = {
    name: (lambda factory=factory: factory()[0])
    for name, factory in _DESIGN_FACTORIES.items()
}


def build_design(name, with_names=False):
    """Instantiate a fresh netlist for a registered design name.

    ``with_names=True`` also returns the pattern's friendly-name mapping
    (``{"ebin": <channel>, ...}``) so callers can address channels the
    way the paper's figures label them."""
    try:
        factory = _DESIGN_FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown design {name!r} "
            f"(known: {', '.join(sorted(_DESIGN_FACTORIES))})"
        ) from None
    net, names = factory()
    return (net, names) if with_names else net


# -- model-checking compositions ---------------------------------------------

def _buffer_mc(make):
    """One elastic buffer under a nondeterministic source and a killing
    nondeterministic sink — the Section 4.2 single-controller check."""
    from repro.elastic.environment import NondetSink, NondetSource
    from repro.netlist.graph import Netlist

    net = Netlist("mc")
    node = net.add(make())
    net.add(NondetSource("src"))
    net.add(NondetSink("snk", can_kill=True))
    net.connect("src.o", (node.name, "i"), name="in")
    net.connect((node.name, "o"), "snk.i", name="out")
    return net


def _mc_eb():
    from repro.elastic.buffers import ElasticBuffer

    return _buffer_mc(lambda: ElasticBuffer("eb"))


def _mc_zbl():
    from repro.elastic.buffers import ZeroBackwardLatencyBuffer

    return _buffer_mc(lambda: ZeroBackwardLatencyBuffer("eb"))


def _mc_speculative(scheduler_name):
    from repro.core.scheduler import (
        NondetScheduler,
        StaticScheduler,
        ToggleScheduler,
    )
    from repro.netlist import patterns

    scheduler = {
        "toggle": lambda: ToggleScheduler(2),
        "nondet": lambda: NondetScheduler(2),
        "static": lambda: StaticScheduler(2, favourite=0, repair=False),
    }[scheduler_name]()
    return patterns.speculative_mc(scheduler)[0]


#: model-checking designs (``verify`` and exhaustive ``chaos`` jobs):
#: buffers under nondet environments plus the speculative shared-module
#: composition with each scheduler the paper's Section 4.2 studies.
MC_DESIGNS = {
    "eb": _mc_eb,
    "zbl": _mc_zbl,
    "spec-toggle": lambda: _mc_speculative("toggle"),
    "spec-nondet": lambda: _mc_speculative("nondet"),
    "spec-static": lambda: _mc_speculative("static"),
}

#: Section 4.2's verdict rule per model-checking design, besides safety:
#: the buffers must be ``deadlock-free``; leads-to (equation 1) on both
#: shared channels must hold for the compliant scheduler (``live``), is
#: only reported for the nondeterministic one, the specification
#: (``safe``), and must fail for the static one without repair
#: (``starves``).
MC_VERDICTS = {"eb": "deadlock-free", "zbl": "deadlock-free",
               "spec-toggle": "live", "spec-nondet": "safe",
               "spec-static": "starves"}


def build_mc_design(name):
    """Instantiate a fresh netlist for a registered model-checking design."""
    try:
        factory = MC_DESIGNS[name]
    except KeyError:
        raise ValueError(
            f"unknown model-checking design {name!r} "
            f"(known: {', '.join(sorted(MC_DESIGNS))})"
        ) from None
    return factory()
