"""Simulation-based throughput measurement.

For speculative designs the throughput depends on the select stream and the
scheduler's accuracy, so it is measured by running the cycle-accurate
simulator and counting forward transfers on a reference channel — the same
methodology as the paper's toolkit ("the Verilog netlist ... is simulated
and the throughput and the cycle time are reported").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.engine import Simulator


@dataclass
class ThroughputResult:
    """Measured throughput and derived effective performance."""

    channel: str
    transfers: int
    cycles: int
    throughput: float
    cycle_time: float = None
    effective_cycle_time: float = None

    def __str__(self):
        text = (
            f"{self.transfers} transfers / {self.cycles} cycles = "
            f"{self.throughput:.4f}"
        )
        if self.effective_cycle_time is not None:
            text += (
                f"; T={self.cycle_time:.2f}, effective {self.effective_cycle_time:.2f}"
            )
        return text


def measure_throughput(netlist, channel, cycles=2000, warmup=100,
                       tech=None, check_protocol=True, observers=(),
                       reuse_simulator=None):
    """Run the design and report transfers/cycle on ``channel``.

    Owner contract: the measurement runs on ``netlist`` itself, not on a
    copy.  A fresh :class:`Simulator` takes ownership of it and resets its
    sequential state first (every seeded environment reseeds in
    ``reset``), so back-to-back measurements of one netlist agree with
    each other and with a measurement of a clone taken beforehand.
    Afterwards the netlist holds the state the run ended in, and any
    simulator built on it earlier is superseded (stepping it raises).  A
    caller that must keep its original state or simulator measures a
    copy (:meth:`~repro.netlist.graph.Netlist.clone`) instead; sweeps, reports and ``repro serve``
    measure a netlist they built for this one measurement.

    When ``tech`` is given, the static cycle time is attached and the
    *effective cycle time* (clock period / throughput — average time per
    transfer) is derived; that is the figure of merit of Section 5.1
    ("improves the effective cycle time by 9%").

    ``reuse_simulator`` is the warm-loop mode for transform-simulate-
    measure exploration: pass a live :class:`Simulator` that owns
    ``netlist`` (typically :meth:`Session.simulator`, kept current across
    transformations by following the edit log) and the measurement
    resets it and runs *in place* — no simulator rebuild.  The netlist's sequential state is reset exactly as a fresh
    construction would, so the measured figures match the rebuild path
    *provided every node's* ``reset()`` *replays deterministically* —
    sources whose stream closures share one RNG across calls (the default
    ``alu_op_stream`` / ``encoded_op_stream``) do not; use their
    ``pure=True`` / ``pure_stream=True`` variants for reproducible warm
    measurements.  ``check_protocol`` is fixed by the reused simulator's
    construction, and ``observers`` are attached for the duration of the
    measurement only.
    """
    if reuse_simulator is not None:
        sim = reuse_simulator
        if sim.netlist is not netlist:
            raise ValueError(
                "reuse_simulator must be a Simulator constructed on the "
                "measured netlist"
            )
        added = list(observers)
        sim.observers.extend(added)
        try:
            sim.reset()
            sim.run(warmup)
            base = sim.stats.transfers[channel]
            sim.run(cycles)
            transfers = sim.stats.transfers[channel] - base
        finally:
            for observer in added:
                sim.observers.remove(observer)
    else:
        sim = Simulator(netlist, check_protocol=check_protocol,
                        observers=list(observers))
        sim.run(warmup)
        base = sim.stats.transfers[channel]
        sim.run(cycles)
        transfers = sim.stats.transfers[channel] - base
    throughput = transfers / cycles if cycles else 0.0
    result = ThroughputResult(
        channel=channel, transfers=transfers, cycles=cycles, throughput=throughput
    )
    if tech is not None:
        from repro.perf.timing import cycle_time

        result.cycle_time = cycle_time(netlist, tech)
        if throughput > 0:
            result.effective_cycle_time = result.cycle_time / throughput
    return result
