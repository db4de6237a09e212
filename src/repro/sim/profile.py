"""Fix-point engine profiling.

Answers "where do the ``comb()`` calls go?" for a design: per-node-kind
call counts plus a histogram of ``comb()`` evaluations per cycle.  Useful
for spotting designs whose cyclic regions defeat the levelized seed order
(the worklist engine evaluates each node once per cycle elsewhere)::

    from repro.sim.profile import profile_run, format_profile
    print(format_profile(profile_run(net, cycles=500)))

or from the command line::

    python -m repro profile --design fig1d
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.sim.engine import Simulator


@dataclass
class ProfileReport:
    """Aggregated fix-point counters for one simulation run."""

    engine: str
    cycles: int
    n_nodes: int
    #: kind -> (total comb calls, node count)
    comb_calls_by_kind: dict
    total_comb_calls: int
    evals_per_cycle: list

    @property
    def calls_per_cycle(self):
        return self.total_comb_calls / self.cycles if self.cycles else 0.0

    def eval_histogram(self):
        """Counter: evaluations-in-one-cycle -> number of cycles."""
        return Counter(self.evals_per_cycle)


def profile_run(netlist, cycles=500, engine=None, check_protocol=False):
    """Simulate ``cycles`` cycles with profiling on; returns the report.

    The netlist is simulated in place (and reset first, as always); pass a
    ``netlist.clone()`` to keep the original untouched.
    """
    sim = Simulator(netlist, engine=engine, check_protocol=check_protocol,
                    profile=True)
    sim.run(cycles)
    return sim.profile_report()


def format_profile(report):
    """Render a :class:`ProfileReport` as a text table."""
    lines = [
        f"engine={report.engine}  cycles={report.cycles}  nodes={report.n_nodes}",
        f"comb() calls: {report.total_comb_calls} total, "
        f"{report.calls_per_cycle:.1f}/cycle "
        f"({report.calls_per_cycle / max(report.n_nodes, 1):.2f} per node per cycle)",
        "",
        f"{'kind':<14} {'nodes':>5} {'calls':>10} {'calls/node/cycle':>17}",
    ]
    for kind, (calls, count) in report.comb_calls_by_kind.items():
        per = calls / (count * report.cycles) if report.cycles else 0.0
        lines.append(f"{kind:<14} {count:>5} {calls:>10} {per:>17.2f}")
    lines.append("")
    lines.append("evaluations per cycle histogram:")
    for evals, n in sorted(report.eval_histogram().items()):
        lines.append(f"  {evals:>5} evaluations x {n} cycle(s)")
    return "\n".join(lines)
