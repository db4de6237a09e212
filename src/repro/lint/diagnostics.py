"""Diagnostic records and reports for :mod:`repro.lint`.

Every finding is a :class:`Diagnostic` with a *stable code* so scripts and
CI greps can rely on it across releases:

* ``E0xx`` — structural errors (wiring, widths, arities),
* ``E1xx`` — elastic-protocol errors derived from the paper's invariants
  (unbroken combinational cycles, zero-bubble deadlocks, unkillable
  speculation, sensitivity-derivation misses),
* ``W2xx`` — performance / coverage warnings (token-free cycles, dead
  nodes, fork/join imbalance, chaos splices left behind).

A :class:`LintReport` aggregates the findings of one :func:`repro.lint.run_lint`
pass with human (:meth:`LintReport.format`) and machine
(:meth:`LintReport.to_json`) renderings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

#: rank used by ``fail_on`` thresholds (higher = more severe).
SEVERITY_RANK = {SEVERITY_WARNING: 1, SEVERITY_ERROR: 2}

#: code -> (one-line meaning, default fix hint).  The README's rule catalog
#: is generated from the same table the diagnostics carry.
CODES = {
    "E001": ("dangling port",
             "connect the port or remove the node"),
    "E002": ("unbound channel endpoint",
             "attach both a producer and a consumer (or disconnect the channel)"),
    "E003": ("multiply-driven or inconsistently bound port",
             "every node port must be bound to exactly the one channel that claims it"),
    "E004": ("channel width mismatch across a width-preserving node",
             "make the input and output channel widths equal (buffers, forks and mux data paths do not resize data)"),
    "E005": ("declared arity drifted from the actual port list",
             "keep n_inputs/n_outputs/n_channels consistent with the declared ports"),
    "E101": ("combinational cycle not broken by a token-registering node",
             "insert an elastic buffer (insert_bubble) on the cycle"),
    "E102": ("zero-bubble cycle: every buffer on the cycle is full",
             "add capacity or remove initial tokens so at least one bubble can circulate"),
    "E103": ("speculative path with no reachable kill/commit point",
             "route the shared-module output to an early-evaluation mux data input (or a killing sink) so mispredicted tokens can be cancelled"),
    "E110": ("comb() read a channel signal its derived comb_reads() miss",
             "a bug in deriving the reads from comb() (repro.sim.inline): report it with the node kind — the worklist engine misses wakeups on that signal"),
    "E111": ("comb() drove a channel signal outside its port role",
             "drive only what the port role permits (producer: vp/sm/data, consumer: sp/vm) — every engine takes each signal's writer from port roles"),
    "W201": ("token-free cycle: no token can ever circulate",
             "initialize a token on the loop (eb init) or feed it through an early-evaluation mux"),
    "W202": ("dead node: unreachable from any token origin",
             "connect the node downstream of a source or a token-holding buffer, or remove it"),
    "W203": ("fork/join imbalance: a fork reaches only part of a lazy join's inputs",
             "balance the branches (the join will starve waiting for the unforked side)"),
    "W211": ("chaos splice left in the design",
             "chaos.unwrap(handle) the instrumented netlist (or rebuild it) before shipping — fault injection must not reach production"),
}


def severity_of(code):
    """Severity implied by a code's prefix (``E`` = error, ``W`` = warning)."""
    return SEVERITY_ERROR if code.startswith("E") else SEVERITY_WARNING


@dataclass(frozen=True)
class Diagnostic:
    """One lint finding.

    ``node`` / ``channel`` locate the finding in the netlist (either or
    both may be ``None`` for netlist-wide findings); ``hint`` is a fix
    suggestion, defaulting to the catalog entry for ``code``.
    """

    code: str
    message: str
    node: str = None
    channel: str = None
    hint: str = None
    rule: str = ""

    @property
    def severity(self):
        return severity_of(self.code)

    @property
    def fix_hint(self):
        if self.hint is not None:
            return self.hint
        meaning_hint = CODES.get(self.code)
        return meaning_hint[1] if meaning_hint else None

    def where(self):
        parts = []
        if self.node:
            parts.append(f"node {self.node}")
        if self.channel:
            parts.append(f"channel {self.channel}")
        return ", ".join(parts)

    def __str__(self):
        where = self.where()
        loc = f" [{where}]" if where else ""
        return f"{self.code} {self.message}{loc}"

    def to_dict(self):
        return {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "node": self.node,
            "channel": self.channel,
            "hint": self.fix_hint,
            "rule": self.rule,
        }


@dataclass
class LintReport:
    """All findings of one lint pass over one netlist."""

    netlist: str
    version: int
    rules: tuple
    diagnostics: list = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def errors(self):
        return [d for d in self.diagnostics if d.severity == SEVERITY_ERROR]

    @property
    def warnings(self):
        return [d for d in self.diagnostics if d.severity == SEVERITY_WARNING]

    @property
    def ok(self):
        """True when no *errors* were found (warnings are advisory)."""
        return not self.errors

    def exceeds(self, fail_on):
        """True when any finding is at or above the ``fail_on`` severity
        (``"never"`` / ``None`` never trips)."""
        if fail_on in (None, "never"):
            return False
        threshold = SEVERITY_RANK[fail_on]
        return any(SEVERITY_RANK[d.severity] >= threshold
                   for d in self.diagnostics)

    def by_code(self, code):
        return [d for d in self.diagnostics if d.code == code]

    def summary(self):
        return (f"{len(self.errors)} error(s), {len(self.warnings)} "
                f"warning(s) in {len(self.rules)} rule(s)")

    def format(self, hints=True):
        """Human rendering: one line per finding plus a summary line."""
        lines = []
        for diag in self.diagnostics:
            lines.append(f"{diag.severity}: {diag}")
            if hints and diag.fix_hint:
                lines.append(f"    hint: {diag.fix_hint}")
        lines.append(f"lint: {self.netlist}: {self.summary()}")
        return "\n".join(lines)

    def to_json(self, indent=2):
        payload = {
            "netlist": self.netlist,
            "version": self.version,
            "rules": list(self.rules),
            "ok": self.ok,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }
        return json.dumps(payload, indent=indent, sort_keys=True)

    def __str__(self):
        return self.format()
