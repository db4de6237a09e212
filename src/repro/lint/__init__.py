"""repro.lint — static analysis for elastic netlists.

The rule-based companion to the dynamic toolchain: where the simulator
and the model checker discover a broken design by running it into a
deadlock, lint finds the structural cause *before* anything runs — an
elastic cycle with no buffer, a loop with no bubble, a speculative path
whose mispredictions can never be killed — and it is the only tool that
verifies the ``comb_tasks()`` sensitivity declarations and the port-role
drives every engine optimization silently trusts (the ``sensitivity``
rule's auditor, :mod:`repro.lint.audit`).

Entry points::

    from repro.lint import run_lint

    report = run_lint(netlist)                      # static rules
    report = run_lint(netlist, rules="all")         # + sensitivity audit
    run_lint(netlist, fail_on="error")              # raise LintError

    python -m repro lint --design fig1d --json      # CLI
    python -m repro lint script.txt --fail-on warning

``Netlist.validate()`` is the fast core subset of the ``structure`` rule
(:func:`repro.lint.rules.core_structural_problems`); ``Session(...,
lint_after_transforms=True)`` runs the full default rule set inside every
transform's rollback scope.  :func:`cached_lint` memoizes a report on the
netlist's structural ``version`` (the PR 4 edit log), so transform loops
re-lint only after an actual edit.
"""

from __future__ import annotations

import time
import weakref

from repro.errors import LintError
from repro.lint.audit import (
    SensitivityAudit,
    audit_netlist,
    audit_node,
    undeclared_state,
)
from repro.lint.diagnostics import (
    CODES,
    Diagnostic,
    LintReport,
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    severity_of,
)
from repro.lint.rules import RULES, LintRule, core_structural_problems, lint_rule

#: rule names run by default (everything cheap and static; the dynamic
#: sensitivity audit is opt-in via ``rules="all"`` or an explicit list).
DEFAULT_RULES = tuple(name for name, rule in RULES.items() if rule.default)

#: every registered rule, audit included.
ALL_RULES = tuple(RULES)


def resolve_rules(rules=None):
    """Normalize a ``rules`` argument to a tuple of registered rule names.

    ``None`` selects the static default set, ``"all"`` every rule, and an
    iterable selects rules by name or by diagnostic code prefix (e.g.
    ``["cycles", "E103"]``).
    """
    if rules is None:
        return DEFAULT_RULES
    if rules == "all":
        return ALL_RULES
    if isinstance(rules, str):
        rules = [rules]
    selected = []
    for entry in rules:
        if entry in RULES:
            if entry not in selected:
                selected.append(entry)
            continue
        by_code = [name for name, rule in RULES.items() if entry in rule.codes]
        if not by_code:
            raise ValueError(
                f"unknown lint rule {entry!r} (known: {', '.join(RULES)})"
            )
        if by_code[0] not in selected:
            selected.append(by_code[0])
    return tuple(selected)


def run_lint(netlist, rules=None, fail_on=None):
    """Run the selected lint rules over ``netlist``.

    Returns a :class:`LintReport`; with ``fail_on`` set to ``"error"`` or
    ``"warning"`` a report with findings at or above that severity raises
    :class:`~repro.errors.LintError` instead (``None`` / ``"never"``
    always returns).  The netlist is never mutated; the dynamic
    ``sensitivity`` rule executes node code on a clone.
    """
    if fail_on not in (None, "never", "error", "warning"):
        raise ValueError(f"bad fail_on {fail_on!r}")
    names = resolve_rules(rules)
    started = time.perf_counter()
    report = LintReport(netlist=netlist.name, version=netlist.version,
                        rules=names)
    for name in names:
        report.diagnostics.extend(RULES[name].run(netlist))
    report.elapsed_seconds = time.perf_counter() - started
    if report.exceeds(fail_on):
        raise LintError(report)
    return report


#: netlist -> (structural version, rule names, report) memo for
#: :func:`cached_lint` (weak keys: dropping a netlist drops its entry).
_LINT_CACHE = weakref.WeakKeyDictionary()


def cached_lint(netlist, rules=None, force=False):
    """:func:`run_lint` memoized on the netlist's structural ``version``.

    The transform-loop mode: the PR 4 edit log bumps ``version`` on every
    structural mutation, so repeated linting of an unchanged design point
    is a dictionary hit.  Sequential-state changes (token movement) do
    not bump the version; rules that read occupancy (``cycles``,
    ``reachability``) are evaluated against the marking current at the
    first call — pass ``force=True`` after mutating markings in place.
    """
    names = resolve_rules(rules)
    version = netlist.version
    entry = _LINT_CACHE.get(netlist)
    if not force and entry is not None and entry[0] == version and entry[1] == names:
        return entry[2]
    report = run_lint(netlist, rules=names)
    _LINT_CACHE[netlist] = (version, names, report)
    return report


__all__ = [
    "ALL_RULES",
    "CODES",
    "DEFAULT_RULES",
    "Diagnostic",
    "LintError",
    "LintReport",
    "LintRule",
    "RULES",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "SensitivityAudit",
    "audit_netlist",
    "audit_node",
    "cached_lint",
    "core_structural_problems",
    "lint_rule",
    "resolve_rules",
    "run_lint",
    "severity_of",
    "undeclared_state",
]
