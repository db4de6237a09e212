"""Running the lint rules: rule selection, :func:`run_lint` and the
version-memoized :func:`cached_lint` (the package docstring of
:mod:`repro.lint` describes the entry points)."""

from __future__ import annotations

import time
import weakref

from repro.errors import LintError
from repro.lint.diagnostics import LintReport
from repro.lint.rules import RULES

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

    The transform-loop mode: the netlist edit log bumps ``version`` on every
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

