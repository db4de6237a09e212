"""repro.lint — static analysis for elastic netlists.

The rule-based companion to the dynamic toolchain: where the simulator
and the model checker discover a broken design by running it into a
deadlock, lint finds the structural cause *before* anything runs — an
elastic cycle with no buffer, a loop with no bubble, a speculative path
whose mispredictions can never be killed — and it is the only tool that
checks the sensitivity derived from each ``comb`` and the port-role
drives every engine optimization silently trusts against what ``comb``
does when run (the ``sensitivity`` rule's auditor,
:mod:`repro.lint.audit`).

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
netlist's structural ``version`` (the netlist edit log), so transform loops
re-lint only after an actual edit.

The exports load on first use (:mod:`repro._lazy`); the rule runner
lives in :mod:`repro.lint.runner`.  Every ``Netlist.validate()`` imports
:mod:`repro.lint.rules`, which therefore loads neither the runner nor
the sensitivity auditor (:mod:`repro.lint.audit`, imported by the
``sensitivity`` rule when it runs).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "..errors": ("LintError",),
    ".audit": ("SensitivityAudit", "audit_netlist", "audit_node",
               "undeclared_state"),
    ".diagnostics": ("CODES", "Diagnostic", "LintReport", "SEVERITY_ERROR",
                     "SEVERITY_WARNING", "severity_of"),
    ".rules": ("RULES", "LintRule", "core_structural_problems", "lint_rule"),
    ".runner": ("ALL_RULES", "DEFAULT_RULES", "cached_lint", "resolve_rules",
                "run_lint"),
})
