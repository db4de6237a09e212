"""Lint throughput: how much wall-clock the static rules (and the opt-in
sensitivity audit) cost on the largest shipped designs, and how much the
version-memoized :func:`repro.lint.cached_lint` saves in a transform loop.

The static rule set has to stay cheap enough to run inside every
transform's rollback scope (``Session(lint_after_transforms=True)``), so
its per-design cost is recorded into the perf trajectory alongside the
sweep and incremental numbers.  The audit executes every node's ``comb``
dozens of times through a recording ``drive``, so it also tracks the
interpreted comb path.

Each design is linted ``REPEATS`` times with the static rules and with
every rule (audit included), alternating which goes first, after one
untimed run of each.  ``BENCH_lint.json`` keeps every run, the medians
with their quartiles, and appends the medians, quartiles, source
revision and environment to its ``history`` list.

Run:  PYTHONPATH=src python -m pytest -q benchmarks/bench_lint.py
"""

import json
import os
import platform
import statistics
import time

from conftest import RESULTS_DIR, merge_json, revision

from repro.lint import cached_lint, run_lint
from repro.netlist import patterns
from repro.transform import Session

REPEATS = 15         # alternating static/audit repeats per design
#: the rule sets timed: the default static rules, and every rule
RULES = {"static": None, "audit": "all"}


def _designs():
    return {
        "table1_design": patterns.table1_design()[0],
        "deep_pipeline_64": patterns.deep_pipeline(64),
        "kway_loop_6": patterns.kway_loop(lambda g: g % 6, k=6)[0],
        "token_ring_32": patterns.token_ring(32, 8),
    }


def _lint_seconds(net, rules):
    start = time.perf_counter()
    report = run_lint(net, rules=rules)
    seconds = time.perf_counter() - start
    assert report.ok, report.format()
    return seconds


def _runs(net):
    """``REPEATS`` timings per rule set, alternating the first."""
    for rules in RULES.values():
        _lint_seconds(net, rules)
    runs = {mode: [] for mode in RULES}
    for repeat in range(REPEATS):
        order = list(RULES)[::-1] if repeat % 2 else list(RULES)
        for mode in order:
            runs[mode].append(_lint_seconds(net, RULES[mode]))
    return runs


def _spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _history(entry):
    """``BENCH_lint.json``'s recorded runs with ``entry`` appended; a file
    written before the history existed contributes its best-of-N figures
    first."""
    path = os.path.join(RESULTS_DIR, "BENCH_lint.json")
    old = {}
    if os.path.exists(path):
        with open(path) as fh:
            old = json.load(fh)
    history = old.get("history")
    if history is None:
        history = [{"best_of": 20, "seconds": {
            name: {key: value for key, value in fields.items()
                   if key.endswith("_seconds")}
            for name, fields in old.items()
            if isinstance(fields, dict) and "static_seconds" in fields}}]
    return history + [entry]


def test_lint_wall_clock():
    payload = {}
    for name, net in _designs().items():
        runs = _runs(net)
        payload[name] = {
            "nodes": len(net.nodes),
            "channels": len(net.channels),
            "static_seconds": _spread(runs["static"]),
            "with_audit_seconds": _spread(runs["audit"]),
            "runs": runs,
        }
    entry = {
        "repeats": REPEATS,
        "seconds": {name: {key: fields[key] for key in
                           ("static_seconds", "with_audit_seconds")}
                    for name, fields in payload.items()},
        "revision": revision(),
        "environment": {"python": platform.python_version(),
                        "cpus": os.cpu_count()},
    }
    payload["history"] = _history(entry)
    merge_json("BENCH_lint.json", payload)


def test_cached_lint_amortizes_transform_loop():
    session = Session(patterns.table1_design()[0])
    channels = sorted(session.netlist.channels)

    start = time.perf_counter()
    for channel in channels:
        session.insert_bubble(channel)
        run_lint(session.netlist)
        for _ in range(9):                    # re-checks between edits
            run_lint(session.netlist)
    cold_seconds = time.perf_counter() - start

    session = Session(patterns.table1_design()[0])
    start = time.perf_counter()
    for channel in channels:
        session.insert_bubble(channel)
        cached_lint(session.netlist)
        for _ in range(9):
            cached_lint(session.netlist)      # version-memo hits
    cached_seconds = time.perf_counter() - start

    speedup = cold_seconds / cached_seconds
    merge_json("BENCH_lint.json", {
        "cached_loop": {
            "edits": len(channels),
            "relints_per_edit": 10,
            "cold_seconds": cold_seconds,
            "cached_seconds": cached_seconds,
            "speedup": speedup,
        },
    })
    assert speedup > 1.0
