"""Shared helpers for the benchmark harness.

Every bench regenerates one paper artifact (table or figure), asserts the
headline claim, writes the rendered table to ``benchmarks/results/`` and
times its central simulation with pytest-benchmark.

All writers are atomic (temp file + ``os.replace`` via
:func:`repro.runtime.checkpoint.atomic_write_text`): a crash or interrupt
mid-write leaves the previous ``BENCH_*.json`` intact instead of a torn
half-file that would silently drop the perf trajectory other PRs recorded.
"""

import json
import os
import subprocess

from repro.runtime.checkpoint import atomic_write_text

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def write_result(name, text):
    """Persist a regenerated table; returns the path."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, name)
    atomic_write_text(path, text if text.endswith("\n") else text + "\n")
    return path


def write_json(name, payload):
    """Persist a machine-readable result (perf-trajectory tracking across
    PRs); returns the path."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, name)
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def merge_json(name, payload):
    """Merge ``payload`` into an existing ``BENCH_*.json`` without dropping
    fields other tests (or earlier PRs) recorded — the ROADMAP's perf
    trajectory extends one file per topic rather than inventing new
    formats.  Top-level dict values are merged key-wise; everything else
    is replaced.  The read-merge-replace is atomic on the write side, so
    an interrupted merge never corrupts the accumulated file.  Returns the
    path."""
    path = os.path.join(RESULTS_DIR, name)
    merged = {}
    if os.path.exists(path):
        with open(path) as fh:
            merged = json.load(fh)
    for key, value in payload.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key].update(value)
        else:
            merged[key] = value
    return write_json(name, merged)


def revision():
    """``git describe --always --dirty`` of the checkout the timed
    ``repro`` is imported from, or None outside git."""
    import repro

    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=os.path.dirname(os.path.abspath(repro.__file__)),
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None
