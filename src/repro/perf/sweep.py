"""Sharded design-space sweeps.

The Section 5 toolkit exists to compare many design points — stalling vs
speculative, varying scheduler / buffer / error-rate parameters.  Each
configuration is an independent netlist build plus a few thousand simulated
cycles, so a sweep is embarrassingly parallel across configurations.  This
module provides the declarative spec and the sharded runner:

* :class:`SweepSpec` — a netlist factory plus a parameter grid (and/or an
  explicit point list), a measurement channel, and cycle/warmup counts.
  ``expand()`` turns it into a deterministic, order-stable configuration
  list.
* :func:`run_sweep` — runs every configuration through
  :func:`~repro.perf.report.performance_report`, either in-process
  (``n_workers=1``) or sharded over a ``multiprocessing`` spawn pool, and
  merges the per-configuration rows into a :class:`SweepResult`.  The
  merged result is identical — byte-for-byte in its JSON rendering —
  regardless of worker count.

Lane width
----------

``run_sweep(spec, lanes=N)`` with ``N > 1`` is another way to ask for
``engine="codegen"`` (:func:`~repro.sim.engine.lanes_engine`): rows and
:attr:`SweepResult.engine` record ``"codegen"``, and an explicit engine
conflicts with it.

Supervision, retries and checkpointing
--------------------------------------

``n_workers > 1`` no longer uses a bare ``multiprocessing.Pool``: the
configurations run under a :class:`~repro.runtime.supervisor.Supervisor`
that tracks per-configuration liveness, applies a per-configuration
wall-clock ``timeout``, kills and respawns dead or hung workers, and
retries failed configurations with exponential backoff up to a
``retries`` budget.  Each configuration is its own task, so one poison
configuration cannot take down another; a configuration that exhausts
its retries becomes a structured
:class:`FailedRow` in :attr:`SweepResult.failures` instead of an
exception that loses the whole run (``on_error="raise"`` restores the
old fail-fast behaviour).  The serial path applies the same retry /
FailedRow semantics in-process (wall-clock timeouts need a worker to
kill, so ``timeout`` is only enforced when ``n_workers > 1``).

``checkpoint=PATH`` makes progress durable: after every completed
configuration the merged successful rows are written atomically (temp file +
``os.replace``) with a SHA-256 checksum and a content-address key
derived from the expanded payloads (factory, params, cycles, engine …).
A rerun with the same spec resumes from the checkpoint — completed
configurations are not re-measured, previously failed ones are retried —
and produces a :meth:`SweepResult.to_json` byte-identical to an
uninterrupted run.  A checkpoint from a *different* sweep (or a corrupt
file) is a loud :class:`~repro.errors.CheckpointError`, never silently
loaded.  ``fault_plan`` threads a deterministic
:class:`~repro.runtime.faults.FaultPlan` into every execution path so
the recovery machinery itself is differentially testable.

Engine propagation
------------------

The process-global fix-point engine selected by ``set_default_engine`` (the
CLI ``--engine`` flag) is **not** inherited by spawn-start workers: a fresh
interpreter re-imports :mod:`repro.sim.engine` and lands on the built-in
default.  :func:`run_sweep` therefore resolves the engine *in the parent*
(explicit argument, then ``spec.engine``, then the current process default)
and ships it inside each worker payload; the worker installs it before
building the netlist.  The serial path runs the exact same payload code so
both paths agree on semantics, not just results.

Picklability
------------

With ``n_workers > 1`` the factory crosses a process boundary, so it must
be an importable module-level callable (pickled by reference) or a
``"module:attribute"`` string.  Closures and lambdas only work in serial
mode; put the randomness *inside* the factory, seeded by a grid parameter,
as the factories in :mod:`repro.perf.presets` do.
"""

from __future__ import annotations

import importlib
import itertools
import json
import time
import traceback
from dataclasses import dataclass, field

from repro.errors import ElasticError
from repro.perf.report import PerfReport, format_report_table, performance_report
from repro.runtime import faults
from repro.runtime.checkpoint import content_key, load_checkpoint, save_checkpoint
from repro.runtime.control import jittered_backoff, task_key
from repro.runtime.supervisor import SupervisorStats
from repro.sim.engine import (
    check_engine,
    get_default_engine,
    lanes_engine,
    set_default_engine,
)

#: Reserved per-point keys interpreted by the runner, not the factory.
#: ``sim_channel`` overrides the spec-level measurement channel for one
#: configuration (``None`` forces the static marked-graph report);
#: ``label`` overrides the auto-generated configuration name.
RESERVED_KEYS = ("sim_channel", "label")


@dataclass(frozen=True)
class SweepConfig:
    """One expanded design point: resolved params, channel and label."""

    index: int
    name: str
    params: dict
    channel: str | None


@dataclass
class SweepSpec:
    """Declarative description of a design-space sweep.

    Parameters
    ----------
    name:
        Sweep name; configuration labels are ``name[k=v ...]``.
    factory:
        ``factory(**params) -> netlist`` or ``(netlist, names)``; for
        sharded runs it must be an importable module-level callable or a
        ``"module:attribute"`` string.
    grid:
        Mapping ``param -> sequence of values``; expanded as the cartesian
        product in key-insertion order (last key varies fastest).
    points:
        Explicit parameter dicts, for non-rectangular spaces; appended
        before the grid product.  Points may use the reserved keys
        ``sim_channel`` and ``label`` (see :data:`RESERVED_KEYS`).
    base:
        Fixed parameters merged under every configuration.
    channel:
        Measurement channel for :func:`performance_report` — a channel
        name, or a key into the ``names`` dict returned by the factory.
        ``None`` requests the static marked-graph report.
    cycles / warmup:
        Simulation length per configuration.
    engine:
        Fix-point engine for every configuration; ``None`` defers to
        :func:`run_sweep`'s resolution (argument, then process default).
    """

    name: str
    factory: object
    grid: dict = field(default_factory=dict)
    points: list = None
    base: dict = field(default_factory=dict)
    channel: str | None = None
    cycles: int = 2000
    warmup: int = 100
    engine: str | None = None

    def __post_init__(self):
        if self.engine is not None:
            check_engine(self.engine)
        if self.points is None and not self.grid:
            raise ValueError("SweepSpec needs a grid and/or explicit points")

    def expand(self):
        """Deterministic, order-stable list of :class:`SweepConfig`."""
        combos = [dict(point) for point in (self.points or [])]
        if self.grid:
            keys = list(self.grid)
            for values in itertools.product(*(self.grid[k] for k in keys)):
                combos.append(dict(zip(keys, values)))
        configs = []
        for index, combo in enumerate(combos):
            channel = (
                combo.pop("sim_channel") if "sim_channel" in combo
                else self.channel
            )
            label = combo.pop("label", None)
            if label is None:
                varying = " ".join(f"{k}={v}" for k, v in combo.items())
                label = f"{self.name}[{varying}]" if varying else self.name
            params = {**self.base, **combo}
            configs.append(SweepConfig(index, label, params, channel))
        return configs


def _resolve_factory(ref):
    if callable(ref):
        return ref
    module_name, sep, attr = str(ref).partition(":")
    if not sep:
        raise ValueError(
            f"factory {ref!r} is not callable and not a 'module:attribute' "
            "reference"
        )
    return getattr(importlib.import_module(module_name), attr)


def _resolve_channel(netlist, names, channel):
    if channel is None:
        return None
    if channel in netlist.channels:
        return channel
    mapped = names.get(channel) if names else None
    if mapped in netlist.channels:
        return mapped
    raise ValueError(
        f"sweep channel {channel!r} is neither a channel of "
        f"{netlist.name!r} nor a names-key of its factory"
    )


def _build_payload(payload):
    """Instantiate a payload's netlist and resolve its measurement channel."""
    factory = _resolve_factory(payload["factory"])
    made = factory(**payload["params"])
    netlist, names = made if isinstance(made, tuple) else (made, {})
    channel = _resolve_channel(netlist, names, payload["channel"])
    return netlist, channel


def _row_from_report(payload, report):
    return {
        "index": payload["index"],
        "design": report.name,
        "params": payload["params"],
        "area": report.area,
        "cycle_time": report.cycle_time,
        "throughput": report.throughput,
        "effective_cycle_time": report.effective_cycle_time,
        "throughput_source": report.throughput_source,
        "engine": payload["engine"],
    }


def _run_payload(payload):
    """Measure one configuration; runs in the worker *and* in serial mode.

    Installs the payload's engine as the process default for the duration
    of the run — this is what carries the parent's ``--engine`` choice
    across the spawn boundary.
    """
    faults.fault_point("sweep_config", payload["index"])
    previous = set_default_engine(payload["engine"])
    try:
        netlist, channel = _build_payload(payload)
        report = performance_report(
            netlist,
            sim_channel=channel,
            cycles=payload["cycles"],
            warmup=payload["warmup"],
            name=payload["name"],
        )
        return _row_from_report(payload, report)
    finally:
        set_default_engine(previous)


def _supervised_config(task):
    """Supervisor task runner: install the task's fault plan and attempt
    number for the duration of one execution, then measure its
    configuration.  Runs in spawn workers (resolved as
    ``repro.perf.sweep:_supervised_config``) and in the serial path, so
    both agree on semantics."""
    with faults.plan_scope(task.get("fault_plan")), \
            faults.attempt_scope(task.get("attempt", 0)):
        return _run_payload(task["payload"])


@dataclass
class FailedRow:
    """A configuration that exhausted its retry budget: the structured
    record that replaces the row it would have produced.  Lives in
    :attr:`SweepResult.failures`; the successful rows are unaffected."""

    index: int
    design: str
    params: dict
    error: str
    traceback: str
    attempts: int

    def to_payload(self):
        return {
            "index": self.index,
            "design": self.design,
            "params": self.params,
            "error": self.error,
            "attempts": self.attempts,
            "traceback": self.traceback,
        }


class SweepRunError(ElasticError):
    """Raised by ``run_sweep(..., on_error="raise")`` when any
    configuration failed; carries the structured :class:`FailedRow`
    records in :attr:`failures`."""

    def __init__(self, failures):
        self.failures = list(failures)
        first = self.failures[0]
        super().__init__(
            f"{len(self.failures)} configuration(s) failed; first: "
            f"config {first.index} ({first.design}) after "
            f"{first.attempts} attempt(s): {first.error}"
        )


def _factory_ref(factory):
    """Stable textual identity of a sweep factory for content-addressing
    (importable reference when one exists; module-qualified name
    otherwise — no object addresses, so the key is process-independent)."""
    if isinstance(factory, str):
        return factory
    module = getattr(factory, "__module__", "?")
    qualname = getattr(factory, "__qualname__", type(factory).__name__)
    return f"{module}:{qualname}"


def _sweep_key(spec, payloads):
    """Content-address of one sweep: the expanded payloads (params, cycles,
    measurement channels, resolved engine) plus the factory identity —
    everything that determines the rows, nothing that doesn't (worker
    count and checkpoint cadence are execution details; their rows are
    identical by the PR 2/3 pinning)."""
    identity = {
        "format": "sweep-v1",
        "sweep": spec.name,
        "factory": _factory_ref(spec.factory),
        "payloads": [
            {k: payload[k] for k in ("index", "name", "params", "channel",
                                     "cycles", "warmup", "engine")}
            for payload in payloads
        ],
    }
    return content_key(json.dumps(identity, sort_keys=True, default=repr))


@dataclass
class SweepResult:
    """Merged sweep outcome: one row per configuration, in spec order.

    ``rows`` holds plain dicts (full-precision floats); ``reports``
    reconstructs :class:`PerfReport` objects for table rendering.
    ``to_payload()`` / ``to_json()`` contain only deterministic content —
    wall-clock and worker count live on the result object itself, so the
    JSON is byte-identical across worker counts.
    """

    spec: SweepSpec
    engine: str
    n_workers: int
    rows: list
    elapsed_seconds: float
    lanes: int = 1
    #: structured :class:`FailedRow` records of configurations that
    #: exhausted their retry budget (empty on a clean run)
    failures: list = field(default_factory=list)
    #: :class:`~repro.runtime.supervisor.SupervisorStats` of the run
    #: (retries / respawns / timeouts); execution detail, not in the JSON
    stats: object = None

    def ok(self):
        return not self.failures

    def raise_for_failures(self):
        """Raise :class:`SweepRunError` if any configuration failed."""
        if self.failures:
            raise SweepRunError(self.failures)
        return self

    @property
    def reports(self):
        return [
            PerfReport(
                name=row["design"],
                area=row["area"],
                cycle_time=row["cycle_time"],
                throughput=row["throughput"],
                effective_cycle_time=row["effective_cycle_time"],
                throughput_source=row["throughput_source"],
            )
            for row in self.rows
        ]

    def by_design(self):
        """``{label: row}`` lookup (labels are unique per expansion index
        only if the spec makes them so; last one wins otherwise)."""
        return {row["design"]: row for row in self.rows}

    def table(self):
        return format_report_table(self.reports)

    def to_payload(self):
        return {
            "sweep": self.spec.name,
            "engine": self.engine,
            "channel": self.spec.channel,
            "cycles": self.spec.cycles,
            "warmup": self.spec.warmup,
            "n_configs": len(self.rows),
            "configs": self.rows,
            "failures": [failure.to_payload() for failure in self.failures],
        }

    def to_json(self):
        return json.dumps(self.to_payload(), indent=2, sort_keys=True)


def _serial_config(task, retries, backoff, stats, on_row, failures):
    """Serial twin of the supervisor's failure routing: run one
    configuration in-process with the same retry / FailedRow semantics
    (minus wall-clock timeouts, which need a separate process to kill)."""
    payload = task["payload"]
    attempt = 0
    while True:
        try:
            row = _supervised_config(dict(task, attempt=attempt))
        except KeyboardInterrupt:
            raise
        except Exception as exc:
            if attempt >= retries:
                failures.append(FailedRow(
                    index=payload["index"], design=payload["name"],
                    params=payload["params"],
                    error=f"{type(exc).__name__}: {exc}",
                    traceback=traceback.format_exc(),
                    attempts=attempt + 1,
                ))
                return
            stats.retries += 1
            time.sleep(jittered_backoff(
                backoff, attempt, key=task_key([payload["index"]]),
            ))
            attempt += 1
        else:
            on_row(row)
            return


def run_sweep(spec, n_workers=1, engine=None, lanes=1, timeout=None,
              retries=0, backoff=0.05, checkpoint=None, fault_plan=None,
              on_error="collect", control=None):
    """Expand ``spec`` and measure every configuration, supervised.

    ``n_workers=1`` runs in-process; ``n_workers>1`` shards the
    configurations over supervised ``multiprocessing`` spawn workers
    (spawn rather than fork for determinism and portability — workers
    never inherit mutable parent state, only the explicit payload).  Rows
    are merged in expansion order regardless of completion order, worker
    count or recovery history.

    ``engine`` overrides the fix-point engine; otherwise ``spec.engine``,
    then the parent's current default (``get_default_engine()``) is
    resolved *here* and shipped to the workers — see the module docstring.

    ``lanes > 1`` selects ``engine="codegen"`` (see the module
    docstring), so ``engine`` and ``spec.engine`` must both be ``None``;
    the process default is *not* consulted (the CLI forwards ``--engine``
    explicitly so a conflicting flag still errors).

    Resilience knobs (see the module docstring for the full story):
    ``timeout`` — per-configuration wall-clock seconds, enforced by the
    supervisor when ``n_workers > 1``; ``retries`` / ``backoff`` —
    per-configuration retry budget and exponential backoff base;
    ``checkpoint`` — path of an atomic,
    content-addressed progress file to write and resume from;
    ``fault_plan`` — a deterministic
    :class:`~repro.runtime.faults.FaultPlan` for testing the recovery
    paths; ``on_error`` — ``"collect"`` (default) turns configurations
    that exhaust their retries into :attr:`SweepResult.failures`,
    ``"raise"`` raises :class:`SweepRunError` at the end instead.

    On :class:`KeyboardInterrupt` the latest completed rows are already
    durable in ``checkpoint`` (one atomic write per completed
    configuration); the interrupt propagates so callers can exit 130.

    ``control`` — an optional :class:`~repro.runtime.control.JobControl`:
    after every completed configuration (a checkpoint boundary — the rows
    are already saved) the sweep publishes progress and, when a cancellation
    or deadline stop was requested, raises the matching structured error
    (:class:`~repro.errors.JobCancelled` /
    :class:`~repro.errors.DeadlineExceeded`).  A later run with the same
    ``checkpoint`` resumes exactly where the stop landed.
    """
    if on_error not in ("collect", "raise"):
        raise ValueError(f"on_error must be 'collect' or 'raise', "
                         f"got {on_error!r}")
    resolved_engine = (lanes_engine(lanes, engine or spec.engine)
                       or get_default_engine())
    check_engine(resolved_engine)
    configs = spec.expand()
    payloads = [
        {
            "index": config.index,
            "name": config.name,
            "factory": spec.factory,
            "params": config.params,
            "channel": config.channel,
            "cycles": spec.cycles,
            "warmup": spec.warmup,
            "engine": resolved_engine,
        }
        for config in configs
    ]
    key = _sweep_key(spec, payloads) if checkpoint else None
    done = {}
    if checkpoint:
        body = load_checkpoint(checkpoint, "sweep", key)
        if body is not None:
            done = {row["index"]: row for row in body["rows"]}
    remaining = [p for p in payloads if p["index"] not in done]

    def _save():
        if checkpoint:
            save_checkpoint(
                checkpoint, "sweep", key,
                {"rows": [done[i] for i in sorted(done)]}, codec="json",
            )

    def _boundary(row):
        """Per-configuration checkpoint boundary: record, make durable,
        then honour any pending cancellation / deadline (raising here is
        safe — everything done so far is already saved)."""
        done[row["index"]] = row
        _save()
        if control is not None:
            control.raise_if_stopped("sweep_chunk", done=len(done),
                                     total=len(payloads))

    failures = []
    stats = SupervisorStats()
    tasks = [{"payload": payload, "fault_plan": fault_plan}
             for payload in remaining]
    if control is not None:
        control.raise_if_stopped("sweep_start", done=len(done),
                                 total=len(payloads))
    start = time.perf_counter()
    try:
        if n_workers <= 1 or not tasks:
            for task in tasks:
                _serial_config(task, retries, backoff, stats, _boundary,
                               failures)
        else:
            from repro.runtime.supervisor import Supervisor

            supervisor = Supervisor(
                "repro.perf.sweep:_supervised_config",
                n_workers=n_workers, timeout=timeout, retries=retries,
                backoff=backoff, fault_plan=fault_plan,
                on_result=lambda task, row: _boundary(row),
            )
            _results, task_failures = supervisor.run(tasks)
            stats = supervisor.stats
            for task_failure in task_failures:
                payload = task_failure.task["payload"]
                failures.append(FailedRow(
                    index=payload["index"], design=payload["name"],
                    params=payload["params"], error=task_failure.error,
                    traceback=task_failure.traceback,
                    attempts=task_failure.attempts,
                ))
    except KeyboardInterrupt:
        # Completed rows are already durable (one save per row); make
        # sure the final state is flushed even if interrupted between a
        # record and its save, then let the interrupt propagate.
        _save()
        raise
    _save()
    elapsed = time.perf_counter() - start
    failures.sort(key=lambda failure: failure.index)
    if failures and on_error == "raise":
        raise SweepRunError(failures)
    return SweepResult(
        spec=spec,
        engine=resolved_engine,
        n_workers=n_workers,
        rows=[done[i] for i in sorted(done)],
        elapsed_seconds=elapsed,
        lanes=lanes,
        failures=failures,
        stats=stats,
    )
