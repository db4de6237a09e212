"""Job kinds the server executes, their identities and their results.

Four job kinds mirror the long-running CLI subcommands:

``measure``
    :func:`~repro.perf.report.performance_report` of a canned design
    (:data:`repro.designs.DESIGNS`).
``verify``
    Explicit-state exploration of a model-checking composition
    (:data:`repro.designs.MC_DESIGNS`): safety violations, deadlocks,
    completeness.
``lint``
    Static analysis (:func:`repro.lint.run_lint`) of a canned design.
``sweep``
    A preset design-space sweep
    (:data:`repro.perf.presets.PRESET_SWEEPS`), run in-process with a
    per-job checkpoint file so a drained or killed job resumes instead
    of restarting.
``chaos``
    A :func:`repro.chaos.run_soak` latency-insensitivity soak of a
    canned design: seeded chaos plans, each differentially checked
    against a golden run, checkpointed per iteration like a sweep.

Every job resolves to a **content-addressed key**: SHA-256 over the
marshal-v2 canonical bytes of ``(format tag, kind, material, config,
engine, seed)``, where ``material`` is the *built design's* identity —
the :class:`~repro.verif.encoding.StateCodec` channel order, the node
name/type table and the initial :meth:`Netlist.snapshot` — not merely
its name.  Renaming a registry entry or changing what a design builds
changes the key; a cached result can never be served for a design that
no longer means the same thing.

Results are plain JSON-serializable dicts with deterministic content
(no wall-clock, no worker counts), which is what makes the result cache
byte-stable: the same job always produces the same canonical bytes.
"""

from __future__ import annotations

import functools
import marshal

from repro.errors import ServeError
from repro.runtime.checkpoint import content_key

#: job kinds accepted by the server, with their recognized config keys
#: (beyond ``kind`` / ``design`` / ``grid`` / ``seed``)
JOB_KINDS = {
    "measure": ("channel", "cycles", "warmup"),
    "verify": ("max_states", "lanes"),
    "lint": ("rules",),
    "sweep": ("cycles", "lanes"),
    "chaos": ("cycles", "iterations"),
}

#: Bumped whenever an unchanged key would name a different result (v3:
#: the design material's ``Netlist.snapshot()`` became one flat tuple
#: without node names).
_KEY_FORMAT = "serve-v3"


def validate_job(spec):
    """Normalize a raw request spec into the canonical job spec.

    Returns a new dict containing exactly the keys that define the job
    (unknown keys are rejected, defaults are filled in), so two requests
    that mean the same job normalize to identical specs — and therefore
    identical cache keys.  Raises :class:`~repro.errors.ServeError` on
    anything malformed; admission turns that into a structured rejection,
    never a dead connection.
    """
    if not isinstance(spec, dict):
        raise ServeError(f"job spec must be an object, got {type(spec).__name__}")
    kind = spec.get("kind")
    if kind not in JOB_KINDS:
        raise ServeError(f"unknown job kind {kind!r} "
                         f"(known: {', '.join(sorted(JOB_KINDS))})")
    allowed = {"kind", "seed"} | set(JOB_KINDS[kind])
    allowed.add("grid" if kind == "sweep" else "design")
    unknown = sorted(set(spec) - allowed)
    if unknown:
        raise ServeError(f"unknown keys for a {kind} job: {', '.join(unknown)}")

    out = {"kind": kind, "seed": spec.get("seed", 0)}
    if not isinstance(out["seed"], int):
        raise ServeError(f"seed must be an integer, got {out['seed']!r}")

    if kind == "sweep":
        from repro.perf.presets import PRESET_SWEEPS

        grid = spec.get("grid", "fig6")
        if grid not in PRESET_SWEEPS:
            raise ServeError(f"unknown sweep grid {grid!r} "
                             f"(known: {', '.join(sorted(PRESET_SWEEPS))})")
        out["grid"] = grid
        out["cycles"] = spec.get("cycles")
        out["lanes"] = _lanes(spec)
        return out

    from repro.designs import DESIGNS, MC_DESIGNS

    registry = MC_DESIGNS if kind == "verify" else DESIGNS
    design = spec.get("design")
    if design not in registry:
        raise ServeError(f"unknown {kind} design {design!r} "
                         f"(known: {', '.join(sorted(registry))})")
    out["design"] = design
    if kind == "measure":
        out["channel"] = spec.get("channel")
        out["cycles"] = int(spec.get("cycles", 2000))
        out["warmup"] = int(spec.get("warmup", 100))
    elif kind == "verify":
        out["max_states"] = int(spec.get("max_states", 60000))
        out["lanes"] = _lanes(spec)
    elif kind == "lint":
        rules = spec.get("rules")
        if rules not in (None, "all"):
            raise ServeError(f"lint rules must be null or 'all', got {rules!r}")
        out["rules"] = rules
    elif kind == "chaos":
        out["cycles"] = int(spec.get("cycles", 150))
        out["iterations"] = int(spec.get("iterations", 5))
    return out


def _lanes(spec):
    """A spec's ``lanes`` (default 1), rejected at admission unless >= 1."""
    lanes = int(spec.get("lanes", 1))
    if lanes < 1:
        raise ServeError(f"lanes must be >= 1, got {lanes}")
    return lanes


def _canonical(value):
    """Marshal-friendly canonical form: dicts become sorted item tuples,
    lists become tuples — equal values yield equal marshal bytes."""
    if isinstance(value, dict):
        return tuple((k, _canonical(value[k])) for k in sorted(value))
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(v) for v in value)
    return value


def _design_material(spec):
    """The built design's identity, via the same canonical encodings the
    explorer keys states with (see :func:`_built_material`)."""
    kind = spec["kind"]
    if kind == "sweep":
        return ("preset-grid", spec["grid"])
    from repro import designs

    verify = kind == "verify"
    registry = designs.MC_DESIGNS if verify else designs._DESIGN_FACTORIES
    return _built_material(verify, spec["design"],
                           registry.get(spec["design"]))


@functools.lru_cache(maxsize=64)
def _built_material(verify, design, factory):
    """Build ``design`` once per process and factory and return its
    identity (an immutable tuple): a submit, cache hits included, needs
    only the key.  The factory is part of the memo key, so re-registering
    a name under another factory builds (and keys) afresh.  The registries
    hold a dozen designs, well inside the bound."""
    from repro.designs import build_design, build_mc_design
    from repro.verif.encoding import StateCodec

    net = (build_mc_design if verify else build_design)(design)
    codec = StateCodec(net)
    nodes = tuple(sorted(
        (name, type(node).__name__) for name, node in net.nodes.items()
    ))
    return (design, tuple(codec.channel_names), nodes, net.snapshot())


def job_key(spec, engine=None):
    """Content-address of a normalized job spec under ``engine``."""
    identity = (
        _KEY_FORMAT,
        spec["kind"],
        _design_material(spec),
        _canonical(spec),
        engine,
        spec.get("seed", 0),
    )
    try:
        data = marshal.dumps(identity, 2)
    except ValueError as exc:
        raise ServeError(f"job spec is not canonically encodable: {exc}") from exc
    return content_key(data)


# -- execution ---------------------------------------------------------------

def _run_measure(spec, control):
    from repro.designs import build_design
    from repro.perf.report import performance_report

    if control is not None:
        control.raise_if_stopped("measure_start")
    net, names = build_design(spec["design"], with_names=True)
    channel = spec["channel"]
    if channel is not None:
        # accept either a raw channel name or the pattern's friendly key
        # ("ebin", "out", ...) — same resolution the sweep layer does
        if isinstance(names, dict):
            channel = names.get(channel, channel)
        if channel not in net.channels:
            raise ServeError(
                f"no channel {spec['channel']!r} in design "
                f"{spec['design']!r} (channels: "
                f"{', '.join(sorted(net.channels))})")
    report = performance_report(net, sim_channel=channel,
                                cycles=spec["cycles"], warmup=spec["warmup"],
                                name=spec["design"])
    row = report.row()
    row["throughput_source"] = report.throughput_source
    return row


def _run_verify(spec, control, checkpoint):
    from repro.designs import build_mc_design
    from repro.verif.deadlock import find_deadlocks
    from repro.verif.explore import StateExplorer

    net = build_mc_design(spec["design"])
    explorer = StateExplorer(net, max_states=spec["max_states"],
                            lanes=spec["lanes"], checkpoint=checkpoint,
                            control=control)
    result = explorer.explore()
    if result.stopped is not None and control is not None \
            and control.stop_reason() is not None:
        # The explorer flushed its checkpoint at the boundary it stopped
        # on; the job surfaces the cancellation/deadline as the structured
        # error it is (a partial exploration is not a verdict).
        raise control.stop_error(result.stopped)
    deadlocks = find_deadlocks(result)
    ok = (not result.violations and not deadlocks and result.complete
          and result.stopped is None)
    return {
        "design": spec["design"],
        "n_states": result.n_states,
        "violations": len(result.violations),
        "deadlocks": len(deadlocks),
        "complete": bool(result.complete),
        "stopped": result.stopped,
        "ok": bool(ok),
    }


def _run_lint(spec, control):
    import json

    from repro.designs import build_design
    from repro.lint import run_lint

    if control is not None:
        control.raise_if_stopped("lint_start")
    net = build_design(spec["design"])
    report = run_lint(net, rules=spec["rules"])
    payload = json.loads(report.to_json())
    # elapsed time would make equal runs unequal; everything else in the
    # lint payload is deterministic
    payload.pop("elapsed_seconds", None)
    return payload


def _run_sweep(spec, control, checkpoint, engine):
    from repro.perf.presets import PRESET_SWEEPS
    from repro.perf.sweep import run_sweep

    kwargs = {}
    if spec["cycles"] is not None:
        kwargs["cycles"] = spec["cycles"]
    sweep_spec = PRESET_SWEEPS[spec["grid"]](**kwargs)
    result = run_sweep(sweep_spec, n_workers=1, lanes=spec["lanes"],
                       engine=engine, checkpoint=checkpoint, control=control)
    return result.to_payload()


def _run_chaos(spec, control, checkpoint, engine):
    from repro.chaos import run_soak

    # run_soak handles control/checkpoint itself: it checks the control at
    # every iteration boundary (after flushing completed rows), so a
    # cancelled/deadlined chaos job surfaces the structured stop error with
    # its progress durable — a redispatch resumes instead of restarting.
    return run_soak(spec["design"], seed=spec["seed"],
                    iterations=spec["iterations"], cycles=spec["cycles"],
                    engine=engine, checkpoint=checkpoint, control=control)


def run_job(spec, control=None, checkpoint=None, engine=None):
    """Execute a normalized job spec; returns its deterministic payload.

    ``checkpoint`` is a per-job file path (sweeps and explorations save
    progress there, so a cancelled/killed job resumes); ``control`` is the
    :class:`~repro.runtime.control.JobControl` carrying the deadline and
    cancellation state, honoured at checkpoint boundaries.
    """
    kind = spec["kind"]
    if kind == "measure":
        return _run_measure(spec, control)
    if kind == "verify":
        return _run_verify(spec, control, checkpoint)
    if kind == "lint":
        return _run_lint(spec, control)
    if kind == "sweep":
        return _run_sweep(spec, control, checkpoint, engine)
    if kind == "chaos":
        return _run_chaos(spec, control, checkpoint, engine)
    raise ServeError(f"unknown job kind {kind!r}")
