"""Job kinds the server executes, their identities and their results.

Five job kinds, which the matching CLI subcommands validate (and, for
``verify`` and ``chaos``, run) here too:

``measure``
    :func:`~repro.perf.report.performance_report` of a canned design
    (:data:`repro.designs.DESIGNS`).
``verify``
    Explicit-state exploration of a model-checking composition
    (:data:`repro.designs.MC_DESIGNS`); ``ok`` means its Section 4.2 rule
    (:data:`repro.designs.MC_VERDICTS`) holds on a *complete* exploration.
``lint``
    Static analysis (:func:`repro.lint.run_lint`) of a canned design.
``sweep``
    A preset design-space sweep
    (:data:`repro.perf.presets.PRESET_SWEEPS`), run in-process with a
    per-job checkpoint file so a drained or killed job resumes instead
    of restarting.
``chaos``
    A :mod:`repro.chaos` oracle by ``mode``: ``soak`` (the default,
    checkpointed per iteration), ``invariance`` (one seeded plan) or
    ``exhaustive`` (all its interleavings on a model-checking composition).

``repro lint`` and ``repro sweep`` stay library calls rather than
``run_job`` calls.  ``lint`` lints a design point after a transform
SCRIPT, which no job spec can name.  ``sweep`` takes ``--workers`` and
``--timeout``, which are execution details and must stay out of the job
key.

A job stops early only through its
:class:`~repro.runtime.control.JobControl`, by raising its stop error.

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

#: job kinds accepted by the server: their config keys (beyond ``kind``,
#: ``seed`` and, except for sweeps, ``design``) with their defaults
JOB_KINDS = {
    "measure": {"channel": None, "cycles": 2000, "warmup": 100},
    "verify": {"max_states": 60000, "lanes": 1},
    "lint": {"rules": None},
    "sweep": {"grid": "fig6", "cycles": None, "lanes": 1},
    "chaos": {"mode": "soak"},
}

_PLAN = {"coverage": 0.5, "kinds": ("stall", "bubble")}

#: the further config keys of each ``chaos`` mode: a mode takes only the
#: ones it uses (``run_soak`` has no stall budget, say).  An exhaustive
#: plan defaults to two injections per fault, bounding its state space.
CHAOS_MODES = {
    "soak": dict(_PLAN, cycles=150, iterations=5),
    "invariance": dict(_PLAN, cycles=150, budget=-1),
    "exhaustive": dict(_PLAN, budget=2, max_states=20000),
}

#: lower bound of each integer config key (``None``: any integer)
_MINIMUM = {"seed": None, "cycles": 1, "warmup": 0, "max_states": 1,
            "lanes": 1, "iterations": 1, "budget": None}

#: leads-to owed under each speculative verdict rule of
#: :data:`repro.designs.MC_VERDICTS` (``None``: reported, not owed)
_LEADS_TO_OWED = {"live": True, "safe": None, "starves": False}

#: Bumped whenever an unchanged key would name a different result (v4:
#: verify payloads judge the verdict rule, chaos specs carry their mode).
_KEY_FORMAT = "serve-v4"


def validate_job(spec):
    """Normalize a raw request spec into the canonical job spec.

    Returns a new dict containing exactly the keys that define the job
    (unknown keys are rejected, defaults are filled in), so two requests
    that mean the same job normalize to identical specs — and therefore
    identical cache keys.  Raises :class:`~repro.errors.ServeError` on
    anything malformed (a count that is no integer or below its minimum,
    a chaos knob :func:`~repro.chaos.check_knobs` refuses); admission
    turns that into a structured rejection, never a dead connection.
    """
    if not isinstance(spec, dict):
        raise ServeError(f"job spec must be an object, got {type(spec).__name__}")
    kind = spec.get("kind")
    if kind not in JOB_KINDS:
        raise ServeError(f"unknown job kind {kind!r} "
                         f"(known: {', '.join(sorted(JOB_KINDS))})")
    config, label = dict(JOB_KINDS[kind], seed=0), kind
    if kind == "chaos":
        mode = spec.get("mode", "soak")
        if mode not in CHAOS_MODES:
            raise ServeError(f"unknown chaos mode {mode!r} "
                             f"(known: {', '.join(CHAOS_MODES)})")
        config.update(CHAOS_MODES[mode])
        label = f"chaos {mode}"
    unknown = sorted(set(spec) - set(config) - {"kind"}
                     - ({"design"} if kind != "sweep" else set()))
    if unknown:
        raise ServeError(f"unknown keys for a {label} job: {', '.join(unknown)}")

    out = {"kind": kind}
    for name, default in config.items():
        out[name] = value = spec.get(name, default)
        if name not in _MINIMUM or (value is None and default is None):
            continue            # not a count, or an optional one left out
        if isinstance(value, bool) or not isinstance(value, int):
            raise ServeError(f"{name} must be an integer, got {value!r}")
        if _MINIMUM[name] is not None and value < _MINIMUM[name]:
            raise ServeError(f"{name} must be >= {_MINIMUM[name]}, got {value}")

    if kind == "sweep":
        from repro.perf.presets import PRESET_SWEEPS

        if out["grid"] not in PRESET_SWEEPS:
            raise ServeError(f"unknown sweep grid {out['grid']!r} "
                             f"(known: {', '.join(sorted(PRESET_SWEEPS))})")
        return out

    from repro.designs import DESIGNS, MC_DESIGNS

    registry = MC_DESIGNS if _model_checked(spec) else DESIGNS
    out["design"] = spec.get("design")
    if out["design"] not in registry:
        raise ServeError(f"unknown {label} design {out['design']!r} "
                         f"(known: {', '.join(sorted(registry))})")
    if kind == "lint" and out["rules"] not in (None, "all"):
        raise ServeError(f"lint rules must be null or 'all', "
                         f"got {out['rules']!r}")
    if kind == "chaos":
        _check_plan(out)
    return out


def _model_checked(spec):
    """Whether a spec's design is in :data:`repro.designs.MC_DESIGNS`."""
    return spec["kind"] == "verify" or spec.get("mode") == "exhaustive"


def _check_plan(out):
    """Normalize a ``chaos`` spec's plan knobs in place and refuse what
    :func:`~repro.chaos.check_knobs` refuses."""
    from repro.chaos import check_knobs
    from repro.errors import ChaosError

    kinds, coverage = out["kinds"], out["coverage"]
    if not isinstance(kinds, (list, tuple)) \
            or not all(isinstance(k, str) for k in kinds):
        raise ServeError(f"kinds must be a list of fault kinds, got {kinds!r}")
    if isinstance(coverage, bool) or not isinstance(coverage, (int, float)):
        raise ServeError(f"coverage must be a number, got {coverage!r}")
    out["kinds"], out["coverage"] = list(kinds), float(coverage)
    try:
        check_knobs(kinds, budget=out.get("budget", -1), coverage=coverage)
    except ChaosError as exc:
        raise ServeError(str(exc)) from None


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

    mc = _model_checked(spec)
    registry = designs.MC_DESIGNS if mc else designs._DESIGN_FACTORIES
    return _built_material(mc, spec["design"], registry.get(spec["design"]))


@functools.lru_cache(maxsize=64)
def _built_material(mc, design, factory):
    """Build ``design`` once per process and factory and return its
    identity (an immutable tuple): a submit, cache hits included, needs
    only the key.  The factory is part of the memo key, so re-registering
    a name under another factory builds (and keys) afresh.  The registries
    hold a dozen designs, well inside the bound."""
    from repro.designs import build_design, build_mc_design
    from repro.verif.encoding import StateCodec

    net = (build_mc_design if mc else build_design)(design)
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

def _run_measure(spec):
    from repro.designs import build_design
    from repro.perf.report import performance_report

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
    from repro.designs import MC_VERDICTS, build_mc_design
    from repro.verif.deadlock import find_deadlocks
    from repro.verif.explore import StateExplorer
    from repro.verif.leads_to import check_leads_to

    net = build_mc_design(spec["design"])
    result = StateExplorer(net, max_states=spec["max_states"],
                           lanes=spec["lanes"], checkpoint=checkpoint,
                           control=control).explore()
    if result.stopped is not None:
        # The explorer flushed its checkpoint first; a partial exploration
        # is not a verdict.
        raise control.stop_error(result.stopped)
    rule = MC_VERDICTS[spec["design"]]
    # Only a complete graph is judged: a frontier state has no successor.
    deadlocks = len(find_deadlocks(result)) if result.complete else 0
    leads_to = None
    if rule == "deadlock-free":
        holds = not deadlocks
    else:
        if result.complete:
            leads_to = all(check_leads_to(result, f"fin{i}", f"fout{i}")[0]
                           for i in (0, 1))
        owed = _LEADS_TO_OWED[rule]
        holds = owed is None or leads_to == owed
    return {
        "design": spec["design"],
        "rule": rule,
        "n_states": result.n_states,
        "violations": len(result.violations),
        "deadlocks": deadlocks,
        "leads_to": leads_to,
        "complete": bool(result.complete),
        "ok": bool(result.complete and not result.violations and holds),
    }


def _run_lint(spec):
    import json

    from repro.designs import build_design
    from repro.lint import run_lint

    net = build_design(spec["design"])
    return json.loads(run_lint(net, rules=spec["rules"]).to_json())


def preset_sweep(spec):
    """The :class:`~repro.perf.sweep.SweepSpec` a normalized ``sweep``
    job names: its preset grid, at the job's cycle count if it sets one."""
    from repro.perf.presets import PRESET_SWEEPS

    kwargs = {}
    if spec["cycles"] is not None:
        kwargs["cycles"] = spec["cycles"]
    return PRESET_SWEEPS[spec["grid"]](**kwargs)


def _run_sweep(spec, control, checkpoint, engine):
    from repro.perf.sweep import run_sweep

    result = run_sweep(preset_sweep(spec), n_workers=1, lanes=spec["lanes"],
                       engine=engine, checkpoint=checkpoint, control=control)
    return result.to_payload()


def _run_chaos(spec, control, checkpoint, engine):
    from repro import chaos

    # seed, plan knobs and run lengths, as the mode's oracle takes them
    knobs = {name: spec[name] for name in spec
             if name not in ("kind", "design", "mode", "iterations")}
    if spec["mode"] == "soak":
        # run_soak checks the control at every iteration boundary (after
        # flushing completed rows), so a cancelled/deadlined soak surfaces
        # the structured stop error with its progress durable.
        return chaos.run_soak(spec["design"], iterations=spec["iterations"],
                              engine=engine, checkpoint=checkpoint,
                              control=control, **knobs)
    return chaos.plan_payload(spec["mode"], spec["design"], engine=engine,
                              checkpoint=checkpoint, control=control, **knobs)


def run_job(spec, control=None, checkpoint=None, engine=None):
    """Execute a normalized job spec; returns its deterministic payload.

    ``checkpoint`` is a per-job file path (sweeps, soaks and explorations
    save progress there, so a cancelled/killed job resumes); ``control``
    is the :class:`~repro.runtime.control.JobControl` carrying the
    deadline and cancellation state, honoured at the checkpoint boundaries
    of sweeps, soaks and explorations by raising
    :class:`~repro.errors.JobCancelled` /
    :class:`~repro.errors.DeadlineExceeded` (measure and lint jobs have
    none: the server checks the control before it starts a job).
    """
    kind = spec["kind"]
    if kind == "measure":
        return _run_measure(spec)
    if kind == "verify":
        return _run_verify(spec, control, checkpoint)
    if kind == "lint":
        return _run_lint(spec)
    if kind == "sweep":
        return _run_sweep(spec, control, checkpoint, engine)
    if kind == "chaos":
        return _run_chaos(spec, control, checkpoint, engine)
    raise ServeError(f"unknown job kind {kind!r}")
