#!/usr/bin/env python3
"""Benchmark of the elastic-systems toolkit, end to end and layer by layer.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Workloads: ``sweep``, ``sweep.codegen``, ``verify``, ``serve`` (see
``perfbench/README.md``).  ``--workload all`` runs each in its own fresh
process.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1`` (the
traced run also writes its spans under ``perfbench/.run/``).
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import benchstats  # noqa: E402
import calib  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

#: timed set-ups per run (after one untimed warm-up); the median is kept
SETUP_RUNS = 5
#: stop starting rounds past this many seconds, whatever --seconds says
RUN_LIMIT_S = 140.0

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",
    "op_p50_ms": "ms",
}

#: per-layer metric -> unit; self times are calibrated seconds per round
PER_LAYER = {
    "import.networkx_s": "s", "import.repro_s": "s",
    "netlist.build_s": "s", "netlist.builds": "count",
    "perf.static_s": "s", "perf.mcr_s": "s", "perf.mcr_calls": "count",
    "sweep.overhead_s": "s",
    "sim.build_s": "s", "sim.run_s": "s", "sim.cycles": "count",
    "sim.evals_per_cycle": "count",
    "pysim.elaborate_s": "s", "pysim.run_s": "s", "pysim.modules": "count",
    "pysim.cache_hits": "count", "pysim.deferred_nodes": "count",
    "verif.explore_s": "s", "verif.states": "count",
    "verif.deadlock_s": "s", "verif.leads_to_s": "s",
    "chaos.wrap_s": "s", "chaos.edits": "count",
    "batch.lane_speedup": "ratio", "batch.lanes1_explore_s": "s",
    "serve.run_job_s": "s", "serve.overhead_ms": "ms",
    "serve.hit_p50_ms": "ms", "serve.miss_p50_ms": "ms",
    "serve.hit_p90_ms": "ms", "serve.miss_p90_ms": "ms",
    "serve.hit_ratio": "ratio", "lint.run_s": "s", "chaos.soak_s": "s",
    "calib.kernel_s": "s", "trace.overhead": "ratio",
    "raw.work_per_s": "1/s", "calib.work_per_s": "1/s",
}

#: span name -> per-layer self-time metric
SPAN_METRICS = {
    "netlist.build": "netlist.build_s", "perf.static": "perf.static_s",
    "perf.mcr": "perf.mcr_s", "sweep.run": "sweep.overhead_s",
    "sim.build": "sim.build_s", "sim.run": "sim.run_s",
    "pysim.elaborate": "pysim.elaborate_s", "pysim.run": "pysim.run_s",
    "verif.explore": "verif.explore_s", "verif.deadlock": "verif.deadlock_s",
    "verif.leads_to": "verif.leads_to_s", "chaos.wrap": "chaos.wrap_s",
    "lint.run": "lint.run_s", "chaos.soak": "chaos.soak_s",
}

#: per-round work counts taken at span boundaries
COUNTS = ("netlist.builds", "perf.mcr_calls", "sim.cycles", "verif.states",
          "chaos.edits")

#: modules each workload's process imports before its first operation
IMPORTS = {
    "sweep": ("repro.perf.sweep", "repro.perf.presets"),
    "sweep.codegen": ("repro.perf.sweep", "repro.perf.presets",
                      "repro.backend.pysim"),
    "verify": ("repro.designs", "repro.chaos", "repro.verif.explore"),
    "serve": ("repro.cli", "repro.serve.server"),
}

#: how the generic end-to-end metrics read on each workload
ALIASES = {
    "sweep": ("sim_cycles_per_s", "sweep_p50_ms"),
    "sweep.codegen": ("sim_cycles_per_s", "sweep_p50_ms"),
    "verify": ("states_per_s", "exploration_p50_ms"),
    "serve": ("jobs_per_s", "hit_p50_ms"),
}


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def source_rev():
    """Git revision of the checkout, or a digest of ``src/`` outside git."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=wl.ROOT, capture_output=True, text=True,
                             timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base, _dirs, files in sorted(os.walk(os.path.join(wl.ROOT, "src"))):
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    digest.update(name.encode() + fh.read())
    return "src-" + digest.hexdigest()[:12]


def stamp(kernel_s):
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "rev": source_rev(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "kernel_s": kernel_s,
    }


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------

def setup_once(name):
    """Raw seconds from launching a fresh process to its being ready for
    the first operation: a server answering ``status`` for ``serve``, the
    workload's modules imported and its first design built otherwise."""
    if name == "serve":
        start = time.perf_counter()
        server = wl.ServeServer(os.path.join(wl.RUN_DIR,
                                             f"setup-{os.getpid()}"))
        try:
            server.wait_ready()
            return time.perf_counter() - start
        finally:
            server.stop()
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(wl.HERE, "run.py"),
         "--setup-probe", name],
        cwd=wl.ROOT, env=wl.program_env(), stdout=subprocess.PIPE,
        stdin=subprocess.DEVNULL)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
    finally:
        proc.stdout.close()
        proc.wait(timeout=60)
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe for {name} failed "
                           f"(exit {proc.returncode})")
    return elapsed


def measure_setup(name):
    """Median calibrated set-up seconds over fresh processes, each
    calibrated by the kernel timings either side of it."""
    setup_once(name)                # untimed: byte-compiles the sources
    kernels = [calib.time_kernel(reps=1)]
    samples = []
    for _ in range(SETUP_RUNS):
        raw = setup_once(name)
        kernels.append(calib.time_kernel(reps=1))
        samples.append(calib.calibrated(raw, kernels[-2], kernels[-1]))
    return benchstats.median(samples)


# ---------------------------------------------------------------------------
# tracing hooks
# ---------------------------------------------------------------------------

def install_tracing(tracer, counts):
    """Wrap the public entry points of every layer (see README.md)."""
    from repro import chaos, designs, lint
    from repro.backend.pysim import CodegenBackend
    from repro.chaos import verify as chaos_verify
    from repro.perf import presets, report
    from repro.serve.client import ServeClient
    from repro.sim.engine import Simulator
    from repro.verif import deadlock, leads_to
    from repro.verif.explore import StateExplorer

    def count(name, amount=1):
        key = (tracer.round, name)
        counts[key] = counts.get(key, 0) + amount

    def built(result, *args, **kwargs):
        count("netlist.builds")

    for fn in ("fig1_point", "fig6_point", "fig7_point"):
        tracer.patch(presets, fn, "netlist.build", built)
    for fn in ("build_design", "build_mc_design"):
        tracer.patch(designs, fn, "netlist.build", built)
    tracer.patch(report, "static_report", "perf.static")
    tracer.patch(report, "marked_graph_throughput", "perf.mcr",
                 lambda result, *a, **k: count("perf.mcr_calls"))
    tracer.patch(Simulator, "__init__", "sim.build")
    tracer.patch(
        Simulator, "run",
        lambda sim, n: "pysim.run" if sim.engine == "codegen" else "sim.run",
        lambda result, sim, n: count("sim.cycles", n))
    tracer.patch(CodegenBackend, "__init__", "pysim.elaborate")
    tracer.patch(StateExplorer, "explore", "verif.explore",
                 lambda result, *a, **k: count("verif.states",
                                               result.n_states))
    tracer.patch(deadlock, "find_deadlocks", "verif.deadlock")
    tracer.patch(leads_to, "check_leads_to", "verif.leads_to")
    tracer.patch(chaos_verify, "wrap", "chaos.wrap",
                 lambda handle, *a, **k: count("chaos.edits",
                                               len(handle.edits)))
    tracer.patch(lint, "run_lint", "lint.run")
    tracer.patch(chaos, "run_soak", "chaos.soak")
    tracer.patch(ServeClient, "submit", "serve.submit")


def evals_per_cycle(nets, cycles=200):
    """Mean worklist evaluations per cycle over one ``profile=True`` run
    per distinct topology."""
    from repro.sim.batch import topology_signature
    from repro.sim.profile import profile_run

    seen = set()
    evals = total = 0
    for net in nets:
        signature = topology_signature(net)
        if signature in seen:
            continue
        seen.add(signature)
        report = profile_run(net.clone(), cycles=cycles, engine="worklist")
        evals += sum(report.evals_per_cycle)
        total += report.cycles
    return evals / total


def deferred_nodes(nets):
    """Deferred nodes summed over the distinct generated modules, read
    from the ``generated_source`` headers."""
    from repro.backend.pysim import generated_source

    modules = {}
    for net in nets:
        source = generated_source(net)
        topology = re.search(r"topology (\w+)", source).group(1)
        modules[topology] = int(re.search(r"(\d+) deferred", source).group(1))
    return sum(modules.values())


# ---------------------------------------------------------------------------
# one workload in this process
# ---------------------------------------------------------------------------

def run_round(workload, tracer):
    """One round: each operation timed on its own, with a reference-kernel
    timing before the first and after every ``calibrate_every``
    operations; an operation is calibrated by the two timings around it."""
    ops = workload.round_ops(tracer)
    kernels = [calib.time_kernel(reps=1)]
    timed = []
    attempted = failed = work = 0
    for i, (kind, thunk) in enumerate(ops):
        start = time.perf_counter()
        n, bad, done = thunk()
        timed.append((kind, time.perf_counter() - start, len(kernels) - 1))
        attempted += n
        failed += bad
        work += done
        if (i + 1) % workload.calibrate_every == 0 or i + 1 == len(ops):
            kernels.append(calib.time_kernel(reps=1))
    failed += workload.end_round()
    ops = [(kind, raw, calib.scale((kernels[k] + kernels[k + 1]) / 2))
           for kind, raw, k in timed]
    return {
        "raw": sum(raw for _, raw, _ in ops),
        "cal": sum(raw * factor for _, raw, factor in ops),
        "ops": ops, "kernels": kernels, "work": work,
        "attempted": attempted, "failed": failed,
    }


def run_rounds(workload, rounds, tracer, trace):
    """Run the rounds; traced runs alternate untraced and traced ones."""
    records = []
    for index in range(rounds):
        traced = trace and index % 2 == 1
        tracer.round = index
        tracer.enabled = traced
        record = run_round(workload, tracer)
        tracer.enabled = False
        record.update(index=index, traced=traced)
        if traced and workload.name == "sweep.codegen":
            from repro.backend.pysim import cache_stats

            record["pysim"] = cache_stats()
        records.append(record)
        elapsed = time.perf_counter() - _T0
        if index + 1 < rounds and elapsed + 2 * record["raw"] > RUN_LIMIT_S:
            print(f"# stopping after {index + 1} of {rounds} rounds "
                  f"({elapsed:.0f} s elapsed)")
            break
    return records


def latencies_ms(records, kind=None):
    """Calibrated operation latencies in ms (of one kind, if given)."""
    return [raw * factor * 1000.0 for r in records
            for op_kind, raw, factor in r["ops"]
            if kind is None or op_kind == kind]


def end_to_end(workload, records, setup_s):
    plain = [r for r in records if not r["traced"]]
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "work_per_s": benchstats.median(r["work"] / r["cal"] for r in plain),
        "op_p50_ms": benchstats.median(
            benchstats.median(latencies_ms([r], workload.latency_kind))
            for r in plain),
    }


def per_layer(workload, records, tracer, counts, imports):
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    out = {name: 0.0 for name in PER_LAYER}
    out.update(imports)
    by_metric = {}
    for r in traced:
        own = tracer.self_times(r["index"])
        factor = r["cal"] / r["raw"]
        for span_name, metric in SPAN_METRICS.items():
            by_metric.setdefault(metric, []).append(
                own.get(span_name, 0.0) * factor)
    for metric, values in by_metric.items():
        out[metric] = benchstats.median(values)
    for name in COUNTS:
        out[name] = benchstats.median(
            counts.get((r["index"], name), 0) for r in traced)
    if workload.name == "sweep.codegen":
        out["pysim.modules"] = benchstats.median(
            r["pysim"]["modules"] for r in traced)
        out["pysim.cache_hits"] = benchstats.median(
            r["pysim"]["hits"] for r in traced)
    out["calib.kernel_s"] = benchstats.median(
        k for r in records for k in r["kernels"])
    out["trace.overhead"] = (benchstats.median(r["cal"] for r in traced)
                             / benchstats.median(r["cal"] for r in plain))
    out["raw.work_per_s"] = benchstats.median(
        r["work"] / r["raw"] for r in plain)
    out["calib.work_per_s"] = benchstats.median(
        r["work"] / r["cal"] for r in plain)
    out.update(side_runs(workload, records, tracer, counts))
    return out


def side_runs(workload, records, tracer, counts):
    """Measurements made after the rounds, outside their timing.  The
    serve workload's layers are traced here, in this process, because the
    server's own calls happen in another one."""
    from repro import designs

    out = {}
    name = workload.name
    if name in ("sweep", "sweep.codegen"):
        nets = workload.designs()
        out["sim.evals_per_cycle"] = evals_per_cycle(nets)
        if name == "sweep.codegen":
            out["pysim.deferred_nodes"] = deferred_nodes(nets)
    elif name == "verify":
        out["sim.evals_per_cycle"] = evals_per_cycle(
            [designs.build_design(d) for d, _, _ in wl.CHAOS_EXPLORATIONS])
        times = {}
        for lanes in (1, wl.VERIFY_LANES):
            before = calib.time_kernel()
            start = time.perf_counter()
            for _label, thunk in workload.explorations(lanes=lanes):
                thunk()
            raw = time.perf_counter() - start
            times[lanes] = calib.calibrated(raw, before, calib.time_kernel())
        out["batch.lanes1_explore_s"] = times[1]
        out["batch.lane_speedup"] = times[1] / times[wl.VERIFY_LANES]
    elif name == "serve":
        from repro.serve.jobs import run_job, validate_job

        out["sim.evals_per_cycle"] = evals_per_cycle(
            [designs.build_design(t["design"]) for t in wl.SERVE_TEMPLATES
             if t["kind"] == "measure"])
        specs = [validate_job(spec) for spec in workload.distinct_specs()]
        before = calib.time_kernel()
        tracer.round = "side"
        tracer.enabled = True
        for spec in specs:
            tracer.span("serve.run_job", run_job, spec)
        tracer.enabled = False
        factor = calib.scale((before + calib.time_kernel()) / 2)
        side = [s for s in tracer.spans if s[5] == "side"]
        run_job_s = factor * sum(end - start for _, span_name, start, end,
                                 _, _ in side if span_name == "serve.run_job")
        for span_name, seconds in spans.self_times(side).items():
            if span_name in SPAN_METRICS:
                out[SPAN_METRICS[span_name]] = seconds * factor
        for (label, metric), amount in counts.items():
            if label == "side":
                out[metric] = amount
        hits = latencies_ms(records, "hit")
        misses = latencies_ms(records, "miss")
        out["serve.run_job_s"] = run_job_s
        out["serve.overhead_ms"] = (sum(misses) / len(misses)
                                    - 1000.0 * run_job_s / len(specs))
        out["serve.hit_p50_ms"] = benchstats.median(hits)
        out["serve.miss_p50_ms"] = benchstats.median(misses)
        out["serve.hit_p90_ms"] = benchstats.percentile(hits, 90)
        out["serve.miss_p90_ms"] = benchstats.percentile(misses, 90)
        out["serve.hit_ratio"] = workload.cached / workload.replies
    return out


def time_imports(name):
    """Cold import times (calibrated) of networkx and of the workload's
    own modules, measured before anything else imports them."""
    start = time.perf_counter()
    importlib.import_module("networkx")
    nx_raw = time.perf_counter() - start
    start = time.perf_counter()
    importlib.import_module("repro")
    for module in IMPORTS[name]:
        importlib.import_module(module)
    repro_raw = time.perf_counter() - start
    factor = calib.scale(calib.time_kernel())
    return {"import.networkx_s": nx_raw * factor,
            "import.repro_s": repro_raw * factor}


def run_workload(name, seed, seconds, trace):
    """One workload in this process; prints the result and returns 0."""
    os.makedirs(os.path.join(wl.ROOT, wl.RUN_DIR), exist_ok=True)
    imports = time_imports(name) if trace else {}
    setup_s = measure_setup(name)
    tracer = spans.Tracer()
    counts = {}
    if trace:
        install_tracing(tracer, counts)
    workload = wl.WORKLOADS[name]()
    rounds = max(2 if trace else 1,
                 round(seconds / workload.nominal_round_s))
    try:
        workload.prepare(seed)
        records = run_rounds(workload, rounds, tracer, trace)
        if trace:
            metrics = per_layer(workload, records, tracer, counts, imports)
        else:
            metrics = end_to_end(workload, records, setup_s)
    finally:
        workload.teardown()
        tracer.restore()
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    env = stamp(benchstats.median(k for r in records for k in r["kernels"]))
    print("# stamp " + json.dumps(env, sort_keys=True))
    print(f"# {name}: seed {seed}, {len(records)} rounds of "
          f"{records[0]['work']} {workload.work_unit}, "
          f"{attempted} operations, {failed} failed")
    if trace:
        path = os.path.join(wl.RUN_DIR, f"trace-{name}-{seed}.json")
        tracer.write(os.path.join(wl.ROOT, path),
                     meta={"workload": name, "seed": seed, **env})
        print(f"# spans: {len(tracer.spans)} written to {path}")
        units = PER_LAYER
    else:
        units = END_TO_END
        rate, latency = ALIASES[name]
        print(f"# {rate} = {metrics['work_per_s']:.1f} 1/s, "
              f"{latency} = {metrics['op_p50_ms']:.3f} ms")
        for kind in (("hit", "miss") if name == "serve" else (None,)):
            values = latencies_ms(records, kind)
            q1, q2, q3 = benchstats.quartiles(values)
            pct, tail_ms = benchstats.tail(values)
            tail_text = (f", p{pct} {tail_ms:.3f} ms"
                         if pct is not None and pct > 50 else "")
            print(f"# {kind or 'operation'} latency over {len(values)} "
                  f"samples: p50 {q2:.3f} ms (quartiles {q1:.3f}-{q3:.3f})"
                  f"{tail_text}")
    for metric, unit in units.items():
        print(f"{metric} = {metrics[metric]:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": float(metrics[metric]), "unit": unit}
                    for metric, unit in units.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# all workloads, each in a fresh process
# ---------------------------------------------------------------------------

def run_all(args):
    results = {}
    status = 0
    for name in wl.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(wl.HERE, "run.py"),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=wl.ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"[{name}] failed with exit code {proc.returncode}")
            status = 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps(results, sort_keys=True))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(wl.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--record", default=None, metavar="FIRST-LAST",
                        help="recompute perfbench/recorded.json for a seed "
                             "range")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(wl.ROOT, "src", "repro",
                                       "__init__.py")):
        sys.stderr.write("perfbench: no src/repro next to perfbench/; run "
                         "from a checkout of the repository\n")
        return 2
    os.chdir(wl.ROOT)
    sys.path.insert(0, os.path.join(wl.ROOT, "src"))
    if args.setup_probe:
        wl.WORKLOADS[args.setup_probe].setup_probe()
        print("ready", flush=True)
        return 0
    if args.record:
        import record

        first, _, last = args.record.partition("-")
        return record.record(range(int(first), int(last or first) + 1))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
