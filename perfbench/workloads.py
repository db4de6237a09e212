"""The benchmark's workloads.

Each workload turns the ``--seed`` into fixed inputs in :meth:`prepare`
and then hands :mod:`run` identical *rounds* of counted work.  A round is
a list of operations ``(kind, thunk)``; ``thunk()`` does the work and
returns ``(attempted, failed, work)``: how many operations (configs,
explorations, jobs) it attempted, how many of those failed an output
check, and its work count (simulated cycles, explored states or completed
round trips).  :meth:`end_round` returns further failures found by
checks that span the whole round.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_DIR = os.path.join("perfbench", ".run")
RECORDED = os.path.join(HERE, "recorded.json")


def load_recorded():
    """Reference outputs (see ``record.py``); empty before the first
    recording."""
    try:
        with open(RECORDED) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {"sweep_digest": {}, "verify": {}}


def program_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------------
# sweep / sweep.codegen
# ---------------------------------------------------------------------------

#: (preset, cycles, warmup): the paper's four grids at a shorter run length
SWEEP_PRESETS = (
    ("fig1", 300, 50),
    ("fig1-accuracy", 300, 50),
    ("fig6", 200, 50),
    ("fig7", 150, 50),
)


#: design points per ``run_sweep`` call: slices of a grid, so that the
#: kernel timings around a call bracket a fraction of a second of work
SLICE_POINTS = 6


def sweep_specs(seed):
    """The presets' design points, each with its own seed drawn from
    ``seed``, cut into near-equal slices of at most :data:`SLICE_POINTS`.
    One seed per point, rather than one per grid, keeps the cost of a
    round nearly the same for every workload seed."""
    from repro.perf.presets import PRESET_SWEEPS
    from repro.perf.sweep import SweepSpec

    rng = random.Random(f"sweep:{seed}")
    specs = []
    for name, cycles, warmup in SWEEP_PRESETS:
        grid = PRESET_SWEEPS[name](cycles=cycles, warmup=warmup)
        points = [dict(config.params, seed=rng.randrange(1, 10 ** 6),
                       sim_channel=config.channel, label=config.name)
                  for config in grid.expand()]
        n_slices = -(-len(points) // SLICE_POINTS)
        for i in range(n_slices):
            specs.append(SweepSpec(name=grid.name, factory=grid.factory,
                                   points=points[i::n_slices],
                                   channel=grid.channel, cycles=cycles,
                                   warmup=warmup))
    return specs


def rows_digest(rows):
    """SHA-256 over sweep rows with the per-row ``engine`` label dropped."""
    stripped = [{k: v for k, v in row.items() if k != "engine"}
                for row in rows]
    return hashlib.sha256(
        json.dumps(stripped, sort_keys=True).encode()).hexdigest()


class SweepWorkload:
    """``run_sweep(n_workers=1)`` over the fig1, fig1-accuracy, fig6 and
    fig7 presets: the cold ``repro sweep`` path."""

    name = "sweep"
    engine = "worklist"
    work_unit = "simulated cycles"
    #: raw seconds per round on the reference host (sets the round count)
    nominal_round_s = 2.0
    #: operations between two reference-kernel timings
    calibrate_every = 1
    #: the operations ``op_p50_ms`` is taken over (``None``: all of them)
    latency_kind = None

    @staticmethod
    def setup_probe():
        from repro.perf.presets import PRESET_SWEEPS
        from repro.perf.sweep import run_sweep  # noqa: F401

        spec = PRESET_SWEEPS["fig1"]()
        spec.factory(**spec.expand()[0].params)

    def prepare(self, seed):
        self.seed = seed
        self.specs = sweep_specs(seed)
        self.expected = load_recorded()["sweep_digest"].get(str(seed))
        if self.expected is None and self.engine != "worklist":
            # No recorded digest for this seed: the worklist engine is the
            # reference, run once outside the timed rounds.
            self.expected = self.digest_once("worklist")

    def digest_once(self, engine):
        from repro.perf.sweep import run_sweep

        rows = []
        for spec in self.specs:
            rows += run_sweep(spec, n_workers=1, engine=engine).rows
        return rows_digest(rows)

    def start_round(self):
        pass

    def round_ops(self, tracer):
        from repro.perf.sweep import run_sweep

        self.start_round()
        self.rows = []
        self.configs = self.failures = 0

        def one(spec):
            result = tracer.span("sweep.run", run_sweep, spec, n_workers=1,
                                 engine=self.engine)
            self.rows += result.rows
            n_configs = len(result.rows) + len(result.failures)
            self.configs += n_configs
            self.failures += len(result.failures)
            cycles = sum(spec.cycles + spec.warmup for row in result.rows
                         if row["throughput_source"] == "simulation")
            return n_configs, len(result.failures), cycles

        return [("sweep", lambda spec=spec: one(spec)) for spec in self.specs]

    def end_round(self):
        digest = rows_digest(self.rows)
        if self.expected is None:
            self.expected = digest          # later rounds must repeat it
        if digest != self.expected:
            return self.configs - self.failures
        return 0

    def teardown(self):
        pass

    def designs(self):
        """One netlist per simulated configuration, for side runs."""
        nets = []
        for spec in self.specs:
            for config in spec.expand():
                if config.channel is not None:
                    made = spec.factory(**config.params)
                    nets.append(made[0] if isinstance(made, tuple) else made)
        return nets


class SweepCodegenWorkload(SweepWorkload):
    """The same grids with ``engine="codegen"``; the module cache is
    emptied before every round, so elaboration stays in the timed work as
    it does for every cold CLI sweep."""

    name = "sweep.codegen"
    engine = "codegen"
    nominal_round_s = 2.4

    @staticmethod
    def setup_probe():
        SweepWorkload.setup_probe()
        from repro.backend import pysim  # noqa: F401

    def start_round(self):
        from repro.backend import pysim

        pysim.clear_module_cache()


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

VERIFY_LANES = 8
MC_MAX_STATES = 60000
#: (design, max_states, plan seed): paper designs explored under a stall
#: plan.  The plans are fixed: which channels stall sets the cost per state
#: (up to 13x apart between plan seeds), so letting ``--seed`` pick them
#: would make rates differ by seed rather than by program.
CHAOS_EXPLORATIONS = (("fig1a", 600, 0), ("fig1d", 400, 0),
                      ("fig6b", 150, 0))
#: the speculative compositions' leads-to verdict (the static scheduler
#: without repair starves by design; the nondeterministic one owes none)
LEADS_TO = {"spec-toggle": True, "spec-nondet": None, "spec-static": False}


def chaos_plans():
    from repro.chaos import ChaosPlan
    from repro.designs import build_design

    plans = []
    for design, cap, plan_seed in CHAOS_EXPLORATIONS:
        rng = random.Random(f"verify:{design}:{plan_seed}")
        channels = sorted(build_design(design).channels)
        plan = ChaosPlan.seeded(rng.randrange(2 ** 31), channels,
                                kinds=("stall",), coverage=0.3, budget=2)
        plans.append((design, cap, plan))
    return plans


class VerifyWorkload:
    """Lane-batched exploration of every model-checking composition, plus
    stall-chaos explorations of three paper designs under a state cap.
    Exploration is exhaustive, so there is nothing for ``--seed`` to
    draw: every seed explores the same graphs, in a seed-shuffled order."""

    name = "verify"
    work_unit = "explored states"
    nominal_round_s = 0.9
    calibrate_every = 1
    latency_kind = None

    @staticmethod
    def setup_probe():
        from repro import designs
        from repro.chaos import explore_invariance  # noqa: F401
        from repro.verif.explore import StateExplorer  # noqa: F401

        designs.build_mc_design("eb")

    def prepare(self, seed):
        from repro.designs import MC_DESIGNS

        self.seed = seed
        self.mc_names = list(MC_DESIGNS)
        self.plans = chaos_plans()
        self.expected = {label: tuple(verdict) for label, verdict
                         in load_recorded()["verify"].items()}
        self.order = list(range(len(self.mc_names) + len(self.plans)))
        random.Random(f"verify:{seed}").shuffle(self.order)

    def explore_mc(self, name, lanes):
        from repro import designs
        from repro.verif import deadlock, leads_to
        from repro.verif.explore import StateExplorer

        net = designs.build_mc_design(name)
        result = StateExplorer(net, max_states=MC_MAX_STATES,
                               lanes=lanes).explore()
        dead = deadlock.find_deadlocks(result)
        leads = None
        if name in LEADS_TO:
            leads = all(leads_to.check_leads_to(result, f"fin{i}",
                                                f"fout{i}")[0]
                        for i in (0, 1))
        return (result.n_states, result.complete, len(result.violations),
                len(dead), leads)

    def explore_chaos(self, design, cap, plan, lanes):
        from repro import designs
        from repro.chaos import explore_invariance

        report = explore_invariance(lambda: designs.build_design(design),
                                    plan, max_states=cap, lanes=lanes)
        result = report.result
        return (result.n_states, result.complete, len(result.violations),
                len(report.deadlocks), None)

    def explorations(self, lanes=VERIFY_LANES):
        """``(label, thunk)`` for every exploration of one round, where
        ``thunk()`` returns the exploration's verdict tuple."""
        jobs = [(name, lambda n=name: self.explore_mc(n, lanes))
                for name in self.mc_names]
        for design, cap, plan in self.plans:
            jobs.append((f"chaos:{design}",
                         lambda d=design, c=cap, p=plan:
                         self.explore_chaos(d, c, p, lanes)))
        return [jobs[i] for i in self.order]

    def check(self, label, verdict):
        expected = self.expected.get(label)
        if expected is not None:
            return tuple(verdict) == expected
        # Nothing recorded: the protocol must hold, stall saboteurs must
        # not deadlock, a capped exploration stops exactly at its cap, and
        # later rounds must repeat this one.
        n_states, complete, violations, dead, leads = verdict
        if label.startswith("chaos:"):
            cap = {d: c for d, c, _ in CHAOS_EXPLORATIONS}[label[6:]]
            ok = violations == 0 and dead == 0 and (complete or
                                                     n_states == cap)
        else:
            owed = LEADS_TO.get(label)
            ok = complete and violations == 0 and (owed is None
                                                   or leads == owed)
        self.expected[label] = tuple(verdict)
        return ok

    def round_ops(self, tracer):
        def one(label, thunk):
            verdict = thunk()
            return 1, 0 if self.check(label, verdict) else 1, verdict[0]

        return [("explore", lambda l=label, t=thunk: one(l, t))
                for label, thunk in self.explorations()]

    def end_round(self):
        return 0

    def teardown(self):
        pass


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------

#: one new job per template per round; seeds make every key distinct
SERVE_TEMPLATES = (
    {"kind": "measure", "design": "fig1d", "channel": "ebin", "cycles": 300},
    {"kind": "measure", "design": "fig6b", "channel": "out", "cycles": 300},
    {"kind": "measure", "design": "fig7b", "channel": "out", "cycles": 120},
    {"kind": "lint", "design": "fig6b"},
    {"kind": "lint", "design": "fig7b"},
    {"kind": "verify", "design": "eb", "lanes": 1},
    {"kind": "verify", "design": "spec-toggle", "lanes": 1},
    {"kind": "chaos", "design": "fig1d", "iterations": 1, "cycles": 60},
)
HITS_PER_MISS = 3
SERVER_READY_S = 60.0


def _canonical(payload):
    return json.dumps(payload, sort_keys=True).encode()


class ServeServer:
    """A ``python -m repro serve`` subprocess on a fresh root."""

    def __init__(self, root):
        self.root = root
        shutil.rmtree(os.path.join(ROOT, root), ignore_errors=True)
        os.makedirs(os.path.join(ROOT, root))
        self.log_path = os.path.join(ROOT, root + ".log")
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", root,
                 "--cache-entries", "100000", "--max-queue", "4"],
                cwd=ROOT, env=program_env(), stdin=subprocess.DEVNULL,
                stdout=log, stderr=subprocess.STDOUT)
        self.client = None

    def _log(self):
        with open(self.log_path, "rb") as fh:
            return fh.read().decode(errors="replace")

    def wait_ready(self):
        """Block until the server answers ``status``; returns the client."""
        from repro.serve.client import ServeClient

        endpoint = os.path.join(ROOT, self.root, "endpoint.json")
        deadline = time.monotonic() + SERVER_READY_S
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    "job server exited during start-up: " + self._log())
            try:
                with open(endpoint) as fh:
                    where = json.load(fh)
                break
            except (OSError, ValueError):
                if time.monotonic() > deadline:
                    raise RuntimeError("job server never published its "
                                       "endpoint") from None
                time.sleep(0.002)
        client = ServeClient(socket_path=where.get("socket"),
                             host=where.get("host"), port=where.get("port"),
                             timeout=120.0)
        client.status()
        self.client = client
        return client

    def stop(self):
        from repro.errors import ServeError

        try:
            if self.client is not None and self.proc.poll() is None:
                self.client.shutdown()
        except ServeError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=30)
        shutil.rmtree(os.path.join(ROOT, self.root), ignore_errors=True)
        os.unlink(self.log_path)


def serve_stream(seed, round_index):
    """The requests of one round: every template once as a new job (its
    ``seed`` field is unique to this run and round), each followed by
    :data:`HITS_PER_MISS` repeats.  Every template is repeated
    :data:`HITS_PER_MISS` times per round, so each round has the same mix
    of cheap and expensive cache keys; which earlier job of the template
    is repeated is drawn at random.  Items are ``("miss", template, spec)``
    and ``("hit", template, draw)``."""
    rng = random.Random(f"serve:{seed}:{round_index}")
    base = random.Random(f"serve:{seed}").randrange(10 ** 6)
    slots = list(range(len(SERVE_TEMPLATES)))
    order = slots[:]
    rng.shuffle(order)
    repeats = slots * HITS_PER_MISS
    rng.shuffle(repeats)
    stream = []
    for slot in order:
        spec = dict(SERVE_TEMPLATES[slot])
        spec["seed"] = base + round_index * len(SERVE_TEMPLATES) + slot
        stream.append(("miss", slot, spec))
        for _ in range(HITS_PER_MISS):
            stream.append(("hit", repeats.pop(), rng.random()))
    return stream


class ServeWorkload:
    """One client in a closed loop against a ``repro serve`` subprocess:
    new jobs run and fill the cache, repeats are answered from it."""

    name = "serve"
    work_unit = "round trips"
    nominal_round_s = 0.9
    calibrate_every = 1 + HITS_PER_MISS
    #: ``op_p50_ms`` is the cache-hit latency (misses set ``work_per_s``)
    latency_kind = "hit"

    @staticmethod
    def setup_probe():
        pass                        # set-up is server start-up; see run.py

    def prepare(self, seed):
        self.seed = seed
        self.round_index = 0
        self.sent = {}              # template -> specs sent, in order
        self.payloads = {}          # canonical spec -> miss payload bytes
        self.first = {}             # spec without seed -> first payload
        self.replies = self.cached = 0
        self.server = ServeServer(os.path.join(RUN_DIR,
                                               f"serve-{os.getpid()}"))
        self.client = self.server.wait_ready()

    def check_miss(self, spec, payload):
        kind = spec["kind"]
        if kind in ("measure", "lint", "verify"):
            # the seed field does not change these jobs' work: every round
            # must reproduce the first round's payload exactly
            key = json.dumps({k: v for k, v in spec.items() if k != "seed"},
                             sort_keys=True)
            if self.first.setdefault(key, payload) != payload:
                return False
        if kind == "measure":
            return payload.get("throughput") is not None
        return bool(payload.get("ok"))

    def request(self, kind, spec):
        reply = self.client.submit(spec)
        self.replies += 1
        self.cached += bool(reply.get("cached"))
        ok = reply.get("type") == "result"
        if ok:
            body = _canonical(reply["payload"])
            canon = json.dumps(spec, sort_keys=True)
            if kind == "miss":
                ok = (not reply.get("cached")
                      and self.check_miss(spec, reply["payload"]))
                self.payloads[canon] = body
            else:
                ok = (bool(reply.get("cached"))
                      and self.payloads.get(canon) == body)
        return 1, 0 if ok else 1, 1

    def round_ops(self, tracer):
        ops = []
        for kind, slot, item in serve_stream(self.seed, self.round_index):
            if kind == "miss":
                self.sent.setdefault(slot, []).append(item)
                spec = item
            else:
                # a template not sent yet (early in the first round)
                # repeats the latest job instead
                earlier = self.sent.get(slot) or list(self.sent.values())[-1]
                spec = earlier[int(item * len(earlier))]
            ops.append((kind, lambda k=kind, s=spec: self.request(k, s)))
        self.round_index += 1
        return ops

    def end_round(self):
        return 0

    def distinct_specs(self):
        return [item for kind, _, item in serve_stream(self.seed, 0)
                if kind == "miss"]

    def teardown(self):
        server = getattr(self, "server", None)
        if server is not None:
            self.server = None
            server.stop()


WORKLOADS = {
    cls.name: cls
    for cls in (SweepWorkload, SweepCodegenWorkload, VerifyWorkload,
                ServeWorkload)
}
