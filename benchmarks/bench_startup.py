"""E15 — cold start: what one short-lived process pays before it works.

The toolkit is driven through many short processes: each ``repro sweep``,
``repro submit`` and ``repro serve`` start is one, and so is every
spawn-start sweep worker.  Every package loads its exports on first use
(:mod:`repro._lazy`), so a process imports only the layers it runs.  This
bench times three fresh-process paths, plus a bare interpreter as the
floor they share:

* ``help`` — ``python -m repro --help`` to exit;
* ``client`` — ``python -c "import repro.serve.client"`` to exit (what a
  ``repro submit`` pays before it connects);
* ``serve`` — ``python -m repro serve ROOT`` from launch until it answers
  its first ``status`` (the server is then shut down, untimed);
* ``interpreter`` — ``python -c pass`` to exit.

The probes run in ``SAMPLES`` rounds after one untimed round that
byte-compiles the sources; each round runs every probe once, in an order
rotated per round, so host drift spreads over all of them.  Each probe's
median, quartiles and IQR land in ``results/BENCH_startup.json``
(merged, like the other BENCH files) with an environment stamp, and each
run appends its medians to the file's ``history`` list.

Run:  PYTHONPATH=src python -m pytest -q benchmarks/bench_startup.py
"""

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from conftest import RESULTS_DIR, merge_json, write_result

from repro.serve.client import ServeClient

SAMPLES = 11         # timed rounds; every round runs every probe once
SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _timed_exit(args):
    # no timeout: waiting with one polls at growing intervals, which
    # would quantize the times
    start = time.perf_counter()
    subprocess.run([sys.executable, *args], env=_env(), check=True,
                   stdout=subprocess.DEVNULL, stdin=subprocess.DEVNULL)
    return time.perf_counter() - start


def _endpoint(root, proc):
    """The server's endpoint once published, polled every 2 ms (the
    client's own 50 ms poll would quantize the start-up time)."""
    path = os.path.join(root, "endpoint.json")
    deadline = time.monotonic() + 30.0
    while True:
        try:
            with open(path) as fh:
                return json.load(fh)
        except (OSError, ValueError):
            assert proc.poll() is None, "server exited during start-up"
            assert time.monotonic() < deadline, "no endpoint published"
            time.sleep(0.002)


def _timed_serve():
    root = tempfile.mkdtemp(prefix="bench-startup-")
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", root], env=_env(),
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    try:
        where = _endpoint(root, proc)
        client = ServeClient(socket_path=where.get("socket"),
                             host=where.get("host"), port=where.get("port"),
                             timeout=60.0)
        assert client.status()["type"] == "status"
        elapsed = time.perf_counter() - start
        client.shutdown()
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
        shutil.rmtree(root, ignore_errors=True)
    return elapsed


PROBES = {
    "help": lambda: _timed_exit(["-m", "repro", "--help"]),
    "client": lambda: _timed_exit(["-c", "import repro.serve.client"]),
    "serve": _timed_serve,
    "interpreter": lambda: _timed_exit(["-c", "pass"]),
}


def _summary(samples):
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median_ms": median * 1e3, "q1_ms": q1 * 1e3, "q3_ms": q3 * 1e3,
            "iqr_ms": (q3 - q1) * 1e3, "samples": len(samples)}


def _history(entry):
    """``BENCH_startup.json``'s recorded runs with ``entry`` appended."""
    path = os.path.join(RESULTS_DIR, "BENCH_startup.json")
    old = {}
    if os.path.exists(path):
        with open(path) as fh:
            old = json.load(fh)
    return old.get("history", []) + [entry]


def test_cold_start():
    names = list(PROBES)
    for name in names:              # untimed: byte-compiles the sources
        PROBES[name]()
    samples = {name: [] for name in names}
    for round_index in range(SAMPLES):
        shift = round_index % len(names)
        for name in names[shift:] + names[:shift]:
            samples[name].append(PROBES[name]())
    probes = {name: _summary(runs) for name, runs in samples.items()}
    environment = {"python": platform.python_version(),
                   "nproc": len(os.sched_getaffinity(0)),
                   "loadavg": [round(x, 2) for x in os.getloadavg()],
                   # without cached bytecode every probe compiles what it
                   # imports, and the times grow with the modules loaded
                   "bytecode_cached": not sys.dont_write_bytecode}
    merge_json("BENCH_startup.json", {
        "startup": {"probes": probes, "environment": environment,
                    "samples_ms": {name: [s * 1e3 for s in runs]
                                   for name, runs in samples.items()}},
        "history": _history({
            "median_ms": {name: p["median_ms"] for name, p in probes.items()},
            "iqr_ms": {name: p["iqr_ms"] for name, p in probes.items()},
            "environment": environment,
        }),
    })
    write_result("startup.txt", "\n".join(
        [f"cold start, {SAMPLES} rotated fresh-process samples each "
         f"(python {environment['python']}, {environment['nproc']} CPUs)"]
        + [f"  {name:<12}: median {p['median_ms']:7.1f} ms  "
           f"(quartiles {p['q1_ms']:.1f}-{p['q3_ms']:.1f})"
           for name, p in probes.items()]))
