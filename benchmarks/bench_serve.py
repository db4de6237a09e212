"""E12 — the job service's verified result cache (``repro.serve``).

Drives a real in-process :class:`~repro.serve.server.JobServer` through
the client protocol: submits the fig6 sweep cold (full simulation of the
24-configuration grid), then resubmits it and times the cache hit — a
checksum-verified read of the content-addressed result file instead of a
re-simulation.  The headline claim is the ISSUE's acceptance bar: **a
cache hit answers at least 5x faster than the cold run**, with a
byte-identical payload.

Both latencies land in ``results/BENCH_serve.json`` (merged, so later
PRs extend the trajectory instead of clobbering it); the perf-smoke
suite guards the recorded speedup the same way it guards the engine
numbers.
"""

import asyncio
import json
import threading
import time

from conftest import merge_json, write_result

from repro.serve.client import ServeClient
from repro.serve.server import JobServer

SWEEP_SPEC = {"kind": "sweep", "grid": "fig6"}
MIN_SPEEDUP = 5.0


def _timed_submit(client, spec):
    start = time.perf_counter()
    terminal = client.submit(spec)
    return terminal, time.perf_counter() - start


def test_cache_hit_latency(tmp_path):
    server = JobServer(str(tmp_path), retries=0)
    ready = threading.Event()
    thread = threading.Thread(
        target=lambda: asyncio.run(server.run(ready=ready)), daemon=True)
    thread.start()
    assert ready.wait(10)
    client = ServeClient(root=str(tmp_path), timeout=300)
    try:
        cold, cold_s = _timed_submit(client, SWEEP_SPEC)
        warm, warm_s = _timed_submit(client, SWEEP_SPEC)
    finally:
        client.shutdown()
        thread.join(30)

    assert cold["type"] == warm["type"] == "result"
    assert not cold.get("cached") and warm["cached"]
    assert json.dumps(cold["payload"], sort_keys=True) == \
        json.dumps(warm["payload"], sort_keys=True)
    speedup = cold_s / warm_s if warm_s else float("inf")
    assert speedup >= MIN_SPEEDUP, (
        f"cache hit only {speedup:.1f}x faster than the cold run "
        f"({warm_s * 1e3:.2f} ms vs {cold_s * 1e3:.2f} ms)")

    merge_json("BENCH_serve.json", {
        "serve_cache": {
            "sweep": "fig6",
            "n_configs": cold["payload"]["n_configs"],
            "cold_seconds": round(cold_s, 6),
            "cache_hit_seconds": round(warm_s, 6),
            "speedup": round(speedup, 2),
        },
    })
    write_result("serve_cache.txt", "\n".join([
        "repro serve: verified result cache (fig6 sweep, 24 configs)",
        f"  cold run   : {cold_s * 1e3:9.2f} ms",
        f"  cache hit  : {warm_s * 1e3:9.2f} ms",
        f"  speedup    : {speedup:9.1f}x  (bar: >= {MIN_SPEEDUP:.0f}x)",
    ]))
