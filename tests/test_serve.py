"""Fault-matrix and resilience tests for :mod:`repro.serve`.

The acceptance bar mirrors the PR 6 runtime layer: **every injected
fault must surface as a structured error or a degraded-but-correct
result — never a hung client, a dead server, or a wrong answer served
from the cache.**  The suite drives a real server (in a background
thread for the fast cases, a real subprocess for the SIGKILL/SIGTERM
cases) through deterministic :class:`~repro.runtime.faults.FaultPlan`
schedules at each of the five server fault sites — ``serve_admit``,
``serve_execute``, ``serve_cache``, ``serve_journal``, ``serve_drain``
— plus cache corruption, admission backpressure, deadlines, client
cancellation, poison-job quarantine and kill-to-restart resume, and
pins the recovered payloads byte-identical to clean runs.
"""

import asyncio
import contextlib
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.errors import CheckpointError, JobRejected, ServeError
from repro.runtime.faults import Fault, FaultPlan, corrupt_checkpoint
from repro.serve.cache import ResultCache
from repro.serve.client import ServeClient, wait_for_endpoint
from repro.serve.jobs import job_key, run_job, validate_job
from repro.serve.journal import JobJournal
from repro.serve.protocol import (
    encode_message,
    recv_message,
    send_message,
)
from repro.serve.server import JobServer

LINT_SPEC = {"kind": "lint", "design": "fig1a"}
MEASURE_SPEC = {"kind": "measure", "design": "fig1a", "cycles": 200}
SWEEP_SPEC = {"kind": "sweep", "grid": "fig6", "cycles": 120}
#: full-length grid (~1s): long enough that a drain or SIGKILL lands
#: mid-run instead of racing the job to completion
LONG_SWEEP_SPEC = {"kind": "sweep", "grid": "fig6"}


def canonical(payload):
    """The byte-identity every resume/cache assertion compares."""
    return json.dumps(payload, sort_keys=True).encode("utf-8")


@contextlib.contextmanager
def running_server(root, **kwargs):
    """A live server in a background thread plus a connected client."""
    kwargs.setdefault("backoff", 0.0)
    server = JobServer(str(root), **kwargs)
    ready = threading.Event()
    thread = threading.Thread(
        target=lambda: asyncio.run(server.run(ready=ready)), daemon=True)
    thread.start()
    assert ready.wait(10), "server failed to start"
    client = ServeClient(root=str(root), timeout=60)
    try:
        yield server, client
    finally:
        if not server.draining:
            with contextlib.suppress(ServeError):
                client.shutdown()
        thread.join(10)
        assert not thread.is_alive(), "server failed to drain"


# ---------------------------------------------------------------------------
# protocol framing


class TestProtocol:
    def test_blocking_round_trip(self):
        a, b = socket.socketpair()
        try:
            send_message(a, {"op": "status", "n": [1, 2, 3]})
            assert recv_message(b) == {"op": "status", "n": [1, 2, 3]}
            a.close()
            assert recv_message(b) is None      # clean EOF
        finally:
            b.close()

    def test_encoding_is_byte_stable(self):
        assert encode_message({"b": 1, "a": 2}) == encode_message(
            {"a": 2, "b": 1})

    def test_torn_frame_is_loud(self):
        a, b = socket.socketpair()
        try:
            a.sendall(encode_message({"x": 1})[:5])     # header + 1 byte
            a.close()
            with pytest.raises(ServeError, match="inside a frame"):
                recv_message(b)
        finally:
            b.close()

    def test_oversized_frame_is_refused(self):
        a, b = socket.socketpair()
        try:
            a.sendall((1 << 31).to_bytes(4, "big"))
            with pytest.raises(ServeError, match="limit"):
                recv_message(b)
        finally:
            a.close()
            b.close()


# ---------------------------------------------------------------------------
# job specs and keys


class TestJobIdentity:
    def test_validation_fills_defaults_and_rejects_junk(self):
        spec = validate_job(LINT_SPEC)
        assert spec == {"kind": "lint", "design": "fig1a", "rules": None,
                        "seed": 0}
        assert validate_job(MEASURE_SPEC) == {
            "kind": "measure", "design": "fig1a", "seed": 0, "channel": None,
            "cycles": 200, "warmup": 100}
        assert validate_job({"kind": "verify", "design": "eb"}) == {
            "kind": "verify", "design": "eb", "seed": 0, "max_states": 60000,
            "lanes": 1}
        assert validate_job({"kind": "sweep"}) == {
            "kind": "sweep", "grid": "fig6", "seed": 0, "cycles": None,
            "lanes": 1}
        with pytest.raises(ServeError, match="unknown job kind"):
            validate_job({"kind": "meteor"})
        with pytest.raises(ServeError, match="unknown lint design"):
            validate_job({"kind": "lint", "design": "nope"})
        with pytest.raises(ServeError, match="unknown keys"):
            validate_job({"kind": "lint", "design": "fig1a", "cycles": 5})
        with pytest.raises(ServeError, match="spec must be an object"):
            validate_job("lint fig1a")
        with pytest.raises(ServeError, match="lanes must be >= 1, got 0"):
            validate_job({"kind": "verify", "design": "eb", "lanes": 0})
        with pytest.raises(ServeError, match="lanes must be >= 1, got -3"):
            validate_job({"kind": "sweep", "lanes": -3})

    @pytest.mark.parametrize("spec,message", [
        ({"kind": "chaos", "design": "fig6b", "iterations": -3},
         "iterations must be >= 1, got -3"),
        ({"kind": "chaos", "design": "fig6b", "iterations": 0},
         "iterations must be >= 1, got 0"),
        ({"kind": "chaos", "design": "fig6b", "cycles": 0},
         "cycles must be >= 1, got 0"),
        ({"kind": "sweep", "grid": "fig6", "cycles": -1},
         "cycles must be >= 1, got -1"),
        ({"kind": "sweep", "grid": "fig6", "cycles": "60"},
         "cycles must be an integer, got '60'"),
        ({"kind": "measure", "design": "fig1a", "cycles": "12"},
         "cycles must be an integer, got '12'"),
        ({"kind": "measure", "design": "fig1a", "cycles": True},
         "cycles must be an integer, got True"),
        ({"kind": "measure", "design": "fig1a", "cycles": 12.0},
         "cycles must be an integer, got 12.0"),
        ({"kind": "measure", "design": "fig1a", "cycles": 0},
         "cycles must be >= 1, got 0"),
        ({"kind": "measure", "design": "fig1a", "warmup": -1},
         "warmup must be >= 0, got -1"),
        ({"kind": "verify", "design": "eb", "max_states": 0},
         "max_states must be >= 1, got 0"),
        ({"kind": "verify", "design": "eb", "max_states": False},
         "max_states must be an integer, got False"),
        ({"kind": "verify", "design": "eb", "lanes": True},
         "lanes must be an integer, got True"),
        ({"kind": "lint", "design": "fig1a", "seed": True},
         "seed must be an integer, got True"),
        ({"kind": "chaos", "design": "spec-toggle", "mode": "exhaustive",
          "max_states": 0}, "max_states must be >= 1, got 0"),
        ({"kind": "chaos", "design": "fig6b", "budget": 3},
         "unknown keys for a chaos soak job: budget"),
        ({"kind": "chaos", "design": "fig6b", "max_states": 10},
         "unknown keys for a chaos soak job: max_states"),
        ({"kind": "chaos", "design": "fig6b", "mode": "invariance",
          "iterations": 2}, "unknown keys for a chaos invariance job: "
                            "iterations"),
        ({"kind": "chaos", "design": "spec-toggle", "mode": "exhaustive",
          "cycles": 10}, "unknown keys for a chaos exhaustive job: cycles"),
        ({"kind": "chaos", "design": "fig6b", "mode": "exhaustive"},
         "unknown chaos exhaustive design 'fig6b'"),
        ({"kind": "chaos", "design": "spec-toggle"},
         "unknown chaos soak design 'spec-toggle'"),
        ({"kind": "chaos", "design": "fig6b", "mode": "storm"},
         "unknown chaos mode 'storm'"),
        ({"kind": "chaos", "design": "fig6b", "kinds": ["gremlin"]},
         "unknown fault kind 'gremlin'"),
        ({"kind": "chaos", "design": "fig6b", "kinds": []},
         "no fault kinds given"),
        ({"kind": "chaos", "design": "fig6b", "kinds": "stall"},
         "kinds must be a list of fault kinds"),
        ({"kind": "chaos", "design": "fig6b", "coverage": 1.5},
         "coverage must be in [0, 1], got 1.5"),
        ({"kind": "chaos", "design": "fig6b", "coverage": "half"},
         "coverage must be a number"),
        ({"kind": "chaos", "design": "fig6b", "mode": "invariance",
          "budget": -9}, "budget must be -1 (unbounded) or >= 0, got -9"),
    ])
    def test_malformed_values_rejected_at_admission(self, spec, message):
        """Each of these used to run (and cache) a result, or fail deep
        inside the job; admission refuses them instead."""
        with pytest.raises(ServeError, match=re.escape(message)):
            validate_job(spec)

    @pytest.mark.parametrize("design", ["eb", "spec-toggle"])
    def test_incomplete_verify_is_no_verdict(self, design):
        """A frontier state of a truncated graph has no expanded
        successor: it is not counted as a deadlock, leads-to is not
        judged, and the job does not pass."""
        payload = run_job(validate_job({"kind": "verify", "design": design,
                                        "max_states": 2}))
        assert payload["n_states"] == 2 and not payload["complete"]
        assert (payload["deadlocks"], payload["leads_to"], payload["ok"]) \
            == (0, None, False)

    @pytest.mark.parametrize("spec", [
        {"kind": "verify", "design": "eb"},
        {"kind": "chaos", "mode": "exhaustive", "design": "spec-toggle",
         "seed": 2},
    ], ids=["verify", "chaos-exhaustive"])
    def test_explorations_stop_through_job_control(self, spec, tmp_path):
        """A passed deadline stops the exploration at its first boundary
        with the structured error; the checkpoint then resumes to the
        clean payload."""
        from repro.errors import DeadlineExceeded
        from repro.runtime.control import JobControl

        spec = validate_job(spec)
        ckpt = str(tmp_path / "job.ckpt")
        with pytest.raises(DeadlineExceeded, match="deadline exceeded"):
            run_job(spec, control=JobControl(deadline=0), checkpoint=ckpt)
        assert os.path.exists(ckpt)
        assert run_job(spec, control=JobControl(), checkpoint=ckpt) \
            == run_job(spec)

    def test_equal_chaos_knobs_normalize_to_one_key(self):
        a = validate_job({"kind": "chaos", "design": "fig6b",
                          "coverage": 1, "kinds": ("stall",)})
        b = validate_job({"kind": "chaos", "design": "fig6b",
                          "coverage": 1.0, "kinds": ["stall"]})
        assert a == b and job_key(a) == job_key(b)

    def test_keys_are_deterministic_and_config_sensitive(self):
        base = job_key(validate_job(MEASURE_SPEC))
        assert base == job_key(validate_job(dict(MEASURE_SPEC)))
        assert base != job_key(validate_job(
            dict(MEASURE_SPEC, cycles=201)))
        assert base != job_key(validate_job(
            dict(MEASURE_SPEC, design="fig1d")))
        assert base != job_key(validate_job(MEASURE_SPEC), engine="codegen")
        assert base != job_key(validate_job(dict(MEASURE_SPEC, seed=1)))

    def test_key_binds_the_built_design_not_just_its_name(self, monkeypatch):
        """Changing what a design name *builds* must change the key — a
        cached result can never be served for a redefined design."""
        import repro.designs as designs

        before = job_key(validate_job(LINT_SPEC))
        original = designs._DESIGN_FACTORIES["fig1a"]
        monkeypatch.setitem(designs._DESIGN_FACTORIES, "fig1a",
                            designs._DESIGN_FACTORIES["fig1d"])
        after = job_key(validate_job(LINT_SPEC))
        monkeypatch.setitem(designs._DESIGN_FACTORIES, "fig1a", original)
        assert before != after


#: ``serve-v4`` keys of every canned design (engine None, seed 0), pinned
#: so that memoizing the design material cannot move a key.
PINNED_KEYS = {
    "chaos:fig1a":
        "52471f9c2341fed4dd2995a17221b27e593fc2a12c389ba0de899c25d253e8a7",
    "chaos:fig1d":
        "38a05cecd7a66a37ec4908db1d42eaea49e101f479c8e44da871f8af6afd81cd",
    "chaos:fig6b":
        "acbbe355072841d575fbeecd77bc9f4440f82233a80f1a3c5c76cacfd28a384c",
    "chaos:fig7b":
        "4c0d093c3cb959138ef91d537f48c487f25b6b7240e8f3f279aae377becbeb77",
    "lint:fig1a":
        "103a88692eb736533c7e6d168758553716d89810d3b4ec87990a020148604fbc",
    "lint:fig1d":
        "5a684ba5e414f19ee5c8b982b79514f4bf9244c53533d14365f8d704933ed863",
    "lint:fig6b":
        "51fc85e059ed3a2e8a0eb38ad54d685fa7404f18e7c4df222492cb3588f136a7",
    "lint:fig7b":
        "0c80519eb96796321a0c241fa190e016ecea1cc3c78147364f6598f29ba369d5",
    "measure:fig1a":
        "3ccd9c5e74f93cebdfa54a0581520198cb09d9bd690a37e5d86ff93911010c3c",
    "measure:fig1d":
        "3f29ff0c7b61eccc5a479e6b6e3f594b9bfe2ecb48352e468ea6f27abfcf57dc",
    "measure:fig6b":
        "fbad977859172c76340cc0023c4846fbf74d7602f9ee5e6b5303cb66eaeb2fbe",
    "measure:fig7b":
        "962d2259a1c3a168437ceae9a7825c195de43f789fdf6680b8b9b078a954313c",
    "verify:eb":
        "989ffecbc12c021a2c6bd4d7119bf03fd72b4070cda851f33f37b86565fc9275",
    "verify:spec-nondet":
        "2625a68a0d61e46a46e401a4a570a3d0f2f8890f6b5eb1b0e2d5edd1cd9c23f8",
    "verify:spec-static":
        "a4b4dbfed9e0adcd65e4bc8ece67f8d2b3cabae4c626f56824a3090fff93535a",
    "verify:spec-toggle":
        "aa552304abe3a053ed8775b00cdd6b9b17f534e7a7dbae9998906fea28992079",
    "verify:zbl":
        "dfcdc8d401b93a6c021899efe5abebc8325e840698eb9868d379fa95ae7ecbb5",
}

#: the ``serve-v3`` keys the ``PINNED_KEYS`` designs had before verify
#: payloads gained the verdict rule and chaos specs their mode: every
#: key moved with the format
SERVE_V3_KEYS = {
    "chaos:fig1a":
        "c9adc8f48d21c9324e96fb57069ec20f3e425359264aa89b5c4c8987ca3f7b9b",
    "chaos:fig1d":
        "fdd3d4b8099a80e5da5c94c9267f7b25c07f4802bfd9563479bc67a1020c150f",
    "chaos:fig6b":
        "6b88435bb11b1ddcecd9e580c8ee0eb31794a85a4cfbc7b0e3613d9d68dc410e",
    "chaos:fig7b":
        "904c6630804f88644f2d1209d0e86660fd9ad6217ef289437f8e5864316b81a6",
    "lint:fig1a":
        "17a7e3e8ca93a60abcc327e65bcc3fa7c28cd5740180d14c6e4518e7319be35a",
    "lint:fig1d":
        "e7fd604c9e230ceae3d9d26e37065f0a09796e022a15935524bfdce9af5d781d",
    "lint:fig6b":
        "2aa71c500ab4f0674b85f70a922ed05a705083c49a0b1f17c5477b496eb6e1b5",
    "lint:fig7b":
        "05712321b0a1443b80d5d31735e9fb0e4d0cf9b6b520336f29f26862625061ce",
    "measure:fig1a":
        "942ba107ecbc204d484227c516374f3479716843eb69e8d09a663d85f42e07e6",
    "measure:fig1d":
        "4c850de836c6699948f719eb0438f3de62d1df2bcc2eee3b7afb5b366be155e1",
    "measure:fig6b":
        "93186124a5f8f163c16890523687dd19755158632f5e5963e181c19ba6149ecf",
    "measure:fig7b":
        "c0e60a07add19e091d41b2cfa2a3680ac976d1bdfc8122c8d66ae22a48d5872f",
    "verify:eb":
        "6bc7393fcacb99998e19b42353ae2ed9547c597db8230ef79599aea8fe0232e6",
    "verify:spec-nondet":
        "880b3b700444bddce42d8083da9c57d17af604e3ce6008256691794532ee62f4",
    "verify:spec-static":
        "7ba408642976edc771e87239f0ac2e4d7b9c89dcd41c1c2b2bad9900f16b7a8c",
    "verify:spec-toggle":
        "fd3de07610777dbee562e4b489df0221964f68bcd6fee2e26c0f60690826a308",
    "verify:zbl":
        "03412ee5dc7892f64eda93d0a9202e06374bfbc0fc20f949772b53eefa4866d8",
}

#: the job mix of the ``serve`` perfbench workload, with their ``serve-v3``
#: keys (which also name the parametrized tests)
SERVE_TEMPLATE_KEYS = (
    ({"kind": "measure", "design": "fig1d", "channel": "ebin", "cycles": 300},
     "52d30612a4a744342c349b7df17940e83f66283bc7cd8774931614fce60aa9b0"),
    ({"kind": "measure", "design": "fig6b", "channel": "out", "cycles": 300},
     "f24796d349ddbc135efc84be604add1d76e96b72e58746224dc7b79b39571ea6"),
    ({"kind": "measure", "design": "fig7b", "channel": "out", "cycles": 120},
     "4b39cce05d4fc0b956583797b5d2512c39592abe1615caad28723924294e4696"),
    ({"kind": "lint", "design": "fig6b"},
     "2aa71c500ab4f0674b85f70a922ed05a705083c49a0b1f17c5477b496eb6e1b5"),
    ({"kind": "lint", "design": "fig7b"},
     "05712321b0a1443b80d5d31735e9fb0e4d0cf9b6b520336f29f26862625061ce"),
    ({"kind": "verify", "design": "eb", "lanes": 1},
     "6bc7393fcacb99998e19b42353ae2ed9547c597db8230ef79599aea8fe0232e6"),
    ({"kind": "verify", "design": "spec-toggle", "lanes": 1},
     "fd3de07610777dbee562e4b489df0221964f68bcd6fee2e26c0f60690826a308"),
    ({"kind": "chaos", "design": "fig1d", "iterations": 1, "cycles": 60},
     "7ad19fe2670390647c5094330236818cbf1c547190aaa22de50b8400f201a3ca"),
)



#: ``serve-v3`` key -> ``serve-v4`` key of each ``SERVE_TEMPLATE_KEYS`` job
SERVE_TEMPLATE_V4_KEYS = {
    "52d30612a4a744342c349b7df17940e83f66283bc7cd8774931614fce60aa9b0":
        "935d8b70bb809b10270c3c3a5550f77587eccfa27d793cd9c8d6614024d7ea4f",
    "f24796d349ddbc135efc84be604add1d76e96b72e58746224dc7b79b39571ea6":
        "1db21b0e4ca637ffb6f1ca424d9710bf9fe910968fef829afa6fb5036ad70f99",
    "4b39cce05d4fc0b956583797b5d2512c39592abe1615caad28723924294e4696":
        "25fc93f92b8c247c63eacf82cc30dcfe7b0009cb7b602f6c2364266f0c9a61d2",
    "2aa71c500ab4f0674b85f70a922ed05a705083c49a0b1f17c5477b496eb6e1b5":
        "51fc85e059ed3a2e8a0eb38ad54d685fa7404f18e7c4df222492cb3588f136a7",
    "05712321b0a1443b80d5d31735e9fb0e4d0cf9b6b520336f29f26862625061ce":
        "0c80519eb96796321a0c241fa190e016ecea1cc3c78147364f6598f29ba369d5",
    "6bc7393fcacb99998e19b42353ae2ed9547c597db8230ef79599aea8fe0232e6":
        "989ffecbc12c021a2c6bd4d7119bf03fd72b4070cda851f33f37b86565fc9275",
    "fd3de07610777dbee562e4b489df0221964f68bcd6fee2e26c0f60690826a308":
        "aa552304abe3a053ed8775b00cdd6b9b17f534e7a7dbae9998906fea28992079",
    "7ad19fe2670390647c5094330236818cbf1c547190aaa22de50b8400f201a3ca":
        "302531169305ba3c55f0296c0b779b1a6eb175465dcfd70a13e89a72f830ca4a",
}


class TestKeyMaterial:
    """A job key builds its design once per process: the material is
    memoized per (kind, design, factory), and the keys stay exactly what
    they were when every submit built the design afresh."""

    @pytest.mark.parametrize("label", sorted(PINNED_KEYS))
    def test_design_keys_unchanged(self, label):
        kind, design = label.split(":")
        spec = validate_job({"kind": kind, "design": design})
        assert job_key(spec) == PINNED_KEYS[label]
        assert job_key(spec) == PINNED_KEYS[label]     # memoized: same key
        assert PINNED_KEYS[label] != SERVE_V3_KEYS[label]

    @pytest.mark.parametrize("spec,key", SERVE_TEMPLATE_KEYS)
    def test_serve_template_keys_unchanged(self, spec, key):
        """``key`` is the template's ``serve-v3`` key; its ``serve-v4``
        successor is pinned and differs."""
        assert job_key(validate_job(dict(spec))) == SERVE_TEMPLATE_V4_KEYS[key]
        assert SERVE_TEMPLATE_V4_KEYS[key] != key

    def test_every_design_is_pinned(self):
        from repro.designs import DESIGNS, MC_DESIGNS

        pinned = {label.split(":")[1] for label in PINNED_KEYS}
        assert pinned == set(DESIGNS) | set(MC_DESIGNS)

    def test_repeat_submits_build_once(self, monkeypatch):
        import repro.designs as designs
        from repro.serve.jobs import _built_material

        built = []
        original = designs.build_design

        def counting(name, *args, **kwargs):
            built.append(name)
            return original(name, *args, **kwargs)

        monkeypatch.setattr(designs, "build_design", counting)
        _built_material.cache_clear()
        try:
            keys = {job_key(validate_job(dict(MEASURE_SPEC, seed=seed)))
                    for seed in range(5)}
            job_key(validate_job(LINT_SPEC))
        finally:
            _built_material.cache_clear()
        assert len(keys) == 5
        assert built == ["fig1a"]


# ---------------------------------------------------------------------------
# the result cache


class TestResultCache:
    def test_round_trip_and_hit_counting(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = job_key(validate_job(LINT_SPEC))
        assert cache.get(key) is None
        cache.put(key, {"ok": True})
        assert cache.get(key) == {"ok": True}
        assert cache.stats() == {"hits": 1, "misses": 1, "evictions": 0,
                                 "corrupt_evictions": 0}

    @pytest.mark.parametrize("mode", ["flip", "truncate", "garbage"])
    def test_corruption_is_evicted_never_served(self, tmp_path, mode):
        cache = ResultCache(str(tmp_path))
        cache.put("k" * 64, {"payload": list(range(100))})
        corrupt_checkpoint(cache.path("k" * 64), mode=mode)
        assert cache.get("k" * 64) is None
        assert cache.corrupt_evictions == 1
        assert not os.path.exists(cache.path("k" * 64))
        # recompute-and-overwrite works after the eviction
        cache.put("k" * 64, {"payload": [1]})
        assert cache.get("k" * 64) == {"payload": [1]}

    def test_foreign_key_entry_is_refused(self, tmp_path):
        """A file renamed onto another key's path fails the key check."""
        cache = ResultCache(str(tmp_path))
        cache.put("a" * 64, {"from": "a"})
        os.replace(cache.path("a" * 64), cache.path("b" * 64))
        assert cache.get("b" * 64) is None
        assert cache.corrupt_evictions == 1

    def test_lru_eviction_is_size_bounded_and_recency_driven(self, tmp_path):
        cache = ResultCache(str(tmp_path), max_entries=3)
        for i in range(3):
            cache.put(f"{i}" * 64, {"i": i})
        cache.get("0" * 64)                     # refresh 0: now 1 is LRU
        cache.put("3" * 64, {"i": 3})
        assert cache.get("1" * 64) is None      # evicted
        assert cache.get("0" * 64) == {"i": 0}  # survived (recently used)
        assert cache.get("3" * 64) == {"i": 3}
        assert cache.evictions == 1


# ---------------------------------------------------------------------------
# the job journal


class TestJobJournal:
    def test_round_trip_and_pending_order(self, tmp_path):
        path = str(tmp_path / "journal.ckpt")
        journal = JobJournal(path).load()
        journal.append("submitted", "1", key="k1", spec={"kind": "lint"})
        journal.append("submitted", "2", key="k2", spec={"kind": "sweep"})
        journal.append("done", "1", key="k1")
        reloaded = JobJournal(path).load()
        assert reloaded.pending() == [("2", "k2", {"kind": "sweep"})]
        assert reloaded.max_job_id() == 2

    def test_corrupt_journal_is_loud(self, tmp_path):
        path = str(tmp_path / "journal.ckpt")
        journal = JobJournal(path)
        journal.append("submitted", "1", key="k", spec={})
        corrupt_checkpoint(path, mode="flip")
        with pytest.raises(CheckpointError):
            JobJournal(path).load()

    def test_injected_append_failure_changes_nothing(self, tmp_path):
        """``serve_journal`` faults fire before any mutation: the record
        list and the on-disk file both stay as if the append never
        happened."""
        from repro.runtime.faults import InjectedFault, plan_scope

        path = str(tmp_path / "journal.ckpt")
        journal = JobJournal(path)
        journal.append("submitted", "1", key="k", spec={})
        with plan_scope(FaultPlan([Fault("serve_journal", "done")])):
            with pytest.raises(InjectedFault):
                journal.append("done", "1", key="k")
        assert [r["event"] for r in journal.records] == ["submitted"]
        assert [r["event"] for r in JobJournal(path).load().records] \
            == ["submitted"]

    def test_journal_stays_bounded_by_pending_jobs(self, tmp_path):
        """500 jobs through a queue of 4, finished mostly in order and
        some cancelled ahead of older ones: the file never holds more than
        the queue plus the high-water record, and a restarted server
        finishes the pending jobs and continues the id sequence."""
        max_queue = 4
        path = str(tmp_path / "journal.ckpt")
        spec = validate_job(LINT_SPEC)
        key = job_key(spec)
        journal = JobJournal(path).load()
        queue = []
        for job in range(1, 501):
            if len(queue) == max_queue:
                # every seventh time, the newest queued job is cancelled
                # instead of the oldest finishing
                victim = queue.pop(-1 if job % 7 == 0 else 0)
                journal.append("cancelled" if job % 7 == 0 else "done",
                               victim, key=key)
            journal.append("submitted", str(job), key=key, spec=spec)
            queue.append(str(job))
            assert len(journal.records) <= max_queue + 1
        reloaded = JobJournal(path).load()
        assert len(reloaded.records) <= max_queue + 1
        assert [job for job, _, _ in reloaded.pending()] == queue
        assert reloaded.max_job_id() == 500
        reference = run_job(spec)
        with running_server(tmp_path, max_queue=max_queue) as (_s, client):
            deadline = time.monotonic() + 30
            while JobJournal(path).load().pending():
                assert time.monotonic() < deadline, "pending jobs never ran"
                time.sleep(0.05)
            terminal = client.submit(LINT_SPEC, fresh=True)
            assert terminal["job"] == "501"
            assert canonical(terminal["payload"]) == canonical(reference)
        assert JobJournal(path).load().records == [
            {"event": "high_water", "job": "501"}]

    def test_uncompacted_journal_still_loads(self, tmp_path):
        """A ``journal-v1`` file that kept every terminal record (how the
        journal was written before compaction) loads with its pending
        jobs and high-water id, and compacts at its next terminal
        append."""
        from repro.runtime.checkpoint import save_checkpoint

        path = str(tmp_path / "journal.ckpt")
        spec = validate_job(LINT_SPEC)
        history = []
        for job in ("1", "2", "3", "4"):
            history.append({"event": "submitted", "job": job, "key": "k",
                            "spec": spec})
        history += [{"event": "done", "job": "1", "key": "k"},
                    {"event": "failed", "job": "4", "key": "k",
                     "error": "boom"},
                    {"event": "cancelled", "job": "2", "key": "k",
                     "reason": "client"}]
        save_checkpoint(path, "serve-journal", "journal-v1",
                        {"records": history}, codec="json")
        journal = JobJournal(path).load()
        assert journal.pending() == [("3", "k", spec)]
        assert journal.max_job_id() == 4
        journal.append("submitted", "5", key="k", spec=spec)
        journal.append("done", "3", key="k")
        assert JobJournal(path).load().records == [
            {"event": "submitted", "job": "5", "key": "k", "spec": spec},
            {"event": "high_water", "job": "5"}]


# ---------------------------------------------------------------------------
# server behaviour (in-thread)


class TestServerBasics:
    def test_result_then_cache_hit_byte_identical(self, tmp_path):
        with running_server(tmp_path) as (server, client):
            first = client.submit(LINT_SPEC)
            second = client.submit(LINT_SPEC)
            assert first["type"] == second["type"] == "result"
            assert not first.get("cached") and second["cached"]
            assert canonical(first["payload"]) == canonical(second["payload"])
            assert server.cache.stats()["hits"] == 1
            # --fresh bypasses the cache but recomputes identically
            third = client.submit(LINT_SPEC, fresh=True)
            assert not third.get("cached")
            assert canonical(third["payload"]) == canonical(first["payload"])

    def test_sweep_job_streams_progress(self, tmp_path):
        events = []
        with running_server(tmp_path) as (_server, client):
            terminal = client.submit(SWEEP_SPEC, on_event=events.append)
        assert terminal["type"] == "result"
        assert terminal["payload"]["n_configs"] == 24
        types = {event["type"] for event in events}
        assert "accepted" in types and "progress" in types

    def test_malformed_spec_is_a_structured_error(self, tmp_path):
        with running_server(tmp_path) as (server, client):
            with pytest.raises(ServeError, match="unknown job kind"):
                client.submit({"kind": "meteor"})
            with pytest.raises(ServeError, match="lanes must be >= 1"):
                client.submit({"kind": "verify", "design": "eb", "lanes": 0})
            # nothing was queued, and the server survives the bad requests
            assert server.depth == 0
            assert client.status()["type"] == "status"

    def test_unknown_op_and_unknown_cancel_are_structured(self, tmp_path):
        with running_server(tmp_path) as (_server, client):
            with pytest.raises(ServeError, match="unknown op"):
                client._simple({"op": "launch"})
            with pytest.raises(ServeError, match="unknown job"):
                client.cancel("999")


class TestCliParity:
    """The CLI runs the job code ``repro submit`` runs: a local run and a
    submitted run of one spec give the same payload.  Nothing here reads
    a clock; each check compares payloads (or their rendering)."""

    def test_verify_report_from_submitted_jobs(self, tmp_path):
        from repro import cli
        from test_cli import VERIFY_REPORT

        lines = []
        with running_server(tmp_path) as (_server, client):
            for heading, checks in cli._VERIFY_CHECKS:
                lines.append(heading)
                for design, label, _slug in checks:
                    reply = client.submit({"kind": "verify",
                                           "design": design})
                    lines.append(cli._verify_line(label, reply["payload"]))
        assert "\n".join(lines) + "\n" == VERIFY_REPORT

    def test_verify_json_equals_submitted_payloads(self, tmp_path, capsys):
        from repro import cli

        assert cli.main(["verify", "--json"]) == 0
        local = json.loads(capsys.readouterr().out)
        designs = [design for _heading, checks in cli._VERIFY_CHECKS
                   for design, _label, _slug in checks]
        assert sorted(local) == sorted(designs)
        with running_server(tmp_path) as (_server, client):
            for design in designs:
                reply = client.submit({"kind": "verify", "design": design})
                assert reply["payload"] == local[design]

    @pytest.mark.parametrize("argv,spec", [
        (["--design", "fig1d", "--soak", "--iterations", "1",
          "--cycles", "60"],
         {"design": "fig1d", "iterations": 1, "cycles": 60}),
        (["--design", "fig6b", "--seed", "4", "--cycles", "60"],
         {"mode": "invariance", "design": "fig6b", "seed": 4, "cycles": 60}),
        (["--design", "spec-toggle", "--seed", "2", "--exhaustive"],
         {"mode": "exhaustive", "design": "spec-toggle", "seed": 2}),
    ], ids=["soak-mode", "invariance-mode", "exhaustive-mode"])
    def test_chaos_json_equals_submitted_payload(self, tmp_path, capsys,
                                                 argv, spec):
        from repro import cli

        assert cli.main(["chaos", *argv, "--json"]) == 0
        local = json.loads(capsys.readouterr().out)
        with running_server(tmp_path) as (_server, client):
            reply = client.submit(dict(spec, kind="chaos"))
        assert reply["payload"] == local

    @pytest.mark.parametrize("audit", [False, True])
    def test_lint_json_equals_submitted_payload(self, tmp_path, capsys,
                                                audit):
        from repro import cli

        cli.main(["lint", "--design", "fig6b", "--json"]
                 + (["--audit"] if audit else []))
        local = json.loads(capsys.readouterr().out)
        with running_server(tmp_path) as (_server, client):
            reply = client.submit({"kind": "lint", "design": "fig6b",
                                   "rules": "all" if audit else None})
        assert reply["payload"] == local

    def test_sweep_json_equals_submitted_payload(self, tmp_path, capsys):
        from repro import cli

        path = tmp_path / "sweep.json"
        assert cli.main(["sweep", "--grid", "fig1", "--cycles", "60",
                         "--json", str(path)]) == 0
        local = json.loads(path.read_text())
        with running_server(tmp_path / "root") as (_server, client):
            reply = client.submit({"kind": "sweep", "grid": "fig1",
                                   "cycles": 60})
        assert reply["payload"] == local


class TestAdmissionControl:
    def test_queue_full_is_structured_backpressure(self, tmp_path):
        plan = FaultPlan([Fault("serve_execute", "lint", kind="slow",
                                seconds=3.0, times=99)])
        with running_server(tmp_path, max_queue=1, retries=0,
                            fault_plan=plan) as (server, client):
            background = threading.Thread(
                target=lambda: client.submit(LINT_SPEC), daemon=True)
            background.start()
            deadline = time.monotonic() + 5
            while server.depth < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            with pytest.raises(JobRejected) as info:
                client.submit(MEASURE_SPEC)
            assert info.value.queue_depth == 1
            assert info.value.max_queue == 1
            background.join(10)
            assert not background.is_alive()

    def test_injected_admission_fault_is_structured(self, tmp_path):
        plan = FaultPlan([Fault("serve_admit", "lint", kind="raise")])
        with running_server(tmp_path, fault_plan=plan) as (_server, client):
            with pytest.raises(ServeError, match="injected"):
                client.submit(LINT_SPEC)
            # containment: only the faulted admission key is affected, and
            # the server keeps serving
            assert client.submit(MEASURE_SPEC)["type"] == "result"

    def test_draining_server_rejects_new_jobs(self, tmp_path):
        with running_server(tmp_path) as (server, client):
            client.shutdown()
            deadline = time.monotonic() + 5
            while not server.draining and time.monotonic() < deadline:
                time.sleep(0.01)
            with pytest.raises((JobRejected, ServeError)):
                client.submit(LINT_SPEC)


class TestDeadlinesAndCancellation:
    def test_deadline_stops_at_checkpoint_boundary(self, tmp_path):
        # the deadline must fall well inside the job: the fig6 sweep runs
        # about 0.2 s once its topologies are compiled
        with running_server(tmp_path) as (_server, client):
            terminal = client.submit({"kind": "sweep", "grid": "fig6"},
                                     deadline=0.05)
            assert terminal["type"] == "cancelled"
            assert terminal["reason"] == "deadline exceeded"

    def test_client_cancels_a_queued_job(self, tmp_path):
        # the running lint job blocks the (serial) worker long enough that
        # the measure job is still queued when the cancel lands
        plan = FaultPlan([Fault("serve_execute", "lint", kind="slow",
                                seconds=4.0, times=99)])
        with running_server(tmp_path, max_queue=4, retries=0,
                            fault_plan=plan) as (server, client):
            def submit_blocker():
                with contextlib.suppress(ServeError):
                    client.submit(LINT_SPEC)

            blocker = threading.Thread(target=submit_blocker, daemon=True)
            blocker.start()
            # make the ordering deterministic: only submit the job to be
            # cancelled once the blocker occupies the worker
            deadline = time.monotonic() + 10
            while server.running is None and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.running is not None, "blocker job never started"
            accepted = {}
            terminal_box = {}

            def submit_queued():
                terminal_box["event"] = client.submit(
                    MEASURE_SPEC, fresh=True,
                    on_event=lambda e: accepted.update(e)
                    if e["type"] == "accepted" else None)

            queued = threading.Thread(target=submit_queued, daemon=True)
            queued.start()
            deadline = time.monotonic() + 5
            while "job" not in accepted and time.monotonic() < deadline:
                time.sleep(0.01)
            client.cancel(accepted["job"], reason="changed my mind")
            queued.join(20)
            assert not queued.is_alive()
            assert terminal_box["event"]["type"] == "cancelled"
            assert terminal_box["event"]["reason"] == "changed my mind"
            blocker.join(20)
            assert not blocker.is_alive()


class TestExecutionFaults:
    def test_retried_fault_recovers_byte_identically(self, tmp_path):
        clean = run_job(validate_job(LINT_SPEC))
        events = []
        plan = FaultPlan([Fault("serve_execute", "lint", kind="raise",
                                times=1)])
        with running_server(tmp_path, retries=1,
                            fault_plan=plan) as (_server, client):
            terminal = client.submit(LINT_SPEC, on_event=events.append)
        assert terminal["type"] == "result"
        assert terminal["attempts"] == 2
        assert canonical(terminal["payload"]) == canonical(clean)
        assert [e["type"] for e in events if e["type"] == "retry"] == ["retry"]

    @pytest.mark.parametrize("kind", ["crash", "hang"])
    def test_crash_and_hang_degrade_and_retry(self, tmp_path, kind):
        """In-process ``crash``/``hang`` faults degrade to raises (the
        PR 6 contract); the server retries and recovers."""
        plan = FaultPlan([Fault("serve_execute", "lint", kind=kind,
                                times=1)])
        with running_server(tmp_path, retries=1,
                            fault_plan=plan) as (_server, client):
            terminal = client.submit(LINT_SPEC)
        assert terminal["type"] == "result"
        assert terminal["attempts"] == 2

    def test_poison_job_is_quarantined(self, tmp_path):
        plan = FaultPlan([Fault("serve_execute", "lint", kind="raise",
                                times=99)])
        with running_server(tmp_path, retries=1,
                            fault_plan=plan) as (_server, client):
            terminal = client.submit(LINT_SPEC)
            assert terminal["type"] == "failed"
            assert terminal["attempts"] == 2
            assert "injected" in terminal["error"]
            # other jobs are unaffected
            assert client.submit(MEASURE_SPEC)["type"] == "result"
        # quarantine: the journal records the failure (its terminal append
        # drops the job's submission), so a restarted server does NOT
        # resurrect the poison job
        journal = JobJournal(str(tmp_path / "journal.ckpt")).load()
        assert journal.pending() == []
        assert journal.records == [{"event": "high_water", "job": "2"}]

    def test_drain_ends_retry_backoff_without_another_attempt(self,
                                                            tmp_path):
        """A drain during a retry's backoff (here at least 15 s) ends the
        wait and starts no further attempt: the job is detached and stays
        journaled pending for the next server."""
        plan = FaultPlan([Fault("serve_execute", "lint", kind="raise",
                                times=1)])
        events = []

        def drain_on_retry(event):
            events.append(event["type"])
            if event["type"] == "retry":
                client.shutdown()

        with running_server(tmp_path, retries=1, backoff=30.0,
                            fault_plan=plan) as (server, client):
            terminal = client.submit(LINT_SPEC, on_event=drain_on_retry)
        # running_server joined the drained server within 10 s
        assert events == ["accepted", "retry"]
        assert terminal["type"] == "detached"
        assert server.jobs[terminal["job"]]["attempts"] == 1
        journal = JobJournal(str(tmp_path / "journal.ckpt")).load()
        assert [job_id for job_id, _key, _spec in journal.pending()] == [
            terminal["job"]]

    def test_cancel_ends_retry_backoff_without_another_attempt(self,
                                                             tmp_path):
        """A cancel during a retry's backoff (here at least 15 s) ends the
        wait: the job finishes cancelled after its one attempt, where
        waiting the delay out would start a second one that stops at its
        first checkpoint."""
        plan = FaultPlan([Fault("serve_execute", "lint", kind="raise",
                                times=1)])
        events = []

        def cancel_on_retry(event):
            events.append(event["type"])
            if event["type"] == "retry":
                client.cancel(event["job"], reason="no retry")

        with running_server(tmp_path, retries=1, backoff=30.0,
                            fault_plan=plan) as (server, client):
            terminal = client.submit(LINT_SPEC, on_event=cancel_on_retry)
        assert events == ["accepted", "retry"]
        assert terminal["type"] == "cancelled"
        assert terminal["reason"] == "no retry"
        assert server.jobs[terminal["job"]]["attempts"] == 1
        journal = JobJournal(str(tmp_path / "journal.ckpt")).load()
        assert journal.pending() == []

    def test_cache_write_fault_degrades_to_uncached_reply(self, tmp_path):
        plan = FaultPlan([Fault("serve_cache", kind="raise", times=99)])
        clean = run_job(validate_job(LINT_SPEC))
        with running_server(tmp_path, retries=0,
                            fault_plan=plan) as (server, client):
            first = client.submit(LINT_SPEC)
            assert first["type"] == "result"
            assert "injected" in first["cache_error"]
            assert canonical(first["payload"]) == canonical(clean)
            # nothing was cached; the repeat recomputes, still correctly
            second = client.submit(LINT_SPEC)
            assert not second.get("cached")
            assert canonical(second["payload"]) == canonical(clean)
            assert server.cache.stats()["hits"] == 0

    def test_journal_submit_fault_rejects_job(self, tmp_path):
        plan = FaultPlan([Fault("serve_journal", "submitted", kind="raise")])
        with running_server(tmp_path, fault_plan=plan) as (server, client):
            with pytest.raises(JobRejected, match="journal write failed"):
                client.submit(LINT_SPEC)
            # the acceptance never became durable: nothing queued, nothing
            # journaled, and the server keeps answering
            assert server.depth == 0
            assert JobJournal(
                str(tmp_path / "journal.ckpt")).load().records == []
            assert client.status()["type"] == "status"

    def test_journal_terminal_fault_still_delivers_result(self, tmp_path):
        plan = FaultPlan([Fault("serve_journal", "done", kind="raise",
                                times=99)])
        with running_server(tmp_path, fault_plan=plan) as (_server, client):
            terminal = client.submit(LINT_SPEC)
            assert terminal["type"] == "result"
            assert "journal write failed" in terminal["journal_error"]


class TestCacheIntegrity:
    def test_corrupted_cache_entry_recomputes_never_serves(self, tmp_path):
        with running_server(tmp_path) as (server, client):
            first = client.submit(LINT_SPEC)
            key = first["key"]
            corrupt_checkpoint(server.cache.path(key), mode="flip")
            second = client.submit(LINT_SPEC)
            assert second["type"] == "result"
            assert not second.get("cached")     # recomputed, not served
            assert canonical(second["payload"]) == canonical(first["payload"])
            assert server.cache.corrupt_evictions == 1
            # the rewritten entry is valid again
            third = client.submit(LINT_SPEC)
            assert third["cached"]


class TestEndpointDiscovery:
    @pytest.fixture
    def clock(self, monkeypatch):
        """A fake clock that only ``time.sleep`` advances; records naps."""
        state = {"now": 0.0, "naps": [], "on_nap": None}

        def sleep(seconds):
            state["naps"].append(seconds)
            state["now"] += seconds
            if state["on_nap"] is not None:
                state["on_nap"](len(state["naps"]))

        monkeypatch.setattr(time, "sleep", sleep)
        monkeypatch.setattr(time, "monotonic", lambda: state["now"])
        return state

    def test_file_is_seen_on_the_first_look_after_it_appears(self, tmp_path,
                                                             clock):
        endpoint = tmp_path / "endpoint.json"

        def appear(naps):
            if naps == 9:
                endpoint.write_text('{"socket": "serve.sock"}')

        clock["on_nap"] = appear
        assert wait_for_endpoint(str(tmp_path)) == {"socket": "serve.sock"}
        # intervals double from 1 ms up to 50 ms
        assert clock["naps"] == [0.001 * 2 ** n for n in range(6)] + [0.05] * 3

    def test_overall_timeout_is_kept(self, tmp_path, clock):
        with pytest.raises(ServeError, match="within 2s"):
            wait_for_endpoint(str(tmp_path), timeout=2.0)
        assert 2.0 <= sum(clock["naps"]) < 2.05
        assert set(clock["naps"][-10:]) == {0.05}


# ---------------------------------------------------------------------------
# drain / restart / resume


class TestDrainAndResume:
    def test_drain_detaches_queue_and_restart_finishes_it(self, tmp_path):
        """Kill-free version of the SIGKILL story: drain a server mid-
        sweep, restart on the same root, and the finished result must be
        byte-identical to an uninterrupted reference run."""
        reference = run_job(validate_job(LONG_SWEEP_SPEC))
        terminal_box = {}
        with running_server(tmp_path, retries=0) as (server, client):
            background = threading.Thread(
                target=lambda: terminal_box.update(
                    client.submit(LONG_SWEEP_SPEC)),
                daemon=True)
            background.start()
            deadline = time.monotonic() + 10
            while server.running is None and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.running is not None, "sweep never started"
            client.shutdown()
            background.join(15)
            assert not background.is_alive()
        assert terminal_box["type"] == "detached"
        # the job is still journaled pending, with a progress checkpoint
        journal = JobJournal(str(tmp_path / "journal.ckpt")).load()
        assert len(journal.pending()) == 1
        # a fresh server on the same root finishes it from the checkpoint
        with running_server(tmp_path, retries=0) as (server, client):
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                journal = JobJournal(str(tmp_path / "journal.ckpt")).load()
                if not journal.pending():
                    break
                time.sleep(0.05)
            assert not journal.pending(), "restart did not finish the job"
            final = client.submit(LONG_SWEEP_SPEC)
            assert final["cached"]
            assert canonical(final["payload"]) == canonical(reference)

    def test_startup_reenqueues_journaled_pending_jobs(self, tmp_path):
        """A journal with an accepted-but-unfinished job (what a SIGKILL
        leaves behind) is enough: the next server runs it to completion
        unprompted."""
        spec = validate_job(LINT_SPEC)
        key = job_key(spec)
        journal = JobJournal(str(tmp_path / "journal.ckpt"))
        journal.append("submitted", "7", key=key, spec=spec)
        reference = run_job(spec)
        with running_server(tmp_path) as (server, client):
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if JobJournal(str(tmp_path / "journal.ckpt")).load() \
                        .pending() == []:
                    break
                time.sleep(0.05)
            terminal = client.submit(LINT_SPEC)
            assert terminal["cached"]
            assert canonical(terminal["payload"]) == canonical(reference)

    def test_drain_fault_is_absorbed(self, tmp_path):
        plan = FaultPlan([Fault("serve_drain", kind="raise", times=99)])
        server_box = {}
        with running_server(tmp_path, fault_plan=plan) as (server, client):
            server_box["server"] = server
            assert client.submit(LINT_SPEC)["type"] == "result"
            client.shutdown()
        # the drain completed despite the injected fault, and recorded it
        assert any("injected" in err
                   for err in server_box["server"].drain_errors)


# ---------------------------------------------------------------------------
# subprocess cases: SIGKILL resume, SIGTERM parity


def _serve_env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn_server(root, *extra):
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", str(root), *extra],
        env=_serve_env(), stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)


@pytest.mark.slow
class TestSubprocessServer:
    def test_sigkill_midrun_restart_resumes_byte_identically(self, tmp_path):
        """The tentpole acceptance case: SIGKILL a real server process
        mid-sweep; a restarted server finishes the journaled job from its
        checkpoint and serves a result byte-identical to a clean run."""
        reference = run_job(validate_job(LONG_SWEEP_SPEC))
        proc = _spawn_server(tmp_path, "--retries", "0")
        try:
            wait_for_endpoint(str(tmp_path), timeout=30)
            client = ServeClient(root=str(tmp_path), timeout=60)

            def fire_and_forget():
                with contextlib.suppress(ServeError):
                    client.submit(LONG_SWEEP_SPEC)

            background = threading.Thread(target=fire_and_forget,
                                          daemon=True)
            background.start()
            # let the sweep get properly under way, then SIGKILL
            deadline = time.monotonic() + 10
            started = False
            journal_path = str(tmp_path / "journal.ckpt")
            while time.monotonic() < deadline:
                try:
                    if JobJournal(journal_path).load().pending():
                        started = True
                        break
                except (CheckpointError, OSError):
                    pass
                time.sleep(0.02)
            assert started, "job never reached the journal"
            time.sleep(0.3)
            proc.kill()
            proc.wait(10)
            background.join(10)
        finally:
            if proc.poll() is None:
                proc.kill()
        # restart: the pending job must complete without any client
        proc = _spawn_server(tmp_path, "--retries", "0")
        try:
            # the killed server's endpoint file outlives it: wait for the
            # one the restarted server writes once it listens
            deadline = time.monotonic() + 30
            while (wait_for_endpoint(str(tmp_path), timeout=30).get("pid")
                   != proc.pid):
                assert time.monotonic() < deadline, "restart never listened"
                time.sleep(0.05)
            client = ServeClient(root=str(tmp_path), timeout=60)
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if not JobJournal(journal_path).load().pending():
                    break
                time.sleep(0.1)
            assert not JobJournal(journal_path).load().pending(), \
                "restarted server did not finish the journaled job"
            final = client.submit(LONG_SWEEP_SPEC)
            assert final["type"] == "result"
            assert final["cached"]
            assert canonical(final["payload"]) == canonical(reference)
            client.shutdown()
            assert proc.wait(30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()

    def test_sigterm_drains_and_exits_143(self, tmp_path):
        proc = _spawn_server(tmp_path)
        try:
            wait_for_endpoint(str(tmp_path), timeout=30)
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(30) == 143
        finally:
            if proc.poll() is None:
                proc.kill()

    def test_sigint_drains_and_exits_130(self, tmp_path):
        proc = _spawn_server(tmp_path)
        try:
            wait_for_endpoint(str(tmp_path), timeout=30)
            proc.send_signal(signal.SIGINT)
            assert proc.wait(30) == 130
        finally:
            if proc.poll() is None:
                proc.kill()

    def test_cli_submit_round_trip(self, tmp_path):
        proc = _spawn_server(tmp_path)
        try:
            wait_for_endpoint(str(tmp_path), timeout=30)
            out = subprocess.run(
                [sys.executable, "-m", "repro", "submit", "lint",
                 "--root", str(tmp_path), "--design", "fig1a", "--json"],
                env=_serve_env(), capture_output=True, text=True, timeout=120)
            assert out.returncode == 0, out.stderr
            terminal = json.loads(out.stdout)
            assert terminal["type"] == "result"
            assert terminal["payload"]["ok"] is True
            shut = subprocess.run(
                [sys.executable, "-m", "repro", "submit", "shutdown",
                 "--root", str(tmp_path)],
                env=_serve_env(), capture_output=True, text=True, timeout=60)
            assert shut.returncode == 0, shut.stderr
            assert proc.wait(30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
