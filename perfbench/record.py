"""Recompute ``perfbench/recorded.json``: the reference outputs the
benchmark checks its runs against.

    python3 perfbench/run.py --record 0-39

For each seed, the digest of the sweep rows, computed on the worklist
engine and required to be identical on codegen.  Once, the verdict of
every exploration of the verify workload, required to be identical at one
lane and at eight.
"""

from __future__ import annotations

import json

import workloads as wl


def _verdicts(workload, lanes):
    return {label: list(thunk())
            for label, thunk in workload.explorations(lanes=lanes)}


def record(seeds):
    verify = wl.VerifyWorkload()
    verify.prepare(0)
    verdicts = _verdicts(verify, wl.VERIFY_LANES)
    if _verdicts(verify, 1) != verdicts:
        raise SystemExit("lane-batched exploration differs from scalar")
    out = {"sweep_digest": {}, "verify": verdicts}
    for seed in seeds:
        sweep = wl.SweepWorkload()
        sweep.prepare(seed)
        digest = sweep.digest_once("worklist")
        if sweep.digest_once("codegen") != digest:
            raise SystemExit(f"seed {seed}: codegen sweep rows differ from "
                             "worklist")
        out["sweep_digest"][str(seed)] = digest
        print(f"seed {seed}: {digest[:16]}", flush=True)
    with open(wl.RECORDED, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0
