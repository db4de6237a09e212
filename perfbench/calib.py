"""Reference-kernel calibration.

The host's speed drifts from minute to minute (other tenants, frequency
scaling), so raw wall-clock rates of the same work differ by tens of
percent between runs.  The benchmark therefore times a fixed pure-Python
kernel between work units and reports every timed quantity in
*calibrated seconds*: raw seconds scaled by how much slower or faster the
kernel ran than its nominal time.  The kernel mixes attribute access,
method calls, dict updates and small-int arithmetic, like the
interpreter-bound cycle simulation it stands in for.
"""

from __future__ import annotations

import time

#: kernel cycles per call; sized to ~10 ms on a 2-vCPU cloud VM
KERNEL_CYCLES = 2000
#: nominal kernel time in seconds: calibrated == raw when the kernel runs
#: at exactly this speed
KERNEL_REF_S = 0.010
#: kernel calls per timing; the median is taken
KERNEL_REPS = 3
#: how strongly work time follows kernel time: the log-log slope of
#: fig6 sweep time against bracketing kernel time, fitted over 30-40 paired
#: samples per engine on the reference host under contention, was
#: 0.5-0.75 (the small kernel swings more than the simulation does)
CAL_EXPONENT = 0.7
#: checksum of one kernel call; a different value means a broken kernel
KERNEL_CHECKSUM = 779


class _Cell:
    __slots__ = ("value", "valid", "changes")

    def __init__(self):
        self.value = 0
        self.valid = False
        self.changes = 0

    def drive(self, value, valid):
        changed = self.valid != valid or self.value != value
        if changed:
            self.value = value
            self.valid = valid
            self.changes += 1
        return changed


def reference_kernel(cycles=KERNEL_CYCLES):
    """One kernel call; returns a checksum that depends on every step."""
    cells = [_Cell() for _ in range(16)]
    fired = {}
    acc = 1
    for cycle in range(cycles):
        for i in range(16):
            cell = cells[i]
            nxt = cells[(i + 1) & 15]
            if cell.drive((acc + i) & 255, ((cycle + i) & 3) != 0):
                fired[i] = fired.get(i, 0) + 1
            acc = (acc * 5 + nxt.value + (1 if nxt.valid else 0)) & 0xFFFF
    return (acc + sum(fired.values()) + sum(c.changes for c in cells)) & 0xFFFF


def time_kernel(reps=KERNEL_REPS, clock=time.perf_counter):
    """Median wall-clock seconds of ``reps`` kernel calls."""
    samples = []
    for _ in range(reps):
        start = clock()
        check = reference_kernel()
        samples.append(clock() - start)
        if check != KERNEL_CHECKSUM:
            raise RuntimeError(f"reference kernel checksum {check} != "
                               f"{KERNEL_CHECKSUM}")
    samples.sort()
    return samples[len(samples) // 2]


def scale(kernel_s, ref_s=KERNEL_REF_S):
    """Factor that turns raw seconds into calibrated seconds."""
    if kernel_s <= 0:
        raise ValueError(f"kernel time must be positive, got {kernel_s}")
    return (ref_s / kernel_s) ** CAL_EXPONENT


def calibrated(raw_s, kernel_before, kernel_after, ref_s=KERNEL_REF_S):
    """Calibrate ``raw_s`` seconds of work bracketed by two kernel timings
    (their mean stands for the host speed during the work)."""
    return raw_s * scale((kernel_before + kernel_after) / 2.0, ref_s)
