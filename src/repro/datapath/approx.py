"""Function speculation: the carry-window approximate adder.

Section 5.1 uses a variable-latency unit built from ``F_approx`` — "an
approximation of F_exact that can be obtained automatically [2], and it has
a shorter critical path" — plus an error detector ``F_err``.

The classic automatic approximation for adders cuts the carry chain: the
carry into bit ``i`` is computed from only the previous ``window`` bits
(assuming no carry enters the window from below).  For uniformly random
operands long propagate runs are rare, so the approximation is almost
always exact, and its critical path grows with ``window`` instead of with
the full width.

The error detector is the standard conservative one: flag whenever any
``window`` consecutive propagate bits occur.  It never misses a real error
(if no such run exists, every carry is generated inside its window, so the
approximation is exact); it may rarely flag a case that happened to be
correct, which costs a needless — but harmless — replay cycle.

Both functional models work on whole words, with propagate ``p = a ^ b``
and generate ``g = a & b``.  The adder runs the carry recurrence
``carry = ((g | (p & carry)) << 1) & mask`` ``window`` times from
``carry = 0``: after ``k`` steps, bit ``i`` of ``carry`` is the carry into
bit ``i`` rippled from bit ``i - k`` with nothing entering there, which is
exactly the window cut.  The detector ANDs ``p`` with ``window - 1``
right-shifted copies of itself; a bit survives iff a run of ``window``
propagates starts there.

A window must be at least one bit.  With ``window = 0`` the adder drops
every carry, including ones no propagate run is involved in (``1 + 1``),
so the detector would miss real errors; every function here rejects it.
"""

from __future__ import annotations

from repro.tech.gates import GateNetlist


def _mask(width):
    return (1 << width) - 1


def check_window(window):
    """Raise ``ValueError`` unless ``window`` is at least one bit."""
    if window < 1:
        raise ValueError(f"carry window must be >= 1, got {window}")


def approx_add_functional(a, b, width, window):
    """Carry-window approximate sum (no carry-in): the carry recurrence,
    ``window`` steps (no more than ``width``, after which it is exact)."""
    check_window(window)
    mask = _mask(width)
    return window_sum(a & mask, b & mask, mask, min(window, width))


def window_sum(a, b, mask, steps):
    """:func:`approx_add_functional` of operands already masked to
    ``mask``, ``steps`` carry steps, the window not checked."""
    p = a ^ b
    g = a & b
    carry = 0
    for _ in range(steps):
        carry = ((g | (p & carry)) << 1) & mask
    return p ^ carry


def approx_error_functional(a, b, width, window):
    """Conservative error flag: any ``window`` consecutive propagates."""
    check_window(window)
    return window_run(a ^ b, _mask(width), window)


def window_run(p, mask, window):
    """:func:`approx_error_functional` of the propagates ``p``, the window
    not checked."""
    p &= mask
    run = p
    for shift in range(1, window):
        if not run:
            break
        run &= p >> shift
    return 1 if run else 0


def approx_exact_mismatch(a, b, width, window):
    """True when the approximation is actually wrong (for detector tests)."""
    exact = (a + b) & _mask(width)
    return approx_add_functional(a, b, width, window) != exact


def approx_adder_gates(width, window):
    """Gate-level carry-window adder: per-bit ripple restricted to the
    window, so the critical path is O(window)."""
    check_window(window)
    net = GateNetlist(f"approx{width}w{window}")
    a = net.add_inputs("a", width)
    b = net.add_inputs("b", width)
    p = [net.xor2(a[i], b[i]) for i in range(width)]
    g = [net.and2(a[i], b[i]) for i in range(width)]
    for i in range(width):
        lo = max(0, i - window)
        carry = net.const(False)
        for j in range(lo, i):
            t = net.and2(p[j], carry)
            carry = net.or2(g[j], t)
        net.add_gate("xor2", (p[i], carry), f"s{i}")
        net.mark_output(f"s{i}")
    return net


def approx_error_detector_gates(width, window):
    """Gate-level conservative detector: OR over all ``window``-long
    propagate runs (a handful of AND/OR trees, very short path)."""
    check_window(window)
    net = GateNetlist(f"err{width}w{window}")
    a = net.add_inputs("a", width)
    b = net.add_inputs("b", width)
    p = [net.xor2(a[i], b[i]) for i in range(width)]
    runs = []
    for start in range(0, width - window + 1):
        runs.append(net.and_tree(p[start:start + window]))
    net.or_tree(runs, out="err")
    net.mark_output("err")
    return net


def error_rate_estimate(width, window):
    """Analytic estimate of the detector firing rate for uniform operands.

    P(a propagate run of length >= window starting at a given bit) is
    2^-window; a union bound over the ~width start positions gives the
    small-probability estimate used to size the window in the benchmarks.
    """
    starts = max(0, width - window + 1)
    return min(1.0, starts * 2.0 ** (-window))
