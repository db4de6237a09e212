"""Runtime SELF protocol monitors.

The paper verifies four LTL properties on every channel (Section 3.1):

* ``Retry+``:  ``G((V+ & S+) -> X V+)`` — a stalled token stays offered
  (we additionally check the data is held, the usual strengthening);
* ``Retry-``:  ``G((V- & S-) -> X V-)`` — a stalled anti-token stays offered;
* ``Invariant``: a token cannot be killed and stopped at the same time
  (and symmetrically for anti-tokens) — we check the stronger structural
  form used throughout the library: ``V- -> !S+`` and ``(V+ & V-) -> !S-``;
* ``Liveness``: ``G F((V+ & !S+) | (V- & !S-))`` — checked in bounded form
  during simulation (no channel is event-free for more than a configurable
  window once it has seen at least one token), and exactly by the model
  checker in :mod:`repro.verif`.

Violations raise :class:`~repro.errors.ProtocolViolationError` at the cycle
where they occur, which turns every simulation into a protocol test.
"""

from __future__ import annotations

from repro.errors import ProtocolViolationError


class ProtocolMonitor:
    """Per-channel monitor automata for the SELF properties."""

    def __init__(self, netlist, strict_data_persistence=True):
        self.netlist = netlist
        self.strict_data_persistence = strict_data_persistence
        # channel name -> (vp, sp, vm, sm, data) of the previous cycle
        self._prev = {}
        self.violations = []
        # Section 4.2: "the output channels of the shared modules are not
        # required to be persistent" — the scheduler may legally change its
        # prediction after a retry cycle, and the withdrawal propagates
        # through downstream combinational nodes until the next EB.
        from repro.verif.properties import retry_exempt_channels

        self._retry_exempt = retry_exempt_channels(netlist)

    def structure_changed(self, channel_name=None):
        """Re-derive the retry-exemption set after a structural netlist
        edit, and forget previous-cycle signals: the edited channel's when
        one is named (a freshly (re)connected channel starts history-free,
        exactly as under a rebuilt monitor), or *every* channel's when
        called bare — a splice changes combinational cones arbitrarily far
        downstream, so any channel's one-cycle history may be stale (e.g.
        inserting a registered node legally withdraws a downstream offer
        for one cycle)."""
        from repro.verif.properties import retry_exempt_channels

        self._retry_exempt = retry_exempt_channels(self.netlist)
        if channel_name is not None:
            self._prev.pop(channel_name, None)
        else:
            self._prev.clear()

    def reset(self):
        """Clear per-run history (previous-cycle signals, recorded
        violations); the property configuration is kept."""
        self._prev.clear()
        self.violations.clear()

    def observe(self, cycle):
        for name, channel in self.netlist.channels.items():
            st = channel.state
            vp, sp, vm, sm = bool(st.vp), bool(st.sp), bool(st.vm), bool(st.sm)
            self._check_invariant(name, cycle, vp, sp, vm, sm)
            prev = self._prev.get(name)
            if prev is not None and name not in self._retry_exempt:
                self._check_retry(name, cycle, prev, vp, vm, st.data)
            self._prev[name] = (vp, sp, vm, sm, st.data)

    def _fail(self, prop, channel, cycle, detail):
        err = ProtocolViolationError(prop, channel, cycle, detail)
        self.violations.append(err)
        raise err

    def _check_invariant(self, name, cycle, vp, sp, vm, sm):
        # Kill and stop are mutually exclusive (consumer side).
        if vm and sp:
            self._fail("Invariant", name, cycle, "V- and S+ both asserted")
        # A cancelling producer must not stall the anti-token.
        if vp and vm and sm:
            self._fail("Invariant", name, cycle, "cancellation with S- asserted")

    def _check_retry(self, name, cycle, prev, vp, vm, data):
        pvp, psp, pvm, psm, pdata = prev
        if pvp and psp and not pvm:
            # Token was offered and stalled (and not killed): must persist.
            if not vp:
                self._fail("Retry+", name, cycle, "stalled token withdrawn")
            if self.strict_data_persistence and data != pdata:
                self._fail(
                    "Retry+", name, cycle,
                    f"stalled token changed data {pdata!r} -> {data!r}",
                )
        if pvm and psm and not pvp:
            # Anti-token was offered and stalled (and did not cancel): persist.
            if not vm:
                self._fail("Retry-", name, cycle, "stalled anti-token withdrawn")


class BoundedLivenessMonitor:
    """Flags channels that stay event-free for ``window`` cycles.

    This is the bounded-simulation version of the paper's ``G F`` liveness
    property; exact liveness is established by the model checker.  The
    monitor only arms once a channel has carried at least one token, so
    designs with cold channels do not false-positive.
    """

    def __init__(self, netlist, window=64):
        self.netlist = netlist
        self.window = window
        self._since_event = {}
        self.stuck = []

    def reset(self):
        """Clear per-run history (armed counters, recorded stalls) so a
        warm simulator reset or a new chaos-soak iteration can reuse the
        monitor; the window configuration is kept."""
        self._since_event.clear()
        self.stuck.clear()

    def structure_changed(self, channel_name=None):
        """React to a structural netlist edit: forget the edited channel's
        counter when one is named; called bare, drop counters of channels
        that no longer exist and restart the surviving ones (a splice
        legally freezes downstream channels for a cycle or two — they
        should not inherit a nearly-expired window)."""
        if channel_name is not None:
            self._since_event.pop(channel_name, None)
            return
        channels = self.netlist.channels
        stale = [name for name in self._since_event if name not in channels]
        for name in stale:
            del self._since_event[name]
        for name in self._since_event:
            self._since_event[name] = 0

    def observe(self, cycle, netlist=None):
        for name, channel in self.netlist.channels.items():
            events = channel.events()
            active = events.forward or events.cancel or events.backward
            if active:
                self._since_event[name] = 0
            elif name in self._since_event:
                self._since_event[name] += 1
                if self._since_event[name] == self.window:
                    self.stuck.append((name, cycle))
