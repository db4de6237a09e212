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
    """Per-channel monitor automata for the SELF properties.

    The history between cycles is the Retry obligations a cycle leaves due
    at the next one, kept in the flat list :attr:`_prev`, three slots per
    channel in netlist channel order: the cycle at which a stalled token
    must still be offered (``-1`` when none is due), that token's data,
    and the cycle at which a stalled anti-token must still be offered.
    The compiled engine keeps the same slots in locals during a run and
    writes them back here, so both engines share one history.
    """

    def __init__(self, netlist):
        self.netlist = netlist
        self._prev = []
        self.violations = []
        self._layout()

    def _layout(self):
        # Section 4.2: "the output channels of the shared modules are not
        # required to be persistent" — the scheduler may legally change its
        # prediction after a retry cycle, and the withdrawal propagates
        # through downstream combinational nodes until the next EB.  That
        # exempts those channels from Retry+ only; a stalled anti-token
        # must persist everywhere (the explorer's rule, verif.properties).
        from repro.verif.properties import retry_exempt_channels

        exempt = retry_exempt_channels(self.netlist)
        self._channels = list(self.netlist.channels.values())
        self._retry_exempt = [ch.name in exempt for ch in self._channels]
        self._prev[:] = [-1, None, -1] * len(self._channels)

    def structure_changed(self):
        """Re-derive the channel layout and the Retry+ exemptions after a
        structural netlist edit, and forget every channel's history: a
        splice changes combinational cones arbitrarily far downstream, so
        any channel's one-cycle history may be stale (e.g. inserting a
        registered node legally withdraws a downstream offer for one
        cycle), and a freshly (re)connected channel starts history-free,
        exactly as under a rebuilt monitor."""
        self._layout()

    def reset(self):
        """Clear per-run history (Retry obligations, recorded violations);
        the property configuration is kept."""
        self._prev[:] = [-1, None, -1] * len(self._channels)
        self.violations.clear()

    def observe(self, cycle):
        """Check cycle ``cycle``'s settled signals on every channel, in
        channel order, raising the first violation; then record the Retry
        obligations it leaves due at ``cycle + 1``.  A violating cycle
        records nothing."""
        prev = self._prev
        for i, channel in enumerate(self._channels):
            st = channel.state
            name = channel.name
            # Kill and stop are mutually exclusive (consumer side).
            if st.vm and st.sp:
                self._fail("Invariant", name, cycle, "V- and S+ both asserted")
            # A cancelling producer must not stall the anti-token.
            if st.vp and st.vm and st.sm:
                self._fail("Invariant", name, cycle,
                           "cancellation with S- asserted")
            j = 3 * i
            if prev[j] == cycle:
                # A token was offered and stalled (and not killed): it
                # must persist, data included.
                if not st.vp:
                    self._fail("Retry+", name, cycle, "stalled token withdrawn")
                if st.data != prev[j + 1]:
                    self._fail(
                        "Retry+", name, cycle,
                        f"stalled token changed data {prev[j + 1]!r} -> "
                        f"{st.data!r}",
                    )
            if prev[j + 2] == cycle and not st.vm:
                # An anti-token was offered and stalled (and did not
                # cancel): it must persist.
                self._fail("Retry-", name, cycle, "stalled anti-token withdrawn")
        due = cycle + 1
        for i, channel in enumerate(self._channels):
            st = channel.state
            if st.vp:
                if st.sp and not st.vm and not self._retry_exempt[i]:
                    prev[3 * i] = due
                    prev[3 * i + 1] = st.data
            elif st.vm and st.sm:
                prev[3 * i + 2] = due

    def _fail(self, prop, channel, cycle, detail):
        err = ProtocolViolationError(prop, channel, cycle, detail)
        self.violations.append(err)
        raise err


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
