"""Runtime SELF protocol monitors.

:class:`ProtocolMonitor` checks the Invariant, Retry+ and Retry- rules of
:mod:`repro.verif.properties` (the one statement of the Section 3.1
properties) on every channel and raises
:class:`~repro.errors.ProtocolViolationError` at the cycle where one
breaks, which turns every simulation into a protocol test; it checks
linear runs (``Simulator.step``/``run``), while model-checking steps jump
between branches and are checked by the explorer instead.
:class:`BoundedLivenessMonitor` checks Liveness in bounded form.
"""

from __future__ import annotations

from repro.errors import ProtocolViolationError


class ProtocolMonitor:
    """Per-channel monitor automata for the SELF properties.

    The history between cycles is the Retry obligations a cycle leaves due
    at the next one, kept in the flat list :attr:`_prev` in netlist channel
    order: per channel and Retry rule, the cycle at which the channel must
    still keep the rule's held signal (``-1`` when none is due), then the
    data a rule that holds data (Retry+) must keep.  The compiled engine
    keeps the same slots in locals during a run and writes them back here,
    so both engines share one history.
    """

    def __init__(self, netlist):
        self.netlist = netlist
        self._prev = []
        self.violations = []
        self.structure_changed()

    def structure_changed(self):
        """Derive the channel layout and the Retry+ exemptions (again,
        after a structural netlist edit), forgetting every channel's
        history: a splice changes combinational cones arbitrarily far
        downstream, so any channel's one-cycle history may be stale (e.g.
        inserting a registered node legally withdraws a downstream offer
        for one cycle), and a freshly (re)connected channel starts
        history-free, exactly as under a rebuilt monitor."""
        # Section 4.2: "the output channels of the shared modules are not
        # required to be persistent" — the scheduler may legally change its
        # prediction after a retry cycle, and the withdrawal propagates
        # through downstream combinational nodes until the next EB.  That
        # waives the exempt rule (Retry+) on those channels, nothing else.
        from repro.verif.properties import RETRY, retry_exempt_channels

        exempt = retry_exempt_channels(self.netlist)
        blank = [slot for rule in RETRY
                 for slot in ([-1, None] if rule.data else [-1])]
        self._blank = blank * len(self.netlist.channels)
        self._rows = [(channel.state, len(blank) * i, name, name in exempt)
                      for i, (name, channel)
                      in enumerate(self.netlist.channels.items())]
        self._prev[:] = self._blank

    def reset(self):
        """Clear per-run history (Retry obligations, recorded violations);
        the property configuration is kept."""
        self._prev[:] = self._blank
        self.violations.clear()

    def observe(self, cycle):
        """Check cycle ``cycle``'s settled signals on every channel,
        raising the first violation in channel order; then record the
        Retry obligations it leaves due at ``cycle + 1``.  A violating
        cycle records nothing.  The first call replaces this method by
        its rendering from the rule table (:func:`_render_observe`)."""
        ProtocolMonitor.observe = _render_observe()
        return self.observe(cycle)

    def _fail(self, prop, channel, cycle, detail):
        err = ProtocolViolationError(prop, channel, cycle, detail)
        self.violations.append(err)
        raise err


def _render_observe():
    """:meth:`ProtocolMonitor.observe`, rendered from the rule table: per
    channel one short-circuit screen — the compiled engine's tests: the
    Invariant, then each Retry obligation due and broken — and, when it
    fires, the rules one by one (Invariant patterns, then each due
    obligation's held signal and data) up to the first that fails; then
    per channel the obligations it leaves."""
    from repro.verif.properties import (
        INVARIANT, RETRY, conjunction, invariant_test, literals, retry_test,
        signal_of)

    signal = "st.{}".format
    screen, word, record, j = [invariant_test(signal)], [], [], 0
    for rule in INVARIANT:
        word += [f"if {conjunction(literals(rule.mask, rule.value), signal)}:",
                 f"    fail({rule.prop!r}, name, cycle, {rule.detail!r})"]
    for rule in RETRY:
        due, held = f"prev[j + {j}]", f"prev[j + {j + 1}]"
        screen.append(f"{due} == cycle and {retry_test(rule, signal, held)}")
        word += [f"if {due} == cycle and not {signal(signal_of(rule.held))}:",
                 f"    fail({rule.prop!r}, name, cycle, {rule.detail!r})"]
        if rule.data:
            word += [f"if {due} == cycle and st.data != {held}:",
                     f"    fail({rule.prop!r}, name, cycle, "
                     f"{rule.data!r}.format({held}, st.data))"]
        trigger = conjunction(literals(rule.mask, rule.value), signal)
        record += [f"if {trigger}{' and not exempt' * rule.exempt}:",
                   f"    {due} = due"] + [f"    {held} = st.data"] * bool(rule.data)
        j += 2 if rule.data else 1
    source = "\n    ".join([
        "def observe(self, cycle):",
        "prev, fail = self._prev, self._fail",
        "for st, j, name, exempt in self._rows:",
        "    if (" + "\n            or ".join(screen) + "):",
    ] + ["        " + line for line in word] + [
        "due = cycle + 1",
        "for st, j, name, exempt in self._rows:",
    ] + ["    " + line for line in record])
    namespace = {}
    exec(compile(source, "<ProtocolMonitor.observe>", "exec"), namespace)
    return namespace["observe"]


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

    def structure_changed(self):
        """React to a structural netlist edit: drop counters of channels
        that no longer exist and restart the surviving ones (a splice
        legally freezes downstream channels for a cycle or two — they
        should not inherit a nearly-expired window)."""
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
