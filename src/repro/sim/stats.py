"""Per-channel statistics: transfers, cancellations, anti-token movements,
stall cycles — the raw material for throughput measurements."""

from __future__ import annotations


class ChannelStats:
    """Counts channel events over a simulation run."""

    def __init__(self, netlist):
        self.netlist = netlist
        self.cycles = 0
        self.transfers = {name: 0 for name in netlist.channels}
        self.cancels = {name: 0 for name in netlist.channels}
        self.backwards = {name: 0 for name in netlist.channels}
        self.stalls = {name: 0 for name in netlist.channels}
        self.idles = {name: 0 for name in netlist.channels}

    def _counters(self):
        return (self.transfers, self.cancels, self.backwards,
                self.stalls, self.idles)

    def add_channel(self, name):
        """Start counting a channel added to the netlist after construction
        (a followed structural edit); counts of a previously removed
        channel of the same name continue rather than restart."""
        for counter in self._counters():
            counter.setdefault(name, 0)

    def reset(self):
        """Zero every counter in place (held references stay live), keyed
        by the netlist's *current* channel set."""
        self.cycles = 0
        for counter in self._counters():
            counter.clear()
            for name in self.netlist.channels:
                counter[name] = 0

    def observe(self, cycle):
        """Count one cycle from the channels' settled control signals (the
        classification :meth:`~repro.elastic.channel.Channel.events`
        resolves, plus stalls: a token offered and stopped)."""
        transfers, cancels, backwards = (self.transfers, self.cancels,
                                         self.backwards)
        stalls, idles = self.stalls, self.idles
        for name, channel in self.netlist.channels.items():
            st = channel.state
            if st.vp:
                if st.vm:
                    cancels[name] += 1
                elif st.sp:
                    stalls[name] += 1
                else:
                    transfers[name] += 1
            elif st.vm and not st.sm:
                backwards[name] += 1
            else:
                idles[name] += 1
        self.cycles += 1

    def throughput(self, channel_name):
        """Forward transfers per cycle on the given channel."""
        if self.cycles == 0:
            return 0.0
        return self.transfers[channel_name] / self.cycles

    def utilization(self, channel_name):
        """Fraction of cycles the channel moved information: forward
        transfers, cancellations and backward (anti-token) movements.
        Stall cycles (valid but stopped) and idle cycles count as
        unutilized."""
        if self.cycles == 0:
            return 0.0
        busy = (
            self.transfers[channel_name]
            + self.cancels[channel_name]
            + self.backwards[channel_name]
        )
        return busy / self.cycles

    def summary(self):
        """One dict per channel — handy for tabular reports."""
        rows = []
        for name in self.netlist.channels:
            rows.append(
                {
                    "channel": name,
                    "transfers": self.transfers[name],
                    "cancels": self.cancels[name],
                    "backwards": self.backwards[name],
                    "stalls": self.stalls[name],
                    "idles": self.idles[name],
                    "throughput": self.throughput(name),
                    "utilization": self.utilization(name),
                }
            )
        return rows


class TransferLog:
    """Observer recording the transfer stream of selected channels.

    Transfer equivalence (Section 3.1) compares exactly these streams:
    "the output streams considering only transfer cycles".
    """

    def __init__(self, channels):
        self.channel_names = list(channels)
        self.streams = {name: [] for name in self.channel_names}

    def observe(self, cycle, netlist):
        for name in self.channel_names:
            events = netlist.channels[name].events()
            if events.forward:
                self.streams[name].append((cycle, events.data))

    def values(self, channel):
        return [value for _cycle, value in self.streams[channel]]

    def cycles(self, channel):
        return [cycle for cycle, _value in self.streams[channel]]
