"""Per-channel statistics: transfers, cancellations, anti-token movements,
stall cycles — the raw material for throughput measurements."""

from __future__ import annotations

from collections.abc import Mapping


class _Counts(Mapping):
    """One outcome's counts, a live read-only mapping channel name ->
    int over :attr:`ChannelStats.counts`."""

    __slots__ = ("_stats", "_field")

    def __init__(self, stats, field):
        self._stats = stats
        self._field = field

    def __getitem__(self, name):
        stats = self._stats
        return stats.counts[_WIDTH * stats._slot[name] + self._field]

    def __iter__(self):
        return iter(self._stats.names)

    def __len__(self):
        return len(self._stats.names)

    def __repr__(self):
        return repr(dict(self))


#: counts per channel in :attr:`ChannelStats.counts`: transfers, cancels,
#: stalls, backwards, idles.
_WIDTH = 5


class ChannelStats:
    """Counts channel events over a simulation run.

    The counts live in one flat list, :attr:`counts`: five ints per
    channel (transfers, cancels, stalls, backwards, idles), channels in
    the order of :attr:`names`.  ``transfers``, ``cancels``,
    ``backwards``, ``stalls`` and ``idles`` are live read-only mappings
    over it, keyed by channel name.  A compiled run loads the counts of
    its channels into locals and stores them back once (see
    :meth:`layout`).
    """

    def __init__(self, netlist):
        self.netlist = netlist
        self.cycles = 0
        self.names = []
        self.counts = []
        self._slot = {}
        for name in netlist.channels:
            self.add_channel(name)
        self.transfers = _Counts(self, 0)
        self.cancels = _Counts(self, 1)
        self.stalls = _Counts(self, 2)
        self.backwards = _Counts(self, 3)
        self.idles = _Counts(self, 4)

    def add_channel(self, name):
        """Start counting a channel added to the netlist after construction
        (a followed structural edit); counts of a previously removed
        channel of the same name continue rather than restart."""
        if name not in self._slot:
            self._slot[name] = len(self.names)
            self.names.append(name)
            self.counts += [0] * _WIDTH

    def layout(self, names):
        """Reorder the channels so that ``names`` come first, in that
        order, keeping every count (a name not counted yet starts at
        zero); the counts of ``names`` are then
        ``counts[:5 * len(names)]``."""
        for name in names:
            self.add_channel(name)
        slot, first = self._slot, set(names)
        order = list(names) + [name for name in self.names
                               if name not in first]
        self.counts[:] = [count for name in order
                          for count in self.counts[_WIDTH * slot[name]:
                                                   _WIDTH * slot[name] + _WIDTH]]
        self.names[:] = order
        self._slot = {name: i for i, name in enumerate(order)}

    def reset(self):
        """Zero every count in place (held references stay live), keyed
        by the netlist's *current* channel set."""
        self.cycles = 0
        self.names[:] = list(self.netlist.channels)
        self._slot = {name: i for i, name in enumerate(self.names)}
        self.counts[:] = [0] * (_WIDTH * len(self.names))

    def observe(self, cycle):
        """Count one cycle from the channels' settled control signals (the
        classification :meth:`~repro.elastic.channel.Channel.events`
        resolves, plus stalls: a token offered and stopped)."""
        counts, slot = self.counts, self._slot
        for name, channel in self.netlist.channels.items():
            st = channel.state
            i = _WIDTH * slot[name]
            if st.vp:
                if st.vm:
                    counts[i + 1] += 1          # cancel
                elif st.sp:
                    counts[i + 2] += 1          # stall
                else:
                    counts[i] += 1              # transfer
            elif st.vm and not st.sm:
                counts[i + 3] += 1              # backward
            else:
                counts[i + 4] += 1              # idle
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
