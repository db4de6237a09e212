"""The shared elastic module (Figure 4).

``k`` logical channels share one physical function unit.  A scheduler
predicts, each cycle, which channel owns the unit; the controller:

* forwards the predicted channel's token through the unit
  (``out_g.V+ = in_g.V+`` when ``g`` is predicted);
* stalls every other channel (unless its token is being killed — kill and
  stop are mutually exclusive);
* passes anti-tokens arriving on an output channel *combinationally* back
  to the corresponding input channel, so a correct-prediction anti-token
  can "rush" backward and free the stalled token in the same cycle
  (Section 4.1 / 4.3).

The datapath cost is one ``k``-way multiplexor in front of the unit plus
the (registered) scheduling decision — the paper's "delay overhead added to
the datapath is one multiplexor plus the delay in the scheduling decision".
"""

from __future__ import annotations

from repro.core.scheduler import Scheduler, SchedulerFeedback
from repro.elastic.node import BWD, DATA, VALID, Node
from repro.kleene import kand, kite


class SharedModule(Node):
    """A function unit shared by ``n_channels`` elastic channels.

    Ports: ``i0..i{k-1}`` (inputs), ``o0..o{k-1}`` (outputs).  The unit
    computes ``fn`` combinationally on the granted channel.

    Parameters
    ----------
    fn:
        Single-argument function applied to the granted token's value.
    scheduler:
        A :class:`~repro.core.scheduler.Scheduler` with matching
        ``n_channels``.
    delay / area_cost:
        Datapath delay and area of the function unit itself (the controller
        and channel-mux overheads are added by the performance models).
    """

    kind = "shared"
    arity_checks = (("n_channels", "in_ports", 0), ("n_channels", "out_ports", 0))

    def __init__(self, name, fn, scheduler, n_channels=2, delay=1.0, area_cost=1.0):
        super().__init__(name)
        if not isinstance(scheduler, Scheduler):
            raise TypeError(f"SharedModule {name}: scheduler must be a Scheduler")
        if scheduler.n_channels != n_channels:
            raise ValueError(
                f"SharedModule {name}: scheduler is for {scheduler.n_channels} "
                f"channels, module has {n_channels}"
            )
        self.fn = fn
        self.scheduler = scheduler
        self.n_channels = n_channels
        self.delay = delay
        self.area_cost = area_cost
        for i in range(n_channels):
            self.add_in(f"i{i}")
        for i in range(n_channels):
            self.add_out(f"o{i}")
        self.reset()

    def reset(self):
        self.scheduler.reset()
        self.grants = 0
        self.mispredicts = 0

    def snapshot(self):
        return self.scheduler.snapshot()

    def restore(self, state):
        self.scheduler.restore(state)

    def choice_space(self):
        return self.scheduler.choice_space()

    def set_choice(self, choice):
        self.scheduler.set_choice(choice)

    # -- combinational -------------------------------------------------------------

    def comb_tasks(self):
        # Per channel pair, four independent wires (so no channel's backward
        # path is tied to another's forward path): the input token
        # (valid/data/anti-stop) and the output-side back-pressure and
        # kill, which rush backward combinationally (Section 4.1 / 4.3).
        tasks = []
        for j in range(self.n_channels):
            ip, op = f"i{j}", f"o{j}"
            tasks += [
                ([(ip, "vp"), (ip, "data")], [(op, "vp"), (op, "data")]),
                ([(op, "vm")], [(ip, "vm")]),
                ([(ip, "vp"), (ip, "sm")], [(op, "sm")]),
                ([(op, "vm"), (op, "sp")], [(ip, "sp")]),
            ]
        return tasks

    def comb(self):
        g = self.scheduler.prediction()
        for j in range(self.n_channels):
            ip, op = f"i{j}", f"o{j}"
            ist, ost = self.st(ip), self.st(op)
            predicted = j == g
            # Forward: only the predicted channel's token goes through.
            vp_j = kand(predicted, ist.vp)
            self.drive(op, "vp", vp_j)
            # fn runs once per cycle — a re-evaluation after o.data is
            # known could only re-drive the same value.
            if vp_j is True and ist.data is not None and ost.data is None:
                self.drive(op, "data", self.fn(ist.data))
            # Kill pass-through: anti-tokens rush backward combinationally.
            self.drive(ip, "vm", ost.vm)
            # Anti-token delivered when it cancels with a waiting input token
            # or when the input's producer absorbs it.
            self.drive(op, "sm", kite(ist.vp, False, ist.sm))
            # Stop: killed tokens are never stopped; the predicted channel
            # follows downstream back-pressure; others stall.
            if predicted:
                sp_j = kite(ost.vm, False, ost.sp)
            else:
                sp_j = kite(ost.vm, False, True)
            self.drive(ip, "sp", sp_j)

    # -- sequential ------------------------------------------------------------------

    def tick(self):
        g = self.scheduler.prediction()
        granted = None
        killed = []
        valid = []
        channels = self._channels
        in_ports = self.in_ports     # ["i0", ...] / ["o0", ...] by
        out_ports = self.out_ports   # construction — no f-strings here,
        for j in range(self.n_channels):     # tick is a model-checking hot path
            ost = channels[out_ports[j]].state
            ist = channels[in_ports[j]].state
            if ost.vp and not ost.sp and not ost.vm:
                granted = j
            if ost.vm and (ost.vp or not ost.sm):
                killed.append(j)
            if ist.vp:
                valid.append(j)
        og = channels[out_ports[g]].state
        stalled = bool(og.vp and og.sp and not og.vm)
        if granted is not None:
            self.grants += 1
        if stalled:
            self.mispredicts += 1
        self.scheduler.observe(
            SchedulerFeedback(
                predicted=g,
                granted=granted,
                killed=tuple(killed),
                stalled=stalled,
                valid_inputs=tuple(valid),
            )
        )

    # -- performance ---------------------------------------------------------------------

    def area(self, tech):
        width = self.channel("o0").width if "o0" in self._channels else 8
        return (
            self.area_cost
            + tech.mux_area(width, self.n_channels)
            + tech.shared_ctrl_area(self.n_channels)
        )

    def timing_arcs(self, tech):
        arcs = []
        for j in range(self.n_channels):
            # Channel mux + function unit on the datapath.
            arcs.append((f"i{j}", DATA, f"o{j}", DATA,
                         self.delay + tech.mux_delay(self.n_channels)))
            arcs.append((f"i{j}", VALID, f"o{j}", VALID, tech.shared_ctrl_delay))
            # Kill/stop pass-through on the control.
            arcs.append((f"o{j}", BWD, f"i{j}", BWD, tech.shared_ctrl_delay))
        return arcs

    def anti_token_paths(self):
        # a kill on o<j> cancels the speculative token of channel j only
        return [(port, "o" + port[1:]) for port in self.in_ports]
