"""Eager fork.

A fork copies each input token to every output branch.  The *eager* variant
lets fast branches take their copy immediately and remembers which branches
are already served (``done`` bits); the input token is consumed once every
branch is done.

Anti-token handling is per-branch: an anti-token arriving on branch ``k``
kills that branch's copy of the current token (if still pending) or the
branch's copy of a *future* token (pending-kill counter).  Anti-tokens are
absorbed here — they do not propagate past the fork, which keeps the
counterflow network small while preserving transfer equivalence.
"""

from __future__ import annotations

from repro.elastic.node import BWD, DATA, VALID, Node
from repro.kleene import kand, kite, knot, kor


class EagerFork(Node):
    """Fork with eager per-branch completion and per-branch kill counters."""

    kind = "fork"
    arity_checks = (("n_outputs", "out_ports", 0),)

    def __init__(self, name, n_outputs=2, max_kills=4):
        super().__init__(name)
        if n_outputs < 1:
            raise ValueError(f"Fork {name}: needs at least one output")
        self.n_outputs = n_outputs
        self.max_kills = max_kills
        self.add_in("i")
        for k in range(n_outputs):
            self.add_out(f"o{k}")
        self.reset()

    def reset(self):
        self._done = [False] * self.n_outputs
        self._pk = [0] * self.n_outputs

    def snapshot(self):
        return (tuple(self._done), tuple(self._pk))

    def restore(self, state):
        done, pk = state
        self._done = list(done)
        self._pk = list(pk)

    # -- combinational -----------------------------------------------------------

    def comb_tasks(self):
        # Reads across ports: the input token (valid + data) feeds every
        # branch, and every branch's downstream stop feeds the shared
        # completion logic behind i.sp.
        outs = [f"o{k}" for k in range(self.n_outputs)]
        return [
            ([("i", "vp"), ("i", "data")],
             [(port, sig) for port in outs for sig in ("vp", "data", "sm")]),
            ([("i", "vp")] + [(port, "sp") for port in outs], [("i", "sp")]),
            ([], [("i", "vm")]),
        ]

    def comb(self):
        ist = self.st("i")
        branch_ok = []
        for k in range(self.n_outputs):
            port = f"o{k}"
            ost = self.st(port)
            # A branch whose copy is already served -- or doomed by a pending
            # kill -- offers nothing.
            eff_done = self._done[k] or self._pk[k] > 0
            vp_k = kand(ist.vp, not eff_done)
            self.drive(port, "vp", vp_k)
            if ist.vp is True and ist.data is not None:
                self.drive(port, "data", ist.data)
            # Accept anti-tokens: cancel with the offered copy when valid,
            # else absorb into the branch counter while there is room.
            self.drive(port, "sm", kite(vp_k, False, self._pk[k] >= self.max_kills))
            # Branch complete this cycle: already done, doomed, or transferring.
            branch_ok.append(kor(eff_done, kand(vp_k, knot(ost.sp))))
        all_ok = kand(*branch_ok)
        self.drive("i", "sp", knot(kand(ist.vp, all_ok)))
        self.drive("i", "vm", False)

    # -- sequential ----------------------------------------------------------------

    def tick(self):
        ist = self.st("i")
        token_present = bool(ist.vp)
        newly_done = [False] * self.n_outputs
        for k in range(self.n_outputs):
            port = f"o{k}"
            ost = self.st(port)
            # Pending kill consumes this token's copy on branch k.
            if token_present and self._pk[k] > 0 and not self._done[k]:
                self._done[k] = True
                self._pk[k] -= 1
            if ost.vp and not ost.sp:
                newly_done[k] = True
            # Absorb a fresh anti-token targeting a future copy.
            if ost.vm and not ost.sm and not ost.vp:
                self._pk[k] += 1
        for k in range(self.n_outputs):
            self._done[k] = self._done[k] or newly_done[k]
        if token_present and all(self._done):
            self._done = [False] * self.n_outputs

    # -- performance ------------------------------------------------------------------

    def area(self, tech):
        return tech.fork_ctrl_area(self.n_outputs)

    def timing_arcs(self, tech):
        arcs = []
        for k in range(self.n_outputs):
            arcs.append(("i", DATA, f"o{k}", DATA, 0.0))
            arcs.append(("i", VALID, f"o{k}", VALID, 0.0))
            arcs.append((f"o{k}", BWD, "i", BWD, tech.fork_ctrl_delay))
        return arcs

    def width_pairs(self):
        return [("i", port) for port in self.out_ports]
