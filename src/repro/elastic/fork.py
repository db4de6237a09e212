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

from repro.elastic.node import BWD, DATA, VALID, Node, adjusted
from repro.kleene import kand, kite, knot, kor


class EagerFork(Node):
    """Fork with eager per-branch completion and per-branch kill counters."""

    kind = "fork"
    arity_checks = (("n_outputs", "out_ports", 0),)
    #: per branch: served the current token, then pending kills
    state_slots = {"_served": lambda n: (False,) * n.n_outputs,
                   "_kills": lambda n: (0,) * n.n_outputs}

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

    # -- combinational -----------------------------------------------------------

    def comb(self):
        ist = self.st("i")
        kills = self._kills
        served = self._served
        all_ok = True
        for k in range(self.n_outputs):
            # A branch whose copy is already served -- or doomed by a pending
            # kill -- offers nothing; it completes this cycle when done,
            # doomed, or transferring its copy.
            done = served[k] or kills[k] > 0
            vp_k = kand(ist.vp, not done)
            self.drive(self.out_ports[k], "vp", vp_k)
            if ist.vp and ist.data is not None:
                self.drive(self.out_ports[k], "data", ist.data)
            # Accept anti-tokens: cancel with the offered copy when valid,
            # else absorb into the branch counter while there is room.
            self.drive(self.out_ports[k], "sm",
                       kite(vp_k, False, kills[k] >= self.max_kills))
            all_ok = kand(all_ok, kor(done, knot(self.st(self.out_ports[k]).sp)))
        # The token leaves once every branch completes.
        self.drive("i", "sp", knot(kand(ist.vp, all_ok)))
        self.drive("i", "vm", False)

    # -- sequential ----------------------------------------------------------------

    def tick(self):
        token_present = self.st("i").vp       # known at the clock edge
        served = self._served
        owed = 0            # branches still owed the current token's copy
        for k in range(self.n_outputs):
            ost = self.st(self.out_ports[k])
            if self._kills[k] or ost.vm:
                served = self._kill(k, served, token_present,
                                    ost.vm and not ost.sm and not ost.vp)
            if not (served[k] or ost.vp and not ost.sp):
                owed += 1
        if token_present and not owed:     # every copy left: next token
            served = (False,) * self.n_outputs
        else:                              # mark the branches served now
            for k in range(self.n_outputs):
                if self.st(self.out_ports[k]).vp and not self.st(self.out_ports[k]).sp:
                    served = served[:k] + (True,) + served[k + 1:]
        self._served = served

    def _kill(self, k, served, token_present, absorbed):
        """Branch ``k``'s kills at the clock edge: a pending kill consumes
        the current token's copy (returned marked in ``served``), and an
        absorbed anti-token targets a future copy."""
        consumed = token_present and self._kills[k] > 0 and not served[k]
        if absorbed - consumed:
            self._kills = adjusted(self._kills, k, absorbed - consumed,
                                   self.max_kills, f"EagerFork {self.name}")
        return served[:k] + (True,) + served[k + 1:] if consumed else served

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
