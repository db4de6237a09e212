"""The Figure 3 abstract elastic FIFO — the *specification* buffers refine.

An unbounded FIFO storing tokens (``wr > rd``) or anti-tokens
(``wr < rd``), with **nondeterministic** forward/backward latencies: the
model may delay offering a stored token (``V+out = *``) or a stored
anti-token (``V-in = *``), and may assert stop bits nondeterministically
subject to the protocol invariant.  The paper's refinement argument
(Section 4.2) shows a shared module composed with an EB refines this
specification; here the model serves two purposes:

* as a *nondeterministic node* for the explicit-state explorer, it checks
  that arbitrary buffer latencies keep the network protocol-safe;
* the deterministic :class:`~repro.elastic.buffers.ElasticBuffer` is tested
  against it: every behaviour of the implementation must be a behaviour of
  this model (trace containment on the transfer streams).

The retry registers ``R+``/``R-`` enforce persistence exactly as in the
paper's figure.
"""

from __future__ import annotations

from repro.elastic.node import Node


class AbstractElasticFifo(Node):
    """Nondeterministic-latency unbounded elastic FIFO (Figure 3).

    Choice encoding per cycle (2 bits): bit 0 — offer a stored token at
    the output this cycle; bit 1 — offer a stored anti-token at the input
    this cycle.  Retry states override the choices (persistence).
    """

    kind = "abstract_fifo"
    registers_tokens = True

    def __init__(self, name, init=(), max_occupancy=8):
        super().__init__(name)
        self.add_in("i")
        self.add_out("o")
        self.init_tokens = list(init)
        self.max_occupancy = max_occupancy
        self.reset()

    def reset(self):
        self._store = {}
        self._wr = 0
        self._rd = 0
        for idx, value in enumerate(self.init_tokens):
            self._store[idx] = value
            self._wr = idx + 1
        self._retry_plus = False    # R+: token offer must persist
        self._retry_minus = False   # R-: anti-token offer must persist
        self._choice = 0

    @property
    def count(self):
        return self._wr - self._rd

    def contents(self):
        return [self._store[i] for i in range(self._rd, self._wr)]

    def width_pairs(self):
        return [("i", "o")]

    def anti_token_paths(self):
        return [("i", "o")]

    # -- nondeterminism -----------------------------------------------------------

    def choice_space(self):
        return 4

    def set_choice(self, choice):
        self._choice = choice

    # -- combinational ---------------------------------------------------------------

    def comb_tasks(self):
        # Offers/stops are functions of the pointers, retry registers and
        # the frozen nondeterministic choice only.
        return [([], self.drives())]

    def comb(self):
        offer_token = self._retry_plus or (
            self.count >= 1 and bool(self._choice & 1)
        )
        offer_token = offer_token and self.count >= 1
        offer_anti = self._retry_minus or (
            self.count <= -1 and bool(self._choice & 2)
        )
        offer_anti = offer_anti and self.count <= -1
        self.drive("o", "vp", offer_token)
        if offer_token:
            self.drive("o", "data", self._store[self._rd])
        self.drive("i", "vm", offer_anti)
        # Stops: never stall what would cancel; bound occupancy so the
        # explorer's state space stays finite.
        self.drive("i", "sp", self.count >= self.max_occupancy)
        self.drive("o", "sm", self.count <= -self.max_occupancy)

    # -- sequential -------------------------------------------------------------------

    def tick(self):
        ist = self.st("i")
        ost = self.st("o")
        wr_inc = (ist.vp and not ist.sp) or (ist.vm and not ist.sm)
        rd_inc = (ost.vp and not ost.sp) or (ost.vm and not ost.sm)
        if ist.vp and not ist.sp:
            self._store[self._wr] = ist.data
        if wr_inc:
            self._wr += 1
        if rd_inc:
            self._store.pop(self._rd, None)
            self._rd += 1
        # Retry registers (Figure 3): R+ <- V+out & S+out, R- <- V-in & S-in
        self._retry_plus = bool(ost.vp and ost.sp)
        self._retry_minus = bool(ist.vm and ist.sm)

    def snapshot(self):
        return (self.count, tuple(self.contents()),
                self._retry_plus, self._retry_minus)

    def restore(self, state):
        count, values, self._retry_plus, self._retry_minus = state
        self._wr = max(count, 0)
        self._rd = max(-count, 0)
        self._store = dict(enumerate(values))
