"""The Figure 3 abstract elastic FIFO — the *specification* buffers refine.

An unbounded FIFO storing tokens (a positive occupancy ``wr - rd``) or
anti-tokens (a negative one), with **nondeterministic** forward/backward
latencies: the model may delay offering a stored token (``V+out = *``) or
a stored anti-token (``V-in = *``), and may assert stop bits
nondeterministically subject to the protocol invariant.  The paper's refinement argument
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

from repro.elastic.buffers import _TokenStore


class AbstractElasticFifo(_TokenStore):
    """Nondeterministic-latency unbounded elastic FIFO (Figure 3).

    Choice encoding per cycle (2 bits): bit 0 — offer a stored token at
    the output this cycle; bit 1 — offer a stored anti-token at the input
    this cycle.  Retry states override the choices (persistence).
    """

    kind = "abstract_fifo"
    #: the store, then the retry registers R+ / R- (offers that must persist)
    state_slots = {**_TokenStore.state_slots,
                   "_retry_plus": False, "_retry_minus": False}
    reset_slots = {"_choice": 0}

    def __init__(self, name, init=(), max_occupancy=8):
        super().__init__(name)
        self.add_in("i")
        self.add_out("o")
        self.init_tokens = list(init)
        self.max_occupancy = max_occupancy
        self.reset()

    # -- nondeterminism -----------------------------------------------------------

    def choice_space(self):
        return 4

    def set_choice(self, choice):
        self._choice = choice

    # -- combinational ---------------------------------------------------------------

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
            self.drive("o", "data", self._tokens[0])
        self.drive("i", "vm", offer_anti)
        # Stops: never stall what would cancel; bound occupancy so the
        # explorer's state space stays finite.
        self.drive("i", "sp", self.count >= self.max_occupancy)
        self.drive("o", "sm", self.count <= -self.max_occupancy)

    # -- sequential -------------------------------------------------------------------

    def tick(self):
        super().tick()
        # Retry registers (Figure 3): R+ <- V+out & S+out, R- <- V-in & S-in
        ist = self.st("i")
        ost = self.st("o")
        self._retry_plus = bool(ost.vp and ost.sp)
        self._retry_minus = bool(ist.vm and ist.sm)
