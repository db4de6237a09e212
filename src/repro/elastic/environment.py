"""Environments: token sources, sinks and anti-token injectors.

Deterministic and randomized variants drive simulation; the ``Nondet*``
variants expose a *choice space* so the explicit-state model checker of
:mod:`repro.verif` can enumerate every environment behaviour, exactly like
the nondeterministic environments the paper uses in its NuSMV runs.
:class:`PermissionSource`, the stall primitive :mod:`repro.chaos` splices
beside a join, is seeded or nondeterministic on request.

All sources honour the Retry (persistence) property: once a token is
offered it stays offered, with the same data, until it transfers or is
cancelled by an anti-token.  All kill-injecting nodes honour the symmetric
anti-token persistence.
"""

from __future__ import annotations

import random

from repro.elastic.node import Node


class _SourceBase(Node):
    """Common producer-side machinery (persistence + anti-token absorption)."""

    kind = "source"
    #: the offer register, the stream position, future tokens already
    #: killed by anti-tokens, and the tokens that left (transferred or
    #: cancelled) and were destroyed by anti-tokens
    state_slots = {"_offering": False, "_value": None, "_idx": 0, "_skip": 0,
                   "emitted": 0, "killed": 0}
    reset_slots = {"_pending_start": False,
                   "_rng": lambda n: random.Random(n.seed)}

    def __init__(self, name, max_skips=1_000_000):
        super().__init__(name)
        self.add_out("o")
        self.max_skips = max_skips

    def _next_value(self):
        """Return the next value to offer, or ``None`` when exhausted."""
        raise NotImplementedError

    def _want_to_offer(self):
        """Randomized / nondet gate deciding whether to start an offer."""
        return True

    def comb(self):
        if not self._offering and self._pending_start:
            value = self._next_value()
            if value is not None:
                self._offering = True
                self._value = value
            self._pending_start = False
        self.drive("o", "vp", self._offering)
        if self._offering:
            self.drive("o", "data", self._value)
        self.drive("o", "sm", False)   # always absorb anti-tokens

    def pre_cycle(self):
        """Called once per cycle before the fix-point (stabilizes choices)."""
        self._pending_start = (not self._offering) and self._want_to_offer()

    def tick(self):
        ost = self.st("o")
        if ost.vp and not ost.sp:
            # Forward transfer or cancellation: the token is gone either way.
            self.emitted += 1
            if ost.vm:
                self.killed += 1
            self._offering = False
            self._value = None
        elif ost.vm and not ost.sm and not ost.vp:
            # Anti-token absorbed while idle: skip a future token.
            self._skip += 1
            if self._skip > self.max_skips:
                raise AssertionError(f"source {self.name}: unbounded anti-token debt")
        # Apply skips to values that would be offered next.
        while self._skip > 0:
            value = self._next_value()
            if value is None:
                break
            self._skip -= 1
            self.killed += 1
            self.emitted += 1


class ListSource(_SourceBase):
    """Offers the given values in order, then goes idle forever.

    ``rate`` < 1.0 inserts random idle gaps (seeded, reproducible).
    """

    def __init__(self, name, values, rate=1.0, seed=0):
        super().__init__(name)
        self.values = list(values)
        self.rate = rate
        self.seed = seed
        self.reset()

    def _next_value(self):
        if self._idx >= len(self.values):
            return None
        value = self.values[self._idx]
        self._idx += 1
        return value

    def _want_to_offer(self):
        if self._idx >= len(self.values):
            return False
        return self.rate >= 1.0 or self._rng.random() < self.rate

    @property
    def exhausted(self):
        return self._idx >= len(self.values) and not self._offering


class FunctionSource(_SourceBase):
    """Offers ``fn(0), fn(1), ...`` — an infinite (or ``limit``-bounded) stream."""

    def __init__(self, name, fn, rate=1.0, seed=0, limit=None):
        super().__init__(name)
        self.fn = fn
        self.rate = rate
        self.seed = seed
        self.limit = limit
        self.reset()

    def _next_value(self):
        if self.limit is not None and self._idx >= self.limit:
            return None
        value = self.fn(self._idx)
        self._idx += 1
        return value

    def _want_to_offer(self):
        if self.limit is not None and self._idx >= self.limit:
            return False
        return self.rate >= 1.0 or self._rng.random() < self.rate


class PermissionSource(Node):
    """An endless stream of ``True`` permission tokens, withheld on chosen
    cycles: joined with a channel, each withheld cycle is a stall.

    While idle it decides each cycle whether to offer: with probability
    ``rate`` (seeded) it withholds instead, or, with ``nondet=True``, the
    model checker chooses (a choice space of 2).  Withholding spends one
    unit of ``budget`` (``-1`` = unbounded); at 0 it always offers.  An
    offer persists until it transfers or is killed (Retry+), and
    anti-tokens are always absorbed: a permission carries no data, so
    killing one changes nothing downstream.
    """

    kind = "permission_source"
    state_slots = {"_offering": False, "_budget": lambda n: n.budget}
    reset_slots = {"_choice": 0,
                   "_rng": lambda n: random.Random(n.seed * 1000003 + 1)}

    def __init__(self, name, rate=0.25, seed=0, budget=-1, nondet=False):
        super().__init__(name)
        self.add_out("o")
        self.rate = float(rate)
        self.seed = int(seed)
        self.budget = int(budget)
        self.nondet = bool(nondet)
        self.reset()

    def choice_space(self):
        if self.nondet and not self._offering and self._budget != 0:
            return 2
        return 1

    def set_choice(self, choice):
        self._choice = choice

    def _withhold(self):
        if self._budget == 0:
            return False
        if self.nondet:
            return self._choice == 1
        return self.rate > 0 and self._rng.random() < self.rate

    def pre_cycle(self):
        if self._offering:
            return
        if self._withhold():
            if self._budget > 0:
                self._budget -= 1
        else:
            self._offering = True

    def comb(self):
        self.drive("o", "vp", self._offering)
        if self._offering:
            self.drive("o", "data", True)
        self.drive("o", "sm", False)

    def tick(self):
        ost = self.st("o")
        if ost.vp and not ost.sp:
            self._offering = False


class _RecordingSink(Node):
    """Common consumer machinery: the ``(cycle, value)`` transfer stream
    :attr:`received`, whose canonical state is its length (a restore
    truncates it), and the cycle counter stamping it."""

    state_slots = {"_cycle": 0, "_n_received": 0}
    reset_slots = {"received": lambda n: [], "_stall_now": False,
                   "_rng": lambda n: random.Random(n.seed)}

    @property
    def _n_received(self):
        return len(self.received)

    @_n_received.setter
    def _n_received(self, n):
        self.received = self.received[:n]

    @property
    def values(self):
        return [value for _cycle, value in self.received]


class Sink(_RecordingSink):
    """Token consumer recording the transfer stream.

    ``stall_rate`` > 0 asserts back-pressure randomly (seeded).
    """

    kind = "sink"

    def __init__(self, name, stall_rate=0.0, seed=0):
        super().__init__(name)
        self.add_in("i")
        self.stall_rate = stall_rate
        self.seed = seed
        self.reset()

    def pre_cycle(self):
        self._stall_now = self.stall_rate > 0 and self._rng.random() < self.stall_rate

    def comb(self):
        self.drive("i", "sp", self._stall_now)
        self.drive("i", "vm", False)

    def tick(self):
        ist = self.st("i")
        if ist.vp and not ist.sp and not ist.vm:
            self.received.append((self._cycle, ist.data))
        self._cycle += 1


class KillerSink(_RecordingSink):
    """Consumer that randomly injects anti-tokens (kills upstream tokens).

    Used to exercise the counterflow network.  A started kill persists until
    delivered (anti-token Retry).  When not killing it behaves as a plain
    sink with optional stalls.
    """

    kind = "killer_sink"
    state_slots = {"_killing": False, **_RecordingSink.state_slots,
                   "kills_sent": 0}

    def __init__(self, name, kill_rate=0.2, stall_rate=0.0, seed=0):
        super().__init__(name)
        self.add_in("i")
        self.kill_rate = kill_rate
        self.stall_rate = stall_rate
        self.seed = seed
        self.reset()

    def kill_ports(self):
        return ["i"]

    def pre_cycle(self):
        if not self._killing and self._rng.random() < self.kill_rate:
            self._killing = True
        self._stall_now = (
            not self._killing and self.stall_rate > 0 and self._rng.random() < self.stall_rate
        )

    def comb(self):
        self.drive("i", "vm", self._killing)
        # Kill and stop are mutually exclusive.
        self.drive("i", "sp", False if self._killing else self._stall_now)

    def tick(self):
        ist = self.st("i")
        if self._killing and (ist.vp or not ist.sm):
            self._killing = False
            self.kills_sent += 1
        elif ist.vp and not ist.sp and not ist.vm:
            self.received.append((self._cycle, ist.data))
        self._cycle += 1


class NondetSource(Node):
    """Source with model-checker-enumerable behaviour: each cycle it may or
    may not offer the next token (persistence enforced).  Token values are a
    running counter so transfer streams stay comparable."""

    kind = "nondet_source"
    state_slots = {"_offering": False, "_token_phase": 0}
    reset_slots = {"_choice": 0, "emitted": 0}

    def __init__(self, name):
        super().__init__(name)
        self.add_out("o")
        self.reset()

    @property
    def _token_phase(self):
        """The running token counter modulo 4: the canonical form, so the
        explored state space stays finite."""
        return self._counter % 4

    @_token_phase.setter
    def _token_phase(self, phase):
        self._counter = phase

    def choice_space(self):
        return 1 if self._offering else 2

    def set_choice(self, choice):
        self._choice = choice

    def pre_cycle(self):
        if not self._offering and self._choice == 1:
            self._offering = True

    def comb(self):
        self.drive("o", "vp", self._offering)
        if self._offering:
            self.drive("o", "data", self._counter)
        self.drive("o", "sm", False)

    def tick(self):
        ost = self.st("o")
        if ost.vp and not ost.sp:
            self._offering = False
            self._counter += 1
            self.emitted += 1
        elif ost.vm and not ost.sm and not ost.vp:
            self._counter += 1     # future token killed while idle


class NondetSink(Node):
    """Sink with model-checker-enumerable back-pressure (stall or accept)."""

    kind = "nondet_sink"
    state_slots = {"_killing": False}
    reset_slots = {"_choice": 0, "received": 0}

    def __init__(self, name, can_kill=False):
        super().__init__(name)
        self.add_in("i")
        self.can_kill = can_kill
        self.reset()

    def kill_ports(self):
        return ["i"] if self.can_kill else []

    def choice_space(self):
        if self._killing:
            return 1              # anti-token persistence
        return 3 if self.can_kill else 2

    def set_choice(self, choice):
        self._choice = choice

    def pre_cycle(self):
        if not self._killing and self.can_kill and self._choice == 2:
            self._killing = True

    def comb(self):
        if self._killing:
            self.drive("i", "vm", True)
            self.drive("i", "sp", False)
        else:
            self.drive("i", "vm", False)
            self.drive("i", "sp", self._choice == 1)

    def tick(self):
        ist = self.st("i")
        if self._killing:
            if ist.vp or not ist.sm:
                self._killing = False
        elif ist.vp and not ist.sp and not ist.vm:
            self.received += 1


class NondetChoiceSource(NondetSource):
    """Nondeterministic source emitting *select* tokens ``0..n_values-1``.

    Each cycle while idle the model checker chooses to stay idle (choice
    0) or start offering value ``choice - 1``; once offering, persistence
    pins the choice space to 1 until the token leaves.  This is the
    nondeterministic select-generator of the paper's Section 4.2
    composition (steering the early-evaluation mux behind a shared
    module), shared by the verification tests, the CLI ``verify`` command
    and the exploration benchmarks.
    """

    kind = "nondet_choice_source"
    state_slots = {"_offering": False, "_value": 0}

    def __init__(self, name, n_values=2):
        if n_values < 1:
            raise ValueError(f"{name}: n_values must be >= 1, got {n_values}")
        self.n_values = n_values
        super().__init__(name)

    def choice_space(self):
        return 1 if self._offering else 1 + self.n_values

    def pre_cycle(self):
        if not self._offering and self._choice:
            self._offering = True
            self._value = self._choice - 1

    def comb(self):
        self.drive("o", "vp", self._offering)
        if self._offering:
            self.drive("o", "data", self._value)
        self.drive("o", "sm", False)

    def tick(self):
        ost = self.st("o")
        if ost.vp and not ost.sp:
            # Forward transfer or cancellation: the select token is gone.
            self._offering = False
            self.emitted += 1
