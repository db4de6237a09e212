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

    def __init__(self, name, max_skips=1_000_000):
        super().__init__(name)
        self.add_out("o")
        self.max_skips = max_skips
        self.emitted = 0        # tokens that left (transferred or cancelled)
        self.killed = 0         # tokens destroyed by anti-tokens

    def _next_value(self):
        """Return the next value to offer, or ``None`` when exhausted."""
        raise NotImplementedError

    def _want_to_offer(self):
        """Randomized / nondet gate deciding whether to start an offer."""
        return True

    def reset(self):
        self.emitted = 0
        self.killed = 0
        self._offering = False
        self._value = None
        self._skip = 0           # future tokens already killed by anti-tokens

    def comb_tasks(self):
        # Drives purely from the offer registers frozen in pre_cycle.
        return [([], self.drives())]

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

    def reset(self):
        super().reset()
        self._idx = 0
        self._rng = random.Random(self.seed)
        self._pending_start = False

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

    def snapshot(self):
        return (self._offering, self._value, self._idx, self._skip, self.emitted, self.killed)

    def restore(self, state):
        self._offering, self._value, self._idx, self._skip, self.emitted, self.killed = state

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

    def reset(self):
        super().reset()
        self._idx = 0
        self._rng = random.Random(self.seed)
        self._pending_start = False

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

    def snapshot(self):
        return (self._offering, self._value, self._idx, self._skip, self.emitted, self.killed)

    def restore(self, state):
        self._offering, self._value, self._idx, self._skip, self.emitted, self.killed = state


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

    def __init__(self, name, rate=0.25, seed=0, budget=-1, nondet=False):
        super().__init__(name)
        self.add_out("o")
        self.rate = float(rate)
        self.seed = int(seed)
        self.budget = int(budget)
        self.nondet = bool(nondet)
        self.reset()

    def reset(self):
        self._offering = False
        self._budget = self.budget
        self._choice = 0
        self._rng = random.Random(self.seed * 1000003 + 1)

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

    def comb_tasks(self):
        return [([], self.drives())]

    def comb(self):
        self.drive("o", "vp", self._offering)
        if self._offering:
            self.drive("o", "data", True)
        self.drive("o", "sm", False)

    def tick(self):
        ost = self.st("o")
        if ost.vp and not ost.sp:
            self._offering = False

    def snapshot(self):
        return (self._offering, self._budget)

    def restore(self, state):
        self._offering, self._budget = state


class Sink(Node):
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

    def reset(self):
        self.received = []       # (cycle, value) transfer stream
        self._cycle = 0
        self._stall_now = False
        self._rng = random.Random(self.seed)

    def pre_cycle(self):
        self._stall_now = self.stall_rate > 0 and self._rng.random() < self.stall_rate

    def comb_tasks(self):
        return [([], self.drives())]

    def comb(self):
        self.drive("i", "sp", self._stall_now)
        self.drive("i", "vm", False)

    def tick(self):
        ist = self.st("i")
        if ist.vp and not ist.sp and not ist.vm:
            self.received.append((self._cycle, ist.data))
        self._cycle += 1

    @property
    def values(self):
        return [value for _cycle, value in self.received]

    def snapshot(self):
        return (self._cycle, len(self.received))

    def restore(self, state):
        self._cycle, n = state
        self.received = self.received[:n]


class KillerSink(Node):
    """Consumer that randomly injects anti-tokens (kills upstream tokens).

    Used to exercise the counterflow network.  A started kill persists until
    delivered (anti-token Retry).  When not killing it behaves as a plain
    sink with optional stalls.
    """

    kind = "killer_sink"

    def __init__(self, name, kill_rate=0.2, stall_rate=0.0, seed=0):
        super().__init__(name)
        self.add_in("i")
        self.kill_rate = kill_rate
        self.stall_rate = stall_rate
        self.seed = seed
        self.reset()

    def kill_ports(self):
        return ["i"]

    def reset(self):
        self.received = []
        self.kills_sent = 0
        self._cycle = 0
        self._killing = False
        self._stall_now = False
        self._rng = random.Random(self.seed)

    def pre_cycle(self):
        if not self._killing and self._rng.random() < self.kill_rate:
            self._killing = True
        self._stall_now = (
            not self._killing and self.stall_rate > 0 and self._rng.random() < self.stall_rate
        )

    def comb_tasks(self):
        return [([], self.drives())]

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

    @property
    def values(self):
        return [value for _cycle, value in self.received]

    def snapshot(self):
        return (self._killing, self._cycle, len(self.received), self.kills_sent)

    def restore(self, state):
        self._killing, self._cycle, n, self.kills_sent = state
        self.received = self.received[:n]


class NondetSource(Node):
    """Source with model-checker-enumerable behaviour: each cycle it may or
    may not offer the next token (persistence enforced).  Token values are a
    running counter so transfer streams stay comparable."""

    kind = "nondet_source"

    def __init__(self, name):
        super().__init__(name)
        self.add_out("o")
        self.reset()

    def reset(self):
        self._offering = False
        self._counter = 0
        self._choice = 0
        self.emitted = 0

    def choice_space(self):
        return 1 if self._offering else 2

    def set_choice(self, choice):
        self._choice = choice

    def pre_cycle(self):
        if not self._offering and self._choice == 1:
            self._offering = True

    def comb_tasks(self):
        return [([], self.drives())]

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

    def snapshot(self):
        return (self._offering, self._counter % 4)

    def restore(self, state):
        self._offering, self._counter = state


class NondetSink(Node):
    """Sink with model-checker-enumerable back-pressure (stall or accept)."""

    kind = "nondet_sink"

    def __init__(self, name, can_kill=False):
        super().__init__(name)
        self.add_in("i")
        self.can_kill = can_kill
        self.reset()

    def reset(self):
        self._choice = 0
        self._killing = False
        self.received = 0

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

    def comb_tasks(self):
        # Drives purely from the frozen choice / kill registers.
        return [([], self.drives())]

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

    def snapshot(self):
        return (self._killing,)

    def restore(self, state):
        (self._killing,) = state


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

    def __init__(self, name, n_values=2):
        if n_values < 1:
            raise ValueError(f"{name}: n_values must be >= 1, got {n_values}")
        self.n_values = n_values
        super().__init__(name)

    def reset(self):
        super().reset()
        self._value = 0

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

    def snapshot(self):
        return (self._offering, self._value)

    def restore(self, state):
        self._offering, self._value = state
