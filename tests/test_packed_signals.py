"""Oracles for the explorer's packed-signal path.

A model-checking step returns its settled control signals packed one byte
per channel and builds no event objects; the explorer stores transitions
without events and reads their outcomes from the target state's bytes,
and it words protocol violations only when a table-driven screen fires.
These tests pin each shortcut to the reference it replaces:

* the per-channel outcome of a packed byte (``repro.verif.encoding``)
  equals the forward / cancel / backward of the channel's resolved
  events, and ``productive`` equals "any channel moved", on every
  transition of the model-checking designs and of stall-chaos wraps of
  three paper designs, on both engines;
* the protocol screen fires exactly when the reference Invariant / Retry
  checks report a problem.
"""

import random

import pytest

from repro.chaos import ChaosPlan, wrap
from repro.designs import MC_DESIGNS, build_design
from repro.verif.encoding import BACKWARD, CANCEL, FORWARD, OUTCOME, productive
from repro.verif.explore import StateExplorer
from repro.verif.properties import (
    protocol_problems,
    protocol_screen,
    retry_mask,
)

ENGINES = ("worklist", "codegen")

#: (design, state cap): paper designs explored under a seeded stall plan,
#: as the benchmark's verify workload explores them.
CHAOS_WRAPS = (("fig1a", 600), ("fig1d", 400), ("fig6b", 150))


def stall_wrapped(design):
    """``design`` wrapped in the stall plan drawn for it (plan seed 0)."""
    rng = random.Random(f"verify:{design}:0")
    net = build_design(design)
    plan = ChaosPlan.seeded(rng.randrange(2 ** 31), sorted(net.channels),
                            kinds=("stall",), coverage=0.3, budget=2)
    wrap(net, plan, nondet=True)
    return net


def explorations():
    cases = [pytest.param(MC_DESIGNS[name], 60000, id=name)
             for name in sorted(MC_DESIGNS)]
    cases += [pytest.param(lambda d=design: stall_wrapped(d), cap,
                           id=f"chaos-{design}")
              for design, cap in CHAOS_WRAPS]
    return cases


class TestDecodedOutcomes:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("build, cap", explorations())
    def test_outcome_equals_resolved_events(self, build, cap, engine):
        """Re-run every explored transition: the step returns its target
        state's bytes, each byte decodes to the channel's resolved events,
        and ``productive`` is the old any-movement test."""
        explorer = StateExplorer(build(), max_states=cap, engine=engine)
        result = explorer.explore()
        net, sim = explorer.netlist, explorer.sim
        channels = list(net.channels.values())
        moved = 0
        for t in result.transitions:
            net.restore(result.states[t.source][0])
            packed = sim.step_with_choices(t.choices)
            assert packed == result.states[t.target][1]
            any_moved = False
            for i, channel in enumerate(channels):
                events = channel._compute_events()
                flags = OUTCOME[packed[i]]
                assert ((bool(flags & FORWARD), bool(flags & CANCEL),
                         bool(flags & BACKWARD))
                        == (events.forward, events.cancel, events.backward))
                any_moved |= events.forward or events.cancel or events.backward
            assert productive(packed) == any_moved
            moved += any_moved
        assert 0 < moved < len(result.transitions)


def reference_problems(prev, cur, exempt):
    return protocol_problems(prev, cur, [f"c{i}" for i in range(len(cur))],
                             exempt)


class TestProtocolScreen:
    @pytest.mark.parametrize("exempt", [frozenset(), frozenset({0})],
                             ids=["checked", "exempt"])
    def test_every_byte_pair(self, exempt):
        mask = retry_mask(1, exempt)
        for p in range(256):
            prev = bytes((p,))
            for c in range(256):
                cur = bytes((c,))
                assert (protocol_screen(prev, cur, mask)
                        == bool(reference_problems(prev, cur, exempt))), (p, c)

    def test_initial_state_has_no_retry_obligation(self):
        for c in range(256):
            cur = bytes((c,))
            assert (protocol_screen(None, cur, retry_mask(1))
                    == bool(reference_problems(None, cur, frozenset())))

    def test_positions_in_wide_vectors(self):
        """The mask exempts exactly the listed positions of a vector."""
        rng = random.Random(0)
        for _ in range(20000):
            n = rng.randrange(1, 12)
            prev = bytes(rng.randrange(16) for _ in range(n))
            cur = bytes(rng.randrange(16) for _ in range(n))
            exempt = frozenset(i for i in range(n) if rng.random() < 0.3)
            assert (protocol_screen(prev, cur, retry_mask(n, exempt))
                    == bool(reference_problems(prev, cur, exempt)))
