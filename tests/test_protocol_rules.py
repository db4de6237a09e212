"""One statement of the SELF protocol rules.

``repro.verif.properties`` states the Invariant patterns and the Retry
obligations once (:data:`INVARIANT`, :data:`RETRY`); the explorer's screen
and wording, the runtime monitor and the compiled run entry's screen and
obligation terms derive from it.  These tests pin every derived checker
to the rule table on all 16 x 16 (previous byte, current byte) pairs of
one channel, with and without the Section 4.2 exemption, and guard that
no other module under ``src/`` spells the rules.
"""

import io
import itertools
import pathlib
import tokenize

import pytest

from repro.backend import pysim
from repro.elastic.environment import NondetSink, NondetSource
from repro.errors import ProtocolViolationError
from repro.netlist.graph import Netlist
from repro.sim.monitors import ProtocolMonitor
from repro.verif import properties
from repro.verif.properties import (
    INVARIANT,
    RETRY,
    protocol_problems,
    protocol_screen,
    retry_mask,
)

PAIRS = list(itertools.product(range(16), repeat=2))
EXEMPT = pytest.mark.parametrize("exempt", [False, True],
                                 ids=["checked", "exempt"])


def controls(b):
    """``(vp, sp, vm, sm)`` of a packed channel byte."""
    return tuple(bool(b >> k & 1) for k in range(4))


def table_verdict(prev, cur, exempt, data_changed=False):
    """``(prop, detail)`` of every rule the table says ``cur`` breaks
    after ``prev`` (``None``: no previous cycle), in checking order: the
    Invariant patterns, then each Retry obligation — its held bit, else
    (for a rule that holds data) its data."""
    out = [(rule.prop, rule.detail) for rule in INVARIANT
           if cur & rule.mask == rule.value]
    for rule in RETRY:
        if (prev is None or prev & rule.mask != rule.value
                or rule.exempt and exempt):
            continue
        if not cur & rule.held:
            out.append((rule.prop, rule.detail))
        elif rule.data and data_changed:
            out.append((rule.prop, rule.data.format(0, 1)))
    return out


class TestExplorer:
    @EXEMPT
    def test_screen_and_wording(self, exempt):
        positions = frozenset({0}) if exempt else frozenset()
        mask = retry_mask(1, positions)
        for p, c in PAIRS:
            want = [f"c: {detail}" if prop == "Invariant"
                    else f"c: {detail} ({prop})"
                    for prop, detail in table_verdict(p, c, exempt)]
            prev, cur = bytes((p,)), bytes((c,))
            assert protocol_problems(prev, cur, ["c"], positions) == want
            assert protocol_screen(prev, cur, mask) == bool(want), (p, c)


def _one_channel():
    net = Netlist("one")
    net.add(NondetSource("src"))
    net.add(NondetSink("snk", can_kill=True))
    net.connect("src.o", "snk.i", name="c")
    return net


def _drive(monitor, state, cycle, b, data):
    """Set the channel to byte ``b`` and ``data``; observe ``cycle``.
    Returns the violation raised as ``(prop, detail)``, else None."""
    state.vp, state.sp, state.vm, state.sm = controls(b)
    state.data = data
    try:
        monitor.observe(cycle)
    except ProtocolViolationError as err:
        return err.prop, str(err).split(": ", 1)[1]
    return None


class TestMonitor:
    @EXEMPT
    def test_first_violation_of_every_pair(self, exempt, monkeypatch):
        """The monitor raises the first violation the table reports:
        on the previous byte alone at cycle 0 (a violating cycle records
        no obligation), then on the current byte at cycle 1."""
        if exempt:
            monkeypatch.setattr(properties, "retry_exempt_channels",
                                lambda net: {"c"})
        net = _one_channel()
        monitor = ProtocolMonitor(net)
        state = net.channels["c"].state
        for (p, c), changed in itertools.product(PAIRS, (False, True)):
            monitor.reset()
            first = table_verdict(None, p, exempt)
            assert _drive(monitor, state, 0, p, 0) == (first[:1] or [None])[0]
            if first:
                continue
            want = table_verdict(p, c, exempt, changed)
            got = _drive(monitor, state, 1, c, int(changed))
            assert got == (want[:1] or [None])[0], (p, c, changed)
            assert len(monitor.violations) == (got is not None)


class TestCompiledScreen:
    @EXEMPT
    def test_screen_and_obligations(self, exempt):
        """The run entry's count block records the obligations of the
        previous byte, and its screen fires on the current byte exactly
        when the table reports a violation."""
        g = pysim._Gen(None)
        slots = {0} if exempt else set()
        count = "\n".join(pysim._count_block(0, pysim._checked(0, slots)))
        screen = "\n".join(pysim._screen(g, 1, slots))
        for (p, c), changed in itertools.product(PAIRS, (False, True)):
            env = dict(cycle=0, _due=0, w0=-1, r0=None, u0=-1,
                       k0=0, s0=0, t0=0, b0=0, i0=0)
            env.update(zip(("v0", "p0", "a0", "m0"), controls(p)), d0=0)
            exec(screen, env)
            assert bool(env["_bad"]) == bool(table_verdict(None, p, exempt))
            env["cycle"] = 1
            exec(count, env)
            env.update(zip(("v0", "p0", "a0", "m0"), controls(c)),
                       d0=int(changed))
            exec(screen, env)
            want = table_verdict(p, c, exempt, changed)
            assert bool(env["_bad"]) == bool(want), (p, c, changed)


#: the four violation details and the patterns' binary spellings
DETAILS = ("V- and S+ both asserted", "cancellation with S- asserted",
           "stalled token withdrawn", "stalled anti-token withdrawn")
BIT_NAMES = {"VP_BIT", "SP_BIT", "VM_BIT", "SM_BIT"}


def test_rules_are_stated_once():
    """Under ``src/`` only ``verif/properties.py`` words a violation or
    spells a rule's bit pattern (a binary literal of a pattern, or the
    named bits)."""
    src = pathlib.Path(properties.__file__).parents[1]
    masks = {v for rule in INVARIANT + RETRY
             for v in (rule.mask, rule.value, rule.held)} - {0}
    offenders = []
    for path in sorted(src.rglob("*.py")):
        if path == pathlib.Path(properties.__file__):
            continue
        text = path.read_text()
        offenders += [(path.name, d) for d in DETAILS if d in text]
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if (tok.type == tokenize.NUMBER and tok.string.lower()
                    .startswith("0b") and int(tok.string, 2) in masks
                    or tok.type == tokenize.NAME and tok.string in BIT_NAMES):
                offenders.append((path.name, tok.string))
    assert offenders == []
