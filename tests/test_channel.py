"""Unit tests for SELF channel semantics and event resolution."""

import pytest

from repro.elastic.channel import (
    Channel, ChannelState, CONSUMER, PRODUCER, SIG_INDEX,
)
from repro.elastic.node import Node
from repro.errors import SignalConflictError


def resolved_channel(vp, sp, vm, sm, data=None):
    ch = Channel("c")
    ch.state.vp = vp
    ch.state.sp = sp
    ch.state.vm = vm
    ch.state.sm = sm
    ch.state.data = data
    return ch


def driven_channel(base=0):
    """A node whose output port ``o`` is bound to channel ``c``, whose
    state carries a change log with signal-id base ``base``."""
    node = Node("n")
    node.add_out("o")
    channel = Channel("c")
    channel.state.log = []
    channel.state.base = base
    node.bind("o", channel)
    return node, channel.state


class TestChannelState:
    """The monotone write rule, which lives in :meth:`Node.drive`, and
    the resolution queries of :class:`ChannelState`."""

    def test_set_from_unknown(self):
        node, st = driven_channel(base=10)
        node.drive("o", "vp", True)
        assert st.vp is True
        assert st.log == [10 + SIG_INDEX["vp"]]

    def test_set_same_value_is_noop(self):
        node, st = driven_channel()
        node.drive("o", "vp", True)
        node.drive("o", "vp", True)
        assert st.vp is True
        assert st.log == [SIG_INDEX["vp"]]

    def test_set_none_is_noop(self):
        node, st = driven_channel()
        node.drive("o", "vp", None)
        assert st.vp is None
        assert st.log == []

    def test_conflicting_rewrite_raises(self):
        node, st = driven_channel()
        node.drive("o", "vp", True)
        with pytest.raises(SignalConflictError,
                           match=r"^signal c\.vp rewritten True -> False$"):
            node.drive("o", "vp", False)
        assert st.vp is True

    def test_none_and_same_value_drives_log_nothing(self):
        node, st = driven_channel()
        node.drive("o", "data", 7)
        node.drive("o", "sm", False)
        del st.log[:]
        node.drive("o", "data", None)
        node.drive("o", "data", 7)
        node.drive("o", "sm", None)
        node.drive("o", "sm", False)
        assert st.log == []
        assert (st.data, st.sm) == (7, False)

    def test_drive_without_log(self):
        node = Node("n")
        node.add_out("o")
        channel = Channel("c")
        node.bind("o", channel)
        node.drive("o", "sp", False)
        assert channel.state.sp is False
        assert channel.state.log is None

    def test_resolved_requires_all_controls(self):
        node, st = driven_channel()
        node.drive("o", "vp", False)
        node.drive("o", "sp", False)
        node.drive("o", "vm", False)
        assert not st.resolved()
        node.drive("o", "sm", False)
        assert st.resolved()

    def test_unresolved_signals_named(self):
        node, st = driven_channel()
        node.drive("o", "vp", True)
        assert set(st.unresolved_signals()) == {"sp", "vm", "sm"}

    def test_state_has_no_write_method(self):
        assert not hasattr(ChannelState, "set")


class TestAttach:
    def test_double_producer_rejected(self):
        ch = Channel("c")
        ch.attach(PRODUCER, "a", "o")
        with pytest.raises(SignalConflictError):
            ch.attach(PRODUCER, "b", "o")

    def test_double_consumer_rejected(self):
        ch = Channel("c")
        ch.attach(CONSUMER, "a", "i")
        with pytest.raises(SignalConflictError):
            ch.attach(CONSUMER, "b", "i")

    def test_bad_role(self):
        with pytest.raises(ValueError):
            Channel("c").attach("sideways", "a", "p")


class TestEvents:
    def test_forward_transfer(self):
        ev = resolved_channel(True, False, False, False, data=7).events()
        assert ev.forward and not ev.cancel and not ev.backward
        assert ev.data == 7
        assert ev.token_left_producer
        assert not ev.anti_delivered

    def test_stalled_token_no_event(self):
        ev = resolved_channel(True, True, False, False).events()
        assert not (ev.forward or ev.cancel or ev.backward)
        assert not ev.token_left_producer

    def test_idle(self):
        ev = resolved_channel(False, False, False, False).events()
        assert not (ev.forward or ev.cancel or ev.backward)

    def test_cancellation(self):
        """Token and anti-token in the same channel annihilate; both sides
        see their item leave."""
        ev = resolved_channel(True, False, True, False, data=3).events()
        assert ev.cancel
        assert not ev.forward          # the consumer does NOT receive data
        assert ev.data is None
        assert ev.token_left_producer
        assert ev.anti_delivered

    def test_backward_transfer(self):
        ev = resolved_channel(False, False, True, False).events()
        assert ev.backward and ev.anti_delivered and not ev.cancel

    def test_stalled_anti_token(self):
        ev = resolved_channel(False, False, True, True).events()
        assert not ev.anti_delivered

    def test_unresolved_raises_at_event_time(self):
        ch = Channel("c")
        ch.state.vp = True
        with pytest.raises(ValueError):
            ch.events()
