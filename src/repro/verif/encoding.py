"""Canonical compact byte-encoding of explorer states.

The explicit-state explorer's dedup index maps every visited state —
``(Netlist.snapshot(), previous channel signals)`` — to its discovery
index.  Keyed by the raw nested tuples that :meth:`Netlist.snapshot`
returns plus per-channel boolean tuples, the index both hashes slowly
(every lookup re-hashes the whole nested structure) and keeps the full
tuple graph resident per state, which dominates the checker's memory at
20k+ states.

Two layers make the states cheap:

* **Packed signals** — the four control bits of every channel pack into
  **one byte per channel** (``VP | SP<<1 | VM<<2 | SM<<3``), in the
  netlist's fixed channel order.  This is what
  :meth:`~repro.sim.engine.Simulator.expand` returns per choice vector
  (``step_with_choices`` for one vector), the representation carried in
  ``ExplorationResult.states`` and read by the rule table's screen and
  wording (:mod:`repro.verif.properties`);
  :func:`unpack_signals` recovers the friendly
  ``{channel: (vp, sp, vm, sm)}`` view on demand.
* **Outcomes** — a channel's cycle outcome (forward transfer,
  cancellation, backward transfer, as
  :meth:`~repro.elastic.channel.Channel.events` resolves them) is a pure
  function of its byte: :data:`OUTCOME` tabulates it.  A transition's
  events therefore need no objects of their own: every transition into a
  state saw the signals the state records, so the deadlock and leads-to
  analyses read a transition's outcomes from its *target* state
  (forward data aside, which they do not read).
* **State keys** — :meth:`StateCodec.encode` serializes the
  ``(packed signals, snapshot)`` pair through :func:`marshal.dumps` at
  version 2: a value-deterministic, C-speed encoding for the tuple/int/
  bool/str/float/bytes/``None`` values the :meth:`Node.snapshot` contract
  asks for (version 2 predates marshal's identity-based object sharing,
  so equal values always produce equal bytes regardless of aliasing).

The resulting keys are *hash-consed* by the index dict itself: the one
interned ``bytes`` object is all that stays resident per state key, and
every re-visit hashes a flat byte string instead of walking tuples.

Keys are only comparable within one exploration of one netlist: neither
channel nor node names ride along.  The packed signals are positional in
channel order, and :meth:`Netlist.snapshot` is one flat tuple of declared
slot values in sorted node order, so a key is pure state.

A snapshot containing a value marshal cannot serialize (an arbitrary
Python object as a data token, say) makes :meth:`StateCodec.encode` return
``None``; the explorer then falls back to the classic nested-tuple key for
that state.  Since a given value always encodes the same way, mixing
encoded and fallback keys in one index is safe — the two kinds never
compare equal.
"""

from __future__ import annotations

import marshal

#: marshal format predating FLAG_REF object sharing (version >= 3 encodes
#: *aliased* equal objects differently from distinct equal objects, which
#: would split equal states); version 2 is purely value-determined for the
#: types the snapshot contract allows.
_MARSHAL_VERSION = 2


#: outcome flags of one channel's cycle: ``forward``, ``cancel`` and
#: ``backward`` of :class:`~repro.elastic.channel.ChannelEvents`.
FORWARD, CANCEL, BACKWARD = 1, 2, 4


def _outcome(b):
    """Exact mirror of ``Channel._compute_events`` on a packed byte."""
    if b & 1:                                   # vp
        if b & 4:                               # vm: token meets anti-token
            return CANCEL
        return 0 if b & 2 else FORWARD          # stalled by sp, or moves
    return BACKWARD if b & 4 and not b & 8 else 0


#: packed channel byte -> its outcome flags (0: idle or stalled).
OUTCOME = bytes(_outcome(b) for b in range(256))

#: the byte values of a channel where nothing moves.
_STILL = bytes(b for b in range(256) if not OUTCOME[b])


def productive(packed):
    """Whether any channel of a packed signal vector moved a token or an
    anti-token (its cycle had a forward, cancel or backward outcome)."""
    return bool(packed.translate(None, _STILL))


def pack_signals(signals, channel_names):
    """Pack a ``{channel: (vp, sp, vm, sm)}`` mapping into one byte per
    channel, in ``channel_names`` order."""
    packed = bytearray(len(channel_names))
    for i, name in enumerate(channel_names):
        vp, sp, vm, sm = signals[name]
        packed[i] = (1 if vp else 0) | (2 if sp else 0) \
            | (4 if vm else 0) | (8 if sm else 0)
    return bytes(packed)


def unpack_signals(packed, channel_names):
    """Inverse of :func:`pack_signals`: the friendly dict view."""
    return {
        name: (
            bool(packed[i] & 1), bool(packed[i] & 2),
            bool(packed[i] & 4), bool(packed[i] & 8),
        )
        for i, name in enumerate(channel_names)
    }


class StateCodec:
    """Encodes explorer states of one netlist into compact ``bytes`` keys."""

    __slots__ = ("channel_names",)

    def __init__(self, netlist):
        self.channel_names = list(netlist.channels)

    def encode(self, snapshot, packed_signals):
        """The canonical ``bytes`` key of a state.

        ``snapshot`` is a :meth:`Netlist.snapshot` capture;
        ``packed_signals`` is the :func:`pack_signals` byte vector of the
        cycle that produced the state (``None`` for the initial state).
        Returns ``None`` when a snapshot value is not marshal-serializable
        (the caller falls back to tuple keys).
        """
        try:
            return marshal.dumps((packed_signals, snapshot), _MARSHAL_VERSION)
        except ValueError:
            return None
