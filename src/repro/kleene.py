"""Three-valued (Kleene) logic helpers.

The elastic control network contains combinational chains (stop propagation,
anti-token "rushing" through zero-backward-latency buffers, eager-fork
acknowledges).  The simulator resolves each clock cycle by iterating the
combinational functions of every node to a least fixed point.  For that to be
well-defined, node logic is written in *Kleene* three-valued logic where
``None`` means "not yet known".  Each helper is monotone with respect to the
information order (``None`` below ``False``/``True``), which guarantees the
fix-point iteration converges: a node writes each result through
:meth:`repro.elastic.node.Node.drive`, which only ever moves a signal from
unknown to known.

Truth tables follow strong Kleene logic:

* ``kand``: ``False`` dominates, otherwise ``None`` dominates.
* ``kor``: ``True`` dominates, otherwise ``None`` dominates.
* ``knot``: ``None`` maps to ``None``.
"""

from __future__ import annotations


def kand(a=True, b=True, *more):
    """Kleene AND over any number of inputs (``None`` = unknown).

    Node controllers are built almost entirely from binary gates, so the
    operands are positional with the identity as default: the binary
    case packs no tuple, and a longer call folds the extra operands in.
    Operands are tested by identity (``is False``/``is None``), so a
    non-bool operand such as ``0`` counts as true.
    """
    if more:
        a = kand(a, b)
        for x in more:
            a = kand(a, x)
        return a
    if a is False or b is False:
        return False
    if a is None or b is None:
        return None
    return True


def kor(a=False, b=False, *more):
    """Kleene OR over any number of inputs (``None`` = unknown); the
    operands are positional as in :func:`kand`, and only ``True`` itself
    counts as true."""
    if more:
        a = kor(a, b)
        for x in more:
            a = kor(a, x)
        return a
    if a is True or b is True:
        return True
    if a is None or b is None:
        return None
    return False


def knot(x):
    """Kleene NOT (``None`` maps to ``None``)."""
    if x is None:
        return None
    return not x


def kite(cond, if_true, if_false):
    """Kleene if-then-else.

    When ``cond`` is unknown the result is only known if both branches agree.
    """
    if cond is True:
        return if_true
    if cond is False:
        return if_false
    if if_true == if_false and if_true is not None:
        return if_true
    return None


def keq(a, b):
    """Kleene equality of two (possibly unknown) values."""
    if a is None or b is None:
        return None
    return a == b


def known(*xs):
    """True when every argument is resolved (not ``None``)."""
    return all(x is not None for x in xs)


def as_bool(x, name="signal"):
    """Assert a signal is resolved and return it as a plain ``bool``.

    Used at clock-tick time, after the fix-point has completed, when every
    control signal must be binary.
    """
    if x is None:
        raise ValueError(f"{name} is unresolved at tick time")
    return bool(x)
