"""Shannon decomposition / multiplexor retiming (Section 2, ref [14]).

``F(mux(s, a, b)) == mux(s, F(a), F(b))`` for a single-input block ``F``:
the block moves from the multiplexor's output to each of its inputs, so
``F`` and the select computation run in parallel instead of sequentially.
The price is duplicated logic — which the sharing transformation
(:mod:`repro.transform.sharing`) then reclaims, completing the speculation
recipe.

A *lazy* multiplexor is represented as a plain :class:`Func` whose first
input carries the select token (see :func:`make_lazy_mux`); the rewrite
also supports an already-converted :class:`EarlyEvalMux`.
"""

from __future__ import annotations

from repro.elastic.eemux import EarlyEvalMux
from repro.elastic.functional import Func
from repro.errors import TransformError
from repro.transform.base import TransformRecord, is_primitive, splice_node, unsplice_node


def make_lazy_mux(name, n_inputs=2, delay=0.2, area_cost=0.2):
    """A conventional elastic multiplexor: a lazy-join :class:`Func` whose
    first input is the select channel and the rest are data channels."""

    def mux_fn(sel, *values):
        if not isinstance(sel, int) or not 0 <= sel < n_inputs:
            raise ValueError(f"mux {name}: bad select {sel!r}")
        return values[sel]

    func = Func(name, mux_fn, n_inputs=n_inputs + 1, delay=delay, area_cost=area_cost)
    func.is_mux = True
    func.n_data_inputs = n_inputs
    return func


def _mux_data_ports(node):
    if isinstance(node, EarlyEvalMux):
        return [f"i{j}" for j in range(node.n_inputs)]
    if getattr(node, "is_mux", False):
        return node.in_ports[1:]
    raise TransformError(
        f"{node.name!r} is not a multiplexor (use make_lazy_mux or EarlyEvalMux)"
    )


def shannon_decompose(netlist, mux_name, func_name):
    """Move 1-input block ``func_name`` from the output of ``mux_name`` to
    each of its data inputs (one fresh copy per input).

    Preconditions: the mux's output feeds ``func_name`` directly, and the
    block has exactly one input.
    """
    mux = netlist.nodes.get(mux_name)
    if mux is None:
        raise TransformError(f"no node {mux_name!r}")
    data_ports = _mux_data_ports(mux)
    func = netlist.nodes.get(func_name)
    if not is_primitive(func, Func):
        raise TransformError(f"{func_name!r} is not a function block")
    if func.n_inputs != 1:
        raise TransformError(
            f"shannon_decompose: {func_name!r} has {func.n_inputs} inputs, need 1"
        )
    out_port = mux.out_ports[0]
    mux_out = mux.channel(out_port)
    consumer_name, _ = mux_out.consumer
    if consumer_name != func_name:
        raise TransformError(
            f"shannon_decompose: output of {mux_name!r} feeds {consumer_name!r}, "
            f"not {func_name!r}"
        )
    copies = []
    for port in data_ports:
        channel = mux.channel(port)
        copy_name = netlist.fresh_name(f"{func_name}_c{len(copies)}")
        copy = Func(
            copy_name,
            func.fn,
            n_inputs=1,
            delay=func.delay,
            area_cost=func.area_cost,
        )
        splice_node(netlist, channel.name, copy)
        copies.append(copy_name)
    # Remove the original block, reconnecting the mux straight through.
    unsplice_node(netlist, func_name)
    return TransformRecord(
        "shannon_decompose",
        {"mux": mux_name, "func": func_name, "copies": tuple(copies)},
    )
