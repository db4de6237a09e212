"""Elastic buffer retiming across function blocks (Section 3.3, ref [9]).

Forward retiming moves one token-matched EB from *every* input of a block
to a single EB at its output; the moved tokens are transformed by the
block's function so the visible transfer streams are unchanged.  Backward
retiming is the inverse; since a function is not invertible in general it
is only allowed for empty buffers (bubbles), which is also the form needed
to enable the Figure 1 explorations.
"""

from __future__ import annotations

from repro.elastic.buffers import ElasticBuffer
from repro.elastic.functional import Func
from repro.errors import TransformError
from repro.transform.base import TransformRecord, is_primitive, splice_node, unsplice_node


def _producer_ebs(netlist, func):
    ebs = []
    for port in func.in_ports:
        channel = func.channel(port)
        producer_name, _ = channel.producer
        producer = netlist.nodes[producer_name]
        if not is_primitive(producer, ElasticBuffer):
            raise TransformError(
                f"retime_forward: input {func.name}.{port} is not fed by an EB "
                f"(found {producer_name!r})"
            )
        ebs.append(producer)
    return ebs


def retime_forward(netlist, func_name, eb_name=None):
    """Move EBs from all inputs of ``func_name`` to its output.

    Every input must be fed directly by an EB and all those EBs must hold
    the same number of tokens; the new output EB holds ``fn`` applied to
    the token tuples.
    """
    func = netlist.nodes.get(func_name)
    if not is_primitive(func, Func):
        raise TransformError(f"{func_name!r} is not a function block")
    ebs = _producer_ebs(netlist, func)
    counts = {eb.count for eb in ebs}
    if len(counts) != 1:
        raise TransformError(
            f"retime_forward: input EBs of {func_name!r} hold different token "
            f"counts {sorted(counts)}"
        )
    count = counts.pop()
    if count < 0:
        raise TransformError("retime_forward: cannot retime anti-tokens")
    token_rows = [eb.contents() for eb in ebs]
    new_tokens = [func.fn(*values) for values in zip(*token_rows)]
    capacity = max(eb.capacity for eb in ebs)
    removed = []
    for eb in ebs:
        unsplice_node(netlist, eb.name)
        removed.append(eb.name)
    out_channel = func.channel("o")
    eb_name = eb_name or netlist.fresh_name(f"eb_{func_name}")
    new_eb = ElasticBuffer(eb_name, init=new_tokens, capacity=max(capacity, len(new_tokens), 2))
    splice_node(netlist, out_channel.name, new_eb)
    return TransformRecord(
        "retime_forward",
        {"func": func_name, "removed": tuple(removed), "added": eb_name, "tokens": count},
    )


def retime_backward(netlist, eb_name, names=None):
    """Move an *empty* EB from the output of a block to all of its inputs."""
    eb = netlist.nodes.get(eb_name)
    if not is_primitive(eb, ElasticBuffer):
        raise TransformError(f"{eb_name!r} is not an EB")
    if eb.count != 0:
        raise TransformError(
            "retime_backward: only empty EBs can move backward (functions "
            "are not invertible)"
        )
    in_channel = eb.channel("i")
    func_name, _ = in_channel.producer
    func = netlist.nodes[func_name]
    if not is_primitive(func, Func):
        raise TransformError(
            f"retime_backward: {eb_name!r} is not fed by a function block"
        )
    capacity = eb.capacity
    unsplice_node(netlist, eb_name)
    added = []
    for idx, port in enumerate(func.in_ports):
        channel = func.channel(port)
        name = None
        if names is not None:
            name = names[idx]
        name = name or netlist.fresh_name(f"eb_{func_name}_{port}")
        new_eb = ElasticBuffer(name, init=(), capacity=capacity)
        splice_node(netlist, channel.name, new_eb)
        added.append(name)
    return TransformRecord(
        "retime_backward", {"func": func_name, "removed": eb_name, "added": tuple(added)}
    )
