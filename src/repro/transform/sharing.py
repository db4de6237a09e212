"""Module sharing (Section 4.1).

Merges ``k`` copies of a single-input function block into one
:class:`~repro.core.shared.SharedModule` governed by a scheduler.  This is
the step that turns the (area-hungry) Shannon-decomposed design of
Figure 1(c) into the speculative design of Figure 1(d): the scheduler's
channel prediction implicitly predicts the multiplexor's select value.
"""

from __future__ import annotations

from repro.core.scheduler import Scheduler
from repro.core.shared import SharedModule
from repro.elastic.functional import Func
from repro.errors import TransformError
from repro.transform.base import TransformRecord, is_primitive


def share_blocks(netlist, func_names, scheduler, name=None, check_same_fn=True):
    """Replace the blocks in ``func_names`` with one shared module.

    Each block must be a 1-input :class:`Func`; channel ``j`` of the shared
    module inherits the ``j``-th block's producer and consumer.  Channel
    names are preserved so traces keep working across the transformation.
    """
    if not isinstance(scheduler, Scheduler):
        raise TransformError("share_blocks: scheduler must be a Scheduler")
    funcs = []
    for fname in func_names:
        node = netlist.nodes.get(fname)
        if not is_primitive(node, Func):
            raise TransformError(f"{fname!r} is not a function block")
        if node.n_inputs != 1:
            raise TransformError(f"share_blocks: {fname!r} must have exactly 1 input")
        funcs.append(node)
    if len(funcs) < 2:
        raise TransformError("share_blocks: need at least two blocks")
    if scheduler.n_channels != len(funcs):
        raise TransformError(
            f"share_blocks: scheduler handles {scheduler.n_channels} channels, "
            f"got {len(funcs)} blocks"
        )
    if check_same_fn:
        fns = {func.fn for func in funcs}
        if len(fns) != 1:
            raise TransformError(
                "share_blocks: blocks compute different functions "
                "(pass check_same_fn=False to share anyway)"
            )
    # Record wiring, then dismantle.
    wiring = []
    for func in funcs:
        in_ch = func.channel("i0")
        out_ch = func.channel("o")
        wiring.append(
            (in_ch.producer, in_ch.name, in_ch.width, out_ch.consumer, out_ch.name, out_ch.width)
        )
    for func in funcs:
        netlist.disconnect(func.channel("i0").name)
        netlist.disconnect(func.channel("o").name)
    for func in funcs:
        netlist.remove(func.name)
    name = name or netlist.fresh_name(f"shared_{func_names[0]}")
    shared = SharedModule(
        name,
        funcs[0].fn,
        scheduler,
        n_channels=len(funcs),
        delay=max(func.delay for func in funcs),
        area_cost=funcs[0].area_cost,
    )
    netlist.add(shared)
    for j, (producer, in_name, in_w, consumer, out_name, out_w) in enumerate(wiring):
        netlist.connect(producer, (name, f"i{j}"), name=in_name, width=in_w)
        netlist.connect((name, f"o{j}"), consumer, name=out_name, width=out_w)
    return TransformRecord(
        "share_blocks", {"blocks": tuple(func_names), "shared": name}
    )
