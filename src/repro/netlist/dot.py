"""Graphviz export — the "visualize the modified graph" feature of the
Section 5 toolkit.  Elastic buffers are drawn as boxes annotated with their
token count (the paper's dot-in-a-box notation), function blocks as
ellipses, muxes as trapezia, shared modules as double octagons, forks as
triangles and environments (every source and sink) as ``cds``.  The nodes
of a chaos splice are drawn plainly: an ellipse (or ``cds`` for its side
source) labelled with the node name.

Pass lint findings via ``diagnostics=`` to overlay them: offending nodes
are filled red (errors) or orange (warnings) with the diagnostic codes
appended to their label, offending channels are drawn as thick colored
edges — ``to_dot(net, diagnostics=run_lint(net).diagnostics)``.
"""

from __future__ import annotations

from repro.core.shared import SharedModule
from repro.elastic.buffers import ElasticBuffer, ZeroBackwardLatencyBuffer
from repro.elastic.eemux import EarlyEvalMux
from repro.elastic.fork import EagerFork

_BUFFERS = (ElasticBuffer, ZeroBackwardLatencyBuffer)

#: node class -> shape for the design's own non-environment nodes; any
#: other node is an ellipse.
_SHAPES = (
    (_BUFFERS, "box"),
    (EarlyEvalMux, "trapezium"),
    (SharedModule, "doubleoctagon"),
    (EagerFork, "triangle"),
)

#: severity -> (fill color, pen color) for the diagnostics overlay.
_SEVERITY_COLORS = {
    "error": ("#ffc4c4", "#cc0000"),
    "warning": ("#ffe2b8", "#cc7700"),
}

#: severity precedence when one element carries several findings.
_SEVERITY_ORDER = ("error", "warning")


def _shape(node):
    if node.is_environment:
        return "cds"
    if node.splice_of is None:
        for cls, shape in _SHAPES:
            if isinstance(node, cls):
                return shape
    return "ellipse"


def _label(node):
    if node.splice_of is not None:
        return node.name
    if isinstance(node, _BUFFERS):
        count = node.count
        marks = "●" * count if count > 0 else ("○" * (-count) if count < 0 else "")
        suffix = f"\\n{marks}" if marks else "\\n(empty)"
        tag = " zbl" if isinstance(node, ZeroBackwardLatencyBuffer) else ""
        return f"{node.name}{tag}{suffix}"
    if isinstance(node, SharedModule):
        return f"{node.name}\\nshared x{node.n_channels}"
    if getattr(node, "is_mux", False):
        return f"{node.name}\\nmux"
    return node.name


def _collect_overlay(diagnostics):
    """Worst severity and code list per node / channel name."""
    nodes, channels = {}, {}
    for diag in diagnostics or ():
        for target, table in ((diag.node, nodes), (diag.channel, channels)):
            if not target:
                continue
            severity, codes = table.get(target, ("warning", []))
            if (_SEVERITY_ORDER.index(diag.severity)
                    < _SEVERITY_ORDER.index(severity)):
                severity = diag.severity
            if diag.code not in codes:
                codes.append(diag.code)
            table[target] = (severity, codes)
    return nodes, channels


def to_dot(netlist, rankdir="LR", diagnostics=None):
    """Render the netlist as a Graphviz dot string.

    ``diagnostics`` — an iterable of :class:`repro.lint.Diagnostic` (or a
    :class:`~repro.lint.LintReport`'s ``.diagnostics``) — colors the
    offending nodes and channels.
    """
    flagged_nodes, flagged_channels = _collect_overlay(diagnostics)
    lines = [f'digraph "{netlist.name}" {{', f"  rankdir={rankdir};"]
    for node in netlist.nodes.values():
        attrs = [f"shape={_shape(node)}"]
        label = _label(node)
        flag = flagged_nodes.get(node.name)
        if flag is not None:
            severity, codes = flag
            fill, pen = _SEVERITY_COLORS[severity]
            label += "\\n" + " ".join(codes)
            attrs += [f'style=filled, fillcolor="{fill}"',
                      f'color="{pen}"', "penwidth=2"]
        attrs.append(f'label="{label}"')
        lines.append(f'  "{node.name}" [{", ".join(attrs)}];')
    for channel in netlist.channels.values():
        src, src_port = channel.producer
        dst, dst_port = channel.consumer
        attrs = [f'label="{channel.name}"', "fontsize=8"]
        flag = flagged_channels.get(channel.name)
        if flag is not None:
            severity, codes = flag
            _fill, pen = _SEVERITY_COLORS[severity]
            attrs[0] = f'label="{channel.name}\\n{" ".join(codes)}"'
            attrs += [f'color="{pen}"', f'fontcolor="{pen}"', "penwidth=2.5"]
        lines.append(f'  "{src}" -> "{dst}" [{", ".join(attrs)}];')
    lines.append("}")
    return "\n".join(lines)
