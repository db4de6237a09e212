"""Static lint rules over an elastic :class:`~repro.netlist.graph.Netlist`.

The rules encode the paper's structural correctness story:

* every combinational cycle must be broken by a token-registering node
  (an elastic buffer — Section 4.3's ZBL-chain hazard generalized),
* every elastic cycle must carry at least one bubble or it deadlocks by
  construction (Section 3.3),
* every speculative (shared-module) path needs a reachable kill/commit
  point — the early-evaluation mux that cancels mispredicted tokens
  (Section 2),

plus plain graph hygiene (dangling ports, unbound or multiply-driven
channels, width/arity mismatches, dead nodes) and performance-coverage
warnings (token-free cycles, chaos splices left behind).

Rules register themselves in :data:`RULES` via :func:`lint_rule`; each is
a function ``rule(netlist) -> list[Diagnostic]`` that must not mutate the
netlist.  :func:`core_structural_problems` is the fast, dependency-free
subset backing :meth:`Netlist.validate` — it preserves the historical
message strings byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.shared import SharedModule
from repro.elastic.eemux import EarlyEvalMux
from repro.elastic.fork import EagerFork
from repro.elastic.functional import Func
from repro.lint.diagnostics import CODES, Diagnostic
from repro.netlist.graphalg import cyclic_sccs

# -- registry -----------------------------------------------------------------


@dataclass(frozen=True)
class LintRule:
    """A named, registered lint rule."""

    name: str
    codes: tuple
    description: str
    fn: callable
    default: bool = True     # part of run_lint's default rule set?

    def run(self, netlist):
        return [
            Diagnostic(code=d.code, message=d.message, node=d.node,
                       channel=d.channel, hint=d.hint, rule=self.name)
            for d in self.fn(netlist)
        ]


#: name -> LintRule, in registration (= execution) order.
RULES = {}


def lint_rule(name, codes, description, default=True):
    """Decorator registering a rule function under ``name``."""
    def register(fn):
        RULES[name] = LintRule(name=name, codes=tuple(codes),
                               description=description, fn=fn,
                               default=default)
        return fn
    return register


# -- shared graph helpers ------------------------------------------------------


def _occupancy(node):
    """Signed token occupancy of a registering node (0 for others)."""
    return getattr(node, "count", 0)


def _capacity(node):
    return getattr(node, "capacity", getattr(node, "max_occupancy", 1))


def _edges(netlist):
    """Node-level directed edges ``(src, dst, channel_name)`` for every
    fully bound channel (partially wired channels are E002's business)."""
    edges = []
    for channel in netlist.channels.values():
        if channel.producer is None or channel.consumer is None:
            continue
        src, dst = channel.producer[0], channel.consumer[0]
        if src in netlist.nodes and dst in netlist.nodes:
            edges.append((src, dst, channel.name))
    return edges


def _adjacency(nodes, edges):
    adj = {name: [] for name in nodes}
    for src, dst, _ch in edges:
        if src in adj and dst in adj:
            adj[src].append(dst)
    return adj


def _cyclic_sccs(nodes, edges):
    """SCCs that actually contain a cycle (size > 1, or a self-loop)."""
    return [sorted(component)
            for component in cyclic_sccs(list(nodes), _adjacency(nodes, edges))]


def _scc_label(component, limit=6):
    head = " -> ".join(component[:limit])
    more = "" if len(component) <= limit else f" (+{len(component) - limit} more)"
    return head + more


# -- E00x: structure -----------------------------------------------------------


def core_structural_problems(netlist):
    """The fast structural core shared by :meth:`Netlist.validate` and the
    ``structure`` lint rule.

    Returns ``(code, message, node, channel)`` tuples in the historical
    order with the historical message strings — ``validate`` joins the
    messages unchanged, so existing error-string assertions keep passing.
    """
    problems = []
    for node in netlist.nodes.values():
        for port in node.ports:
            if port not in node._channels:
                problems.append(
                    ("E001", f"dangling port {node.name}.{port}",
                     node.name, None))
    for channel in netlist.channels.values():
        if channel.producer is None:
            problems.append(
                ("E002", f"channel {channel.name} has no producer",
                 None, channel.name))
        if channel.consumer is None:
            problems.append(
                ("E002", f"channel {channel.name} has no consumer",
                 None, channel.name))
        if channel.producer is not None:
            node_name, port = channel.producer
            if netlist.nodes.get(node_name) is None:
                problems.append(
                    ("E002", f"channel {channel.name} producer node missing",
                     None, channel.name))
        if channel.consumer is not None:
            node_name, port = channel.consumer
            if netlist.nodes.get(node_name) is None:
                problems.append(
                    ("E002", f"channel {channel.name} consumer node missing",
                     None, channel.name))
    return problems


@lint_rule("structure", ("E001", "E002", "E003", "E005"),
           "wiring hygiene: dangling ports, unbound / multiply-driven "
           "channels, arity drift")
def rule_structure(netlist):
    diags = [
        Diagnostic(code=code, message=message, node=node, channel=channel)
        for code, message, node, channel in core_structural_problems(netlist)
    ]
    # E003: every (node, port) endpoint must be claimed by at most one
    # channel, and the node-side binding must agree with the claimant.
    claims = {}
    for channel in netlist.channels.values():
        for endpoint in (channel.producer, channel.consumer):
            if endpoint is not None:
                claims.setdefault(endpoint, []).append(channel.name)
    for (node_name, port), channels in sorted(claims.items()):
        if len(channels) > 1:
            diags.append(Diagnostic(
                code="E003",
                message=(f"port {node_name}.{port} claimed by "
                         f"{len(channels)} channels: {', '.join(sorted(channels))}"),
                node=node_name, channel=channels[0]))
            continue
        node = netlist.nodes.get(node_name)
        if node is None:
            continue                      # E002 already reported
        bound = node._channels.get(port)
        if bound is not None and bound.name != channels[0]:
            diags.append(Diagnostic(
                code="E003",
                message=(f"port {node_name}.{port} is bound to channel "
                         f"{bound.name} but claimed by {channels[0]}"),
                node=node_name, channel=channels[0]))
    # E005: declared arity vs actual port list.
    for node in netlist.nodes.values():
        for attr, port_list, extra in node.arity_checks:
            declared = getattr(node, attr, None)
            actual = len(getattr(node, port_list)) - extra
            if declared is not None and declared != actual:
                diags.append(Diagnostic(
                    code="E005",
                    message=(f"{node.kind} {node.name}: {attr}={declared} "
                             f"but {port_list} has {actual} (+{extra} fixed) "
                             f"entries"),
                    node=node.name))
    return diags


# -- E004: widths --------------------------------------------------------------


@lint_rule("widths", ("E004",),
           "channel width equality across width-preserving nodes "
           "(buffers, forks, mux data paths)")
def rule_widths(netlist):
    diags = []

    def width(node, port):
        channel = node._channels.get(port)
        return None if channel is None else channel.width

    def check(node, in_port, out_port):
        w_in, w_out = width(node, in_port), width(node, out_port)
        if w_in is not None and w_out is not None and w_in != w_out:
            diags.append(Diagnostic(
                code="E004",
                message=(f"{node.kind} {node.name}: {in_port} is "
                         f"{w_in} bits but {out_port} is {w_out} bits"),
                node=node.name,
                channel=node._channels[out_port].name))

    for node in netlist.nodes.values():
        for in_port, out_port in node.width_pairs():
            check(node, in_port, out_port)
    return diags


# -- E101 / E102 / W201: cycles ------------------------------------------------


@lint_rule("cycles", ("E101", "E102", "W201"),
           "elastic-cycle invariants: register on every combinational "
           "cycle, a bubble and a token on every loop")
def rule_cycles(netlist):
    diags = []
    edges = _edges(netlist)
    nodes = netlist.nodes

    # E101: drop every token-registering node; a surviving cycle is purely
    # combinational.  (Dependency-graph cycles between comb nodes are fine
    # — shared<->eemux resolve by Kleene iteration — but a *channel* cycle
    # with no clock boundary can never hold a token.)
    comb_nodes = {name for name, node in nodes.items()
                  if not node.registers_tokens}
    comb_edges = [e for e in edges
                  if e[0] in comb_nodes and e[1] in comb_nodes]
    for component in _cyclic_sccs(comb_nodes, comb_edges):
        diags.append(Diagnostic(
            code="E101",
            message=(f"combinational cycle with no elastic buffer: "
                     f"{_scc_label(component)}"),
            node=component[0]))

    # E102: keep registering nodes only while they have no free token slot;
    # a surviving cycle through a full buffer can never accept the bubble
    # that would let tokens advance (deadlock by construction).
    def has_free_slot(node):
        return _capacity(node) - max(_occupancy(node), 0) >= 1

    blocked = {name for name in comb_nodes} | {
        name for name, node in nodes.items()
        if node.registers_tokens and not has_free_slot(node)
    }
    blocked_edges = [e for e in edges
                     if e[0] in blocked and e[1] in blocked]
    for component in _cyclic_sccs(blocked, blocked_edges):
        members = [nodes[name] for name in component]
        if not any(m.registers_tokens for m in members):
            continue                      # already an E101
        diags.append(Diagnostic(
            code="E102",
            message=(f"zero-bubble cycle (every buffer full): "
                     f"{_scc_label(component)}"),
            node=next(m.name for m in members if m.registers_tokens)))

    # W201: keep registering nodes only while they hold no token; a
    # surviving cycle has nothing to circulate — unless an early-evaluation
    # mux on the cycle can inject tokens from outside it.
    starved = {name for name in comb_nodes} | {
        name for name, node in nodes.items()
        if node.registers_tokens and _occupancy(node) <= 0
    }
    starved_edges = [e for e in edges
                     if e[0] in starved and e[1] in starved]
    for component in _cyclic_sccs(starved, starved_edges):
        members = [nodes[name] for name in component]
        if not any(m.registers_tokens for m in members):
            continue
        if any(isinstance(m, EarlyEvalMux) for m in members):
            continue
        diags.append(Diagnostic(
            code="W201",
            message=(f"token-free cycle (no token to circulate): "
                     f"{_scc_label(component)}"),
            node=next(m.name for m in members if m.registers_tokens)))
    return diags


# -- E103: speculation ---------------------------------------------------------


def _kill_reaches(netlist, start_channel):
    """True when an anti-token injected somewhere forward of
    ``start_channel`` can propagate back to it: BFS forward over channels,
    following each node's :meth:`~repro.elastic.node.Node.anti_token_paths`,
    until a kill site (:meth:`~repro.elastic.node.Node.kill_ports`: an
    early-evaluation mux data input or a killing sink) is found."""
    seen = set()
    frontier = [start_channel]
    while frontier:
        channel = netlist.channels.get(frontier.pop())
        if channel is None or channel.consumer is None:
            continue
        node_name, port = channel.consumer
        if (node_name, port) in seen:
            continue
        seen.add((node_name, port))
        node = netlist.nodes.get(node_name)
        if node is None:
            continue
        if port in node.kill_ports():
            return True
        for in_port, out_port in node.anti_token_paths():
            if in_port != port:
                continue
            out_channel = node._channels.get(out_port)
            if out_channel is not None:
                frontier.append(out_channel.name)
    return False


@lint_rule("speculation", ("E103",),
           "every shared-module output must reach a kill/commit point "
           "(early-evaluation mux) so mispredictions can be cancelled")
def rule_speculation(netlist):
    diags = []
    for node in netlist.nodes.values():
        if not isinstance(node, SharedModule):
            continue
        for port in node.out_ports:
            channel = node._channels.get(port)
            if channel is None:
                continue                  # E001's business
            if not _kill_reaches(netlist, channel.name):
                diags.append(Diagnostic(
                    code="E103",
                    message=(f"shared {node.name}.{port}: no kill/commit "
                             f"point reachable — a mispredicted token on "
                             f"{channel.name} can never be cancelled"),
                    node=node.name, channel=channel.name))
    return diags


# -- W202: reachability --------------------------------------------------------


@lint_rule("reachability", ("W202",),
           "every node must be forward-reachable from a token origin "
           "(a source or a token-holding buffer)")
def rule_reachability(netlist):
    edges = _edges(netlist)
    adj = _adjacency(set(netlist.nodes), edges)
    origins = [
        name for name, node in netlist.nodes.items()
        if not node.in_ports
        or (node.registers_tokens and _occupancy(node) != 0)
    ]
    reached = set(origins)
    frontier = list(origins)
    while frontier:
        for succ in adj[frontier.pop()]:
            if succ not in reached:
                reached.add(succ)
                frontier.append(succ)
    return [
        Diagnostic(
            code="W202",
            message=(f"dead node {name}: no token from any source or "
                     f"initialized buffer can ever reach it"),
            node=name)
        for name in netlist.nodes if name not in reached
    ]


# -- W203: fork/join balance ---------------------------------------------------


@lint_rule("fork-join", ("W203",),
           "a fork feeding a lazy join must reach all of its inputs "
           "(or the join starves)")
def rule_fork_join(netlist):
    diags = []
    edges = _edges(netlist)
    reverse = {name: [] for name in netlist.nodes}
    for src, dst, _ch in edges:
        reverse[dst].append(src)

    def backward_slice(node_name):
        seen = {node_name}
        frontier = [node_name]
        while frontier:
            for pred in reverse[frontier.pop()]:
                if pred not in seen:
                    seen.add(pred)
                    frontier.append(pred)
        return seen

    forks = [node for node in netlist.nodes.values()
             if isinstance(node, EagerFork)]
    if not forks:
        return diags
    for node in netlist.nodes.values():
        # Early-evaluation muxes tolerate imbalance by design (anti-tokens
        # clean up the unselected side); only lazy joins starve.  A chaos
        # splice's join waits on its side source, not on a fork: W211's
        # business.
        if (not isinstance(node, Func) or node.splice_of is not None
                or len(node.in_ports) < 2):
            continue
        slices = {}
        for port in node.in_ports:
            channel = node._channels.get(port)
            if channel is None or channel.producer is None:
                slices = None             # dangling: structure rule's business
                break
            slices[port] = backward_slice(channel.producer[0])
        if slices is None:
            continue
        for fork in forks:
            fed = [port for port, upstream in slices.items()
                   if fork.name in upstream]
            if fed and len(fed) < len(slices):
                starved = sorted(set(slices) - set(fed))
                diags.append(Diagnostic(
                    code="W203",
                    message=(f"fork {fork.name} feeds inputs "
                             f"{sorted(fed)} of join {node.name} but not "
                             f"{starved}: the join waits on tokens the "
                             f"fork never sends there"),
                    node=node.name))
    return diags


# -- W211: chaos instrumentation left behind -----------------------------------


@lint_rule("chaos", ("W211",),
           "fault-injection splices (repro.chaos) must not ship in a "
           "production netlist")
def rule_chaos(netlist):
    # Matched by marker, not by class: a chaos splice is made of ordinary
    # classes (Func joins, an empty EB, permission and mask sources), and
    # wrap sets ``splice_of`` on each node it adds.  The message names the
    # node by its ``chaos_*`` display label.
    diags = []
    for node in netlist.nodes.values():
        if node.splice_of is not None:
            diags.append(Diagnostic(
                code="W211",
                message=(f"{node.kind} node {node.name!r} of a chaos splice "
                         f"left in the design — chaos instrumentation must "
                         f"be unwrapped before shipping"),
                node=node.name))
    return diags


# -- E110 / E111: sensitivity soundness (opt-in, dynamic) ----------------------


@lint_rule("sensitivity", ("E110", "E111"),
           "execute each node's comb() under fuzzed channel states and "
           "flag reads its derived sensitivity misses and drives outside "
           "its port roles",
           default=False)
def rule_sensitivity(netlist):
    # Imported lazily: the auditor executes node code and is the one
    # expensive rule (it deep-copies the netlist); keep the static rules
    # import-light.
    from repro.lint.audit import audit_netlist

    diags = []
    for audit in audit_netlist(netlist):
        for port, signal in sorted(audit.undeclared_reads):
            diags.append(Diagnostic(
                code="E110",
                message=(f"{audit.kind} {audit.node}: comb() read "
                         f"{port}.{signal}, which the reads derived from "
                         f"it miss — a derivation bug (worklist wakeups "
                         f"will be missed)"),
                node=audit.node))
        for port, signal in sorted(audit.undeclared_writes):
            diags.append(Diagnostic(
                code="E111",
                message=(f"{audit.kind} {audit.node}: comb() drove "
                         f"{port}.{signal}, outside its port role"),
                node=audit.node))
    return diags


#: sanity: every catalog code is owned by exactly one registered rule.
_OWNED = [code for rule in RULES.values() for code in rule.codes]
assert sorted(_OWNED) == sorted(set(_OWNED)) and set(_OWNED) == set(CODES)
