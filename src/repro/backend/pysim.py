"""Compiled simulation: elaborate a netlist into straight-line Python.

The interpreted worklist engine pays Python dispatch per node
evaluation: bound-method calls into ``comb()``, attribute loads on
:class:`~repro.elastic.channel.ChannelState`, the monotone write of
:meth:`~repro.elastic.node.Node.drive`, then separate passes for the
protocol monitor, statistics and ticks.  This module removes all of it
by **elaboration**: given a netlist, it emits one specialized Python
module per *topology* in which

* every node's ``comb`` becomes **straight-line code** — the node's own
  method, rendered once per signal task derived from it
  (:meth:`~repro.elastic.node.Node.comb_tasks`) and evaluated exactly
  once per cycle, in dependency order (a computation of locals that two
  of a node's tasks share runs once, in the first of them);
* channel signals live in **flat local variables**
  (``v3``/``p3``/``a3``/``m3``/``d3`` for ``vp``/``sp``/``vm``/``sm``/
  ``data`` of channel slot 3) instead of ``ChannelState`` objects;
* every node's ``tick`` (and ``pre_cycle`` and ``set_choice``) is the
  body of the node's own method too; it, the statistics, the protocol
  monitor's screen and the observer calls are inlined into the same
  generated function.

Each method is read with :mod:`inspect` and rewritten by one :mod:`ast`
pass (:mod:`repro.sim.inline`, which derives comb's tasks in the same
pass), so no kind's behaviour is written twice and this module names no
node kind.

Two **entry points** are derived from the one scheduled cycle body —
pre-cycle hooks, the straight-line region, the screen and the ticks —
each generated into its own module and compiled only on first use:

* **run entry** — ``_cycle(cycle, n=1)`` serves plain steps and runs: a
  **run is one Python call** that loops ``n`` cycles in one frame
  (``Simulator.run``; a step is ``n=1``);
* **expansion entry** — ``_expand(cycle, snapshot, vectors)`` expands
  one explored state (``Simulator.expand``; ``step_with_choices`` is its
  one-vector case): per choice vector it restores ``snapshot`` (except
  before the first), runs the ``set_choice`` of the choosers whose
  choice space is above 1, runs the cycle body without statistics, packs the
  signals one byte per channel (``v3 | p3 << 1 | a3 << 2 | m3 << 3``,
  the encoding of :mod:`repro.verif.encoding`) in one ``bytes``
  expression and takes the successor snapshot.  The restore is one
  straight-line assignment of every declared state slot and the snapshot
  one tuple of slot reads, both over the layout
  :meth:`Netlist.snapshot <repro.netlist.graph.Netlist.snapshot>` uses
  (:func:`~repro.netlist.graph.state_layout`), so no state accessor is
  called; a node that keeps its own ``snapshot``/``restore`` is called.
  The layout joins the module cache key, since the topology leaves out a
  shared module's scheduler, which holds its state.  ``sim.cycle``
  advances by one per vector.

A sweep therefore never compiles an expansion entry, and an exploration
never compiles a run entry.  Between cycles the run entry keeps in locals
what the per-cycle design kept in objects:

* **statistics** — per-channel outcome counts are local ints, loaded from
  and stored back to one slice of ``ChannelStats.counts`` on entry and
  exit;
* **monitor history** — the Retry obligations a cycle leaves due (a
  stalled token's due cycle and data, a stalled anti-token's due cycle)
  are locals, loaded from and stored back to ``ProtocolMonitor._prev``.
  The terms are rendered from the rule table of
  :mod:`repro.verif.properties`: each cycle one short-circuit screen
  tests the Invariant, the resolution check (an offered token without
  data) and, when an obligation is due, the Retry rules; each channel's
  count records the obligations it leaves.  Only when the screen fires
  does the cycle flush its locals and hand over to
  :meth:`Simulator._check_resolved` or, after the history is written
  back, to ``ProtocolMonitor.observe``, which words the violation.  (The
  expansion entry screens only the resolution check: model-checking
  steps are unmonitored, so there is one expansion module per topology.)

Both entries handle **channel states** alike: on entry every channel is
marked unresolved (``vp = None`` on each ``ChannelState``, memoized
events dropped), so a ``Channel.events()`` call from inside a cycle (a
``Func`` or shared-module ``fn`` probing a channel) raises as it does on
the worklist engine.  The locals are flushed into the ``ChannelState``
objects once — on a run's last cycle, before its observers and ticks, or
after an expansion's last vector — and before a diagnosis.  A netlist
with a called ``tick`` (one outside the inlined subset) flushes every
cycle, since that tick reads the states, and then marks the channels
unresolved again at the start of every vector.

No step builds a :class:`~repro.elastic.channel.ChannelEvents`: a plain
step counts statistics straight from the locals, and an expansion returns
the packed signals.  A cycle that raises leaves what the same cycle
leaves when stepped: statistics and history through the previous cycle,
the cycle counter at the failing cycle, and its channels unresolved —
except for a diagnosis (:class:`~repro.errors.CombinationalLoopError`,
:class:`~repro.errors.ProtocolViolationError`), which leaves the signals
it reports on.  ``Simulator.run`` steps cycle by cycle instead when
observers are attached or ``profile=True``.

Compilation is **all or nothing**.  Every kind's ``comb`` is in the
compiled subset — buffers, joins, forks, environments (including the
permission source that a :mod:`repro.chaos` stall splices in beside a
join), the shared module, the early-evaluation mux, the variable-latency
unit and the abstract FIFO — so chaos-wrapped designs compile too.  A
netlist with a node that blocks compilation (a ``comb`` outside the
subset, or one whose task slice is refused, a port bound
to no live channel, or a task on a genuine signal-level combinational
loop) gets no cycle function at all: :func:`generated_source` returns a
banner naming those *deferred* nodes, and the simulator runs its own
interpreted worklist cycle until an edit makes the netlist compile again.

Straight-line code carries only known control values.  A control value
that depends on *data* (the early-evaluation mux's select) is unknown
while that data is: the compiled cycle then hands over to
:meth:`CodegenBackend.diagnose_unknown`, which re-runs it interpreted and
raises the worklist engine's diagnosis — or, when that re-run resolves (a
select ``fn`` that is not pure), a combinational-loop diagnosis naming
the channel's data.

The differential suite (``tests/test_codegen_diff.py``) pins the engine
bit-identical to the worklist engine, including protocol violations and
combinational-loop diagnoses, and a multi-cycle run identical to as many
steps.

Caching and staleness
---------------------

Generated modules are ``exec``-compiled once per topology and entry and
cached process-wide, keyed by the netlist **content signature** (node
names, classes, ports, derived sensitivities, channel wiring — see
:func:`repro.sim.sensitivity.topology_signature`), the code of the
nodes' inlined methods (which the signature names only by class),
the entry and, for the run entry, the ``check_protocol`` flag.  Numeric
parameters that only affect sequential behaviour (capacities, rates,
seeds, datapath functions) are deliberately *not* baked in — they are
read from the node instances at run time — so a parameter sweep over one
topology compiles exactly once.  ``build(env)`` re-binds a cached module
to a concrete simulator's nodes, channels, stats and monitor: it copies
the module-level entry function with those objects as its positional
defaults.  Every compile happens inside a :class:`CodegenBackend`
construction, which a simulator makes per entry on that entry's first use
after each structure refresh.

Structural edits (the ``NetlistEdit`` log) mark the simulator
dirty; its shared post-edit refresh, run before the next
``step``/``reset``, re-elaborates against the edited netlist —
which is a cache *hit* when the new topology has been seen before — so a
mutated design can never execute stale generated code.  A netlist whose
``version`` advanced without ``Simulator.apply_edit`` raises on ``step``,
exactly like the worklist engine.  The cache keeps the 32 most recently
used modules; an evicted topology recompiles to the same source.
:func:`cache_stats` exposes the hit / re-elaboration / eviction counters
and the cached modules per entry (CLI: ``repro elaborate``).

A compiled cycle evaluates every node exactly once, so its profiling
counters are constants, which the simulator adds itself: nothing is
woven into the generated code.

A user subclass or a :mod:`repro.chaos` mutant that overrides a method
compiles its own body: a ``tick``, ``pre_cycle`` or ``set_choice``
outside the subset is called, a ``comb`` outside it defers its node.
"""

from __future__ import annotations

import hashlib
import re
from collections import OrderedDict, deque
from functools import lru_cache, partial
from itertools import combinations

from repro.elastic.node import Node
from repro.errors import CombinationalLoopError, ProtocolViolationError
from repro.netlist.graph import state_layout, state_terms
from repro.netlist.graphalg import cyclic_sccs
from repro.sim.inline import PLACEHOLDER, node_template
from repro.sim.sensitivity import topology_signature

__all__ = [
    "ENTRIES",
    "CodegenBackend",
    "cache_stats",
    "clear_module_cache",
    "generated_source",
]

#: signal name -> local-variable prefix of a channel's signals.
_LOC = {"vp": "v", "sp": "p", "vm": "a", "sm": "m", "data": "d"}

_CONTROLS = ("vp", "sp", "vm", "sm")
_SIGNALS = _CONTROLS + ("data",)


# ---------------------------------------------------------------------------
# node methods, rendered by repro.sim.inline and filled in node by node
# ---------------------------------------------------------------------------

#: the node methods rendered into the cycle body (the module cache keys on
#: their code)
_INLINED = ("pre_cycle", "tick", "set_choice", "comb")


def _claims(taken, node, method, template):
    """Whether ``template`` (None outside the subset, its text None for a
    refused comb slice) binds its module globals under their own names: no
    other node's global of a name it uses is bound (``taken``: name ->
    object, updated)."""
    if template is None or template.text is None:
        return False
    space = getattr(type(node), method).__globals__
    return not any(taken.setdefault(name, space[name]) is not space[name]
                   for name in template.globals)


def _filled(g, ni, node, method, template, text):
    """``text``, a part of node ``ni``'s ``method`` template, filled in for
    the node; binds the template's module globals."""
    for name in template.globals:
        g.bind[f"_g_{name}"] = \
            f"type(_nodes[{ni}]).{method}.__globals__[{name!r}]"
    ref = g.node_ref(ni)
    return PLACEHOLDER.sub(
        lambda m: ref if m[1] is None else g.sig(node, m[1], m[2]), text)


def _sequential(g, ni, node, method, arg=None):
    """``(lines, inlined)``: node ``ni``'s ``method`` in the cycle body,
    its body inlined or, outside the subset, one call of it."""
    template = node_template(node, method, arg)
    if not _claims(g.plan.globals, node, method, template):
        name = f"_{method[0]}{ni}"
        g.bind[name] = f"_nodes[{ni}].{method}"
        return [f"{name}({arg or ''})"], False
    text = template.text
    if method == "tick" and ni in g.plan.combs:
        heads = {expr: name for name, expr in g.plan.combs[ni].head}
        text = _ASSIGNMENT.sub(lambda m: m[1] + heads.get(m[2], m[2]), text)
    return _filled(g, ni, node, method, template, text).splitlines(), True


#: a top-level assignment of a tick: a value that is one of its node's comb
#: per-cycle expressions reads that local
_ASSIGNMENT = re.compile(r"^(\w+ = )(.*)$", re.M)


# ---------------------------------------------------------------------------
# elaboration plan
# ---------------------------------------------------------------------------


class _Plan:
    """Structural classification of one netlist for code generation."""

    __slots__ = (
        "nodes", "channels", "port_channel", "task_order", "deferred",
        "pre_cycles", "choosers", "ticks", "combs", "globals",
    )


def _build_plan(netlist):
    """Schedule ``netlist``'s signal tasks into ``plan.task_order``.

    ``plan.deferred`` lists, by index, the nodes that block compilation: a
    node whose ``comb`` does not render, a port
    bound to no live channel, a read no task produces, or a task on a
    signal-level cycle.  When it is non-empty nothing is scheduled and no
    cycle function is generated.  ``plan.combs`` maps every other node to
    its comb template.
    """
    plan = _Plan()
    nodes = plan.nodes = list(netlist.nodes.values())
    channels = plan.channels = list(netlist.channels.values())
    chan_idx = {ch.name: ci for ci, ch in enumerate(channels)}
    plan.pre_cycles = [ni for ni, node in enumerate(nodes)
                       if type(node).pre_cycle is not Node.pre_cycle]
    plan.choosers = [ni for ni, node in enumerate(nodes)
                     if type(node).choice_space is not Node.choice_space]
    plan.ticks = [ni for ni, node in enumerate(nodes)
                  if type(node).tick is not Node.tick]
    plan.task_order = []
    plan.combs = {}
    plan.globals = {}     # module global bound as _g_<name> -> object
    deferred = plan.deferred = []

    port_channel = plan.port_channel = {}
    tasks = []
    for ni, node in enumerate(nodes):
        comb = node_template(node, "comb")
        ok = _claims(plan.globals, node, "comb", comb)
        for port in node.ports:
            ch = node._channels.get(port)
            ci = None if ch is None else chan_idx.get(ch.name)
            if ci is None or channels[ci] is not ch:
                ok = False
                continue
            port_channel[(node.name, port)] = ci
        if ok:
            plan.combs[ni] = comb
            tasks += [(ni, reads, writes, text)
                      for (reads, writes), text in zip(comb.tasks, comb.text)]
        else:
            deferred.append(ni)
    if deferred:
        return plan

    # Tasks are wired by (channel, signal) and topologically sorted.
    # Scheduling happens per task, not per node: elastic control is
    # acyclic signal-to-signal even where it is cyclic node-to-node (a ZBL
    # chain: the buffer reads downstream sp/vm, the downstream join reads
    # its vp).
    produced = {}
    for t, (ni, reads, writes, text) in enumerate(tasks):
        for port, sig in writes:
            produced[(port_channel[(nodes[ni].name, port)], sig)] = t
    indeg = [0] * len(tasks)
    adj = [[] for _ in tasks]
    starved = set()
    for t, (ni, reads, writes, text) in enumerate(tasks):
        for port, sig in reads:
            src = produced.get((port_channel[(nodes[ni].name, port)], sig))
            if src is None:
                starved.add(ni)
            else:
                adj[src].append(t)
                indeg[t] += 1
    if starved:
        deferred += sorted(starved)
        return plan
    scheduled = []
    ready = deque(t for t in range(len(tasks)) if indeg[t] == 0)
    while ready:
        t = ready.popleft()
        scheduled.append(t)
        for j in adj[t]:
            indeg[j] -= 1
            if indeg[j] == 0:
                ready.append(j)
    if len(scheduled) < len(tasks):
        deferred += sorted({tasks[t][0]
                            for component in cyclic_sccs(range(len(tasks)), adj)
                            for t in component})
        return plan
    plan.task_order = [tasks[t] for t in scheduled]
    return plan


# ---------------------------------------------------------------------------
# source generation
# ---------------------------------------------------------------------------


class _Gen:
    """Binding/naming context shared by the rendered node methods."""

    def __init__(self, plan):
        self.plan = plan
        self.bind = {}        # default-arg name -> build-scope expression
        self.covered = set()  # (ci, control) unconditionally assigned
        self.cycle_locals = {}  # local name -> expression, once per cycle

    def per_cycle(self, name, expr):
        """``name``, a local assigned ``expr`` once per cycle, after the
        pre-cycle hooks (and an expansion's choices)."""
        self.cycle_locals[name] = expr
        return name

    def node_ref(self, ni):
        name = f"_n{ni}"
        self.bind[name] = f"_nodes[{ni}]"
        return name

    def state_ref(self, ci):
        name = f"_c{ci}"
        self.bind[name] = f"_channels[{ci}].state"
        return name

    def chan_ref(self, ci):
        name = f"_h{ci}"
        self.bind[name] = f"_channels[{ci}]"
        return name

    def sig(self, node, port, signal):
        return self.csig(self.plan.port_channel[(node.name, port)], signal)

    def csig(self, ci, signal):
        return f"{_LOC[signal]}{ci}"

    def cover(self, node, pairs):
        for port, signal in pairs:
            self.covered.add((self.plan.port_channel[(node.name, port)], signal))


def _chunk_chain(targets, value, size=10):
    """`a = b = ... = value` statements in chunks of ``size`` targets."""
    lines = []
    for i in range(0, len(targets), size):
        lines.append(" = ".join(targets[i:i + size]) + f" = {value}")
    return lines


def _wrapped(items, head, tail, size=12, indent="    "):
    """``head + ", ".join(items) + tail`` over lines of ``size`` items,
    continuation lines indented by ``indent``."""
    rows = [", ".join(items[i:i + size])
            for i in range(0, len(items), size)] or [""]
    lines = [head + rows[0]] + [indent + row for row in rows[1:]]
    lines[:-1] = [line + "," for line in lines[:-1]]
    lines[-1] += tail
    return lines


#: the due-cycle local of each Retry rule's obligation, in rule order; the
#: rule that holds data keeps it in ``r<slot>``
_DUE = "wu"

#: ``ChannelStats.observe``'s classification of one channel: nested
#: ``(test, then, else)`` with ``(signal, asserted)`` literal tests and
#: the local count at each leaf
_COUNT_TREE = ([("vp", 1)], ([("vm", 1)], "k", ([("sp", 1)], "s", "t")),
               ([("vm", 1), ("sm", 0)], "b", "i"))


def _checked(ci, exempt):
    """``(due local, rule)`` of each Retry rule the monitor checks on
    channel slot ``ci`` (``exempt``: the Retry+-exempt slots, None without
    a monitor)."""
    from repro.verif.properties import RETRY

    return [(due, rule) for due, rule in zip(_DUE, RETRY)
            if exempt is not None and not (rule.exempt and ci in exempt)]


def _holds(b, lits):
    """Whether the packed channel byte ``b`` satisfies every literal."""
    return all((b >> _CONTROLS.index(name) & 1) == on for name, on in lits)


def _count_block(ci, rules):
    """Channel ``ci``'s outcome this cycle (an exact mirror of
    ``ChannelStats.observe``) counted in local ints: ``t``/``k``/``s``/
    ``b``/``i`` for transfers, cancellations, stalls, backward moves and
    idles.  A count also records the obligations of ``rules``
    (:func:`_checked`) its bytes leave due at the next cycle (``cycle``
    has advanced already): the due cycle, raising the screen's ``_due``,
    and the data a rule holds.  The block differs between channels only
    in the slot index, so it is rendered once per rule set
    (:func:`_count_template`) and the index substituted."""
    return [line.replace(_SLOT, str(ci))
            for line in _count_template(tuple(rules))]


#: the slot index placeholder in a :func:`_count_template` line
_SLOT = "{ci}"


@lru_cache(maxsize=None)
def _count_template(rules):
    """:func:`_count_block`'s lines for ``rules``, with :data:`_SLOT` in
    place of the slot index."""
    return tuple(_count_lines(rules))


def _count_lines(rules, tree=_COUNT_TREE, within=range(16)):
    """The count block's lines ``within`` the packed bytes reaching
    ``tree``.  An obligation is recorded under the fewest of its rule's
    literals that single out the bytes leaving it due."""
    from repro.verif.properties import conjunction, literals

    def signal(name):
        return f"{_LOC[name]}{_SLOT}"

    if isinstance(tree, str):
        lines = [f"{tree}{_SLOT} += 1"]
        for due, rule in rules:
            pattern = literals(rule.mask, rule.value)
            hit = [b for b in within if _holds(b, pattern)]
            if not hit:
                continue
            guard = next(lits for n in range(len(pattern) + 1)
                         for lits in combinations(pattern, n)
                         if [b for b in within if _holds(b, lits)] == hit)
            record = [f"_due = {due}{_SLOT} = cycle"]
            record += [f"r{_SLOT} = {signal('data')}"] * bool(rule.data)
            if guard:
                record = [f"if {conjunction(guard, signal)}:"] + _indent(record)
            lines += record
        return lines
    lines, keyword = [], "if"
    while not isinstance(tree, str):
        test, then, tree = tree
        lines.append(f"{keyword} {conjunction(test, signal)}:")
        lines += _indent(_count_lines(rules, then, [
            b for b in within if _holds(b, test)]))
        within = [b for b in within if not _holds(b, test)]
        keyword = "elif"
    return lines + ["else:"] + _indent(_count_lines(rules, tree, within))


def _screen(g, n_channels, exempt):
    """The per-cycle screen: true exactly when the resolution check or,
    under a monitor (``exempt`` is not None), ``ProtocolMonitor.observe``
    would raise.  Per channel: the rule table's Invariant test and an
    offered token without data; then, only when some Retry obligation is
    ``_due`` this cycle, each obligation due and broken (its held signal
    dropped or, for a rule that holds data, the data changed)."""
    from repro.verif.properties import invariant_test, retry_test

    terms, retry = [], []
    for ci in range(n_channels):
        signal = partial(g.csig, ci)
        term = f"{signal('vp')} and {signal('data')} is None"
        if exempt is not None:
            term = f"{invariant_test(signal)} or {term}"
        terms.append(term)
        retry += [f"{due}{ci} == cycle and "
                  + retry_test(rule, signal, f"r{ci}")
                  for due, rule in _checked(ci, exempt)]
    if not terms:
        return ["_bad = False"]
    lines = ["_bad = (", "    " + terms[0]]
    lines += ["    or " + term for term in terms[1:]]
    if retry:
        lines.append("    or _due == cycle and (")
        lines.append("        " + retry[0])
        lines += ["        or " + term for term in retry[1:]]
        lines.append("    )")
    lines.append(")")
    return lines


def _indent(lines, depth=1):
    """``lines`` indented by ``depth`` levels of four spaces."""
    pad = "    " * depth
    return [pad + ln for ln in lines]


def _generate_source(netlist, check_protocol, content_hash, entry):
    """The module source of ``entry`` (see :data:`ENTRIES`) for
    ``netlist``: a ``build(env)`` returning the compiled function, or
    only the banner (naming the deferred nodes) when the netlist does not
    compile.

    Both entries loop the same cycle body: pre-cycle hooks, the
    per-cycle locals heading the nodes' combs (:meth:`_Gen.per_cycle`), the
    straight-line region in scheduled signal-task order (a computation
    two tasks of one node share placed in the first of them), the screen
    and the ticks, with channel signals in locals that reach the
    ``ChannelState`` objects only at a flush."""
    plan = _build_plan(netlist)
    nodes, channels = plan.nodes, plan.channels
    lines = [
        f"# generated by repro.backend.pysim — topology {content_hash}",
        f"# netlist {netlist.name!r}: {len(nodes)} nodes, {len(channels)} "
        f"channels, {len(plan.deferred)} deferred",
        f"# flags: check_protocol={bool(check_protocol)}, entry={entry}",
    ]
    if plan.deferred:
        names = ", ".join(nodes[ni].name for ni in plan.deferred)
        lines.append(f"# not compiled (runs interpreted); deferred: {names}")
        return "\n".join(lines) + "\n"
    g = _Gen(plan)
    chans = range(len(channels))

    # -- the cycle body: pre-cycle hooks (freeze randomized / nondet
    # -- decisions), the per-cycle locals (a shared module's prediction),
    # -- data locals unknown (data writes are conditional), then the
    # -- straight-line region in scheduled signal-task order
    pre = []
    for ni in plan.pre_cycles:
        pre += _sequential(g, ni, nodes[ni], "pre_cycle")[0]
    for ni, comb in plan.combs.items():
        for name, expr in comb.head:
            g.per_cycle(*(_filled(g, ni, nodes[ni], "comb", comb, text)
                          for text in (name, expr)))
    region = _chunk_chain([g.csig(ci, "data") for ci in chans], "None")
    computed = set()      # (node, key) of the shared chunks placed
    for ni, reads, writes, chunks in plan.task_order:
        node = nodes[ni]
        region.append(f"# {node.name} ({node.kind})")
        for key, text in chunks:
            if key is None or (ni, key) not in computed:
                computed.add((ni, key))
                region += _filled(g, ni, node, "comb", plan.combs[ni],
                                  text).splitlines()
        g.cover(node, [(p, s) for p, s in writes if s != "data"])
    if any("_udiag(" in line for line in region):
        g.bind["_udiag"] = 'env["diagnose_unknown"]'
    body = pre + [f"{name} = {expr}" for name, expr in g.cycle_locals.items()]
    body += region

    # -- the clock edge; a called tick reads the channel states, so its
    # -- netlist flushes them every cycle
    ticks = []
    interpreted_tick = False
    for ni in plan.ticks:
        node = nodes[ni]
        code, inlined = _sequential(g, ni, node, "tick")
        ticks += [f"# tick {node.name} ({node.kind})", *code]
        interpreted_tick |= not inlined

    # -- every channel unresolved (no memoized events, vp unknown) until
    # -- the flush, so a Channel.events() call inside a cycle raises
    unresolve = _chunk_chain(
        [f"{g.chan_ref(ci)}.events_cache" for ci in chans], "None")
    unresolve += _chunk_chain([f"{g.state_ref(ci)}.vp" for ci in chans],
                              "None")
    flush = ["; ".join(f"{g.state_ref(ci)}.{s} = {_LOC[s]}{ci}"
                       for s in _SIGNALS) for ci in chans]

    if entry == "run":
        exempt = None
        if check_protocol:
            from repro.verif.properties import retry_exempt_channels

            exempt_names = retry_exempt_channels(netlist)
            exempt = {ci for ci in chans
                      if channels[ci].name in exempt_names}
        fn, signature, defaults, source = _run_entry(
            g, body, ticks, unresolve, flush, exempt, interpreted_tick)
    else:
        fn, signature, defaults, source = _expand_entry(
            g, body, ticks, unresolve, flush, interpreted_tick,
            _state_access(g, netlist))

    # -- audit: every channel's four controls must be written
    # -- unconditionally by the straight-line region
    for ci in chans:
        for sig in _CONTROLS:
            if (ci, sig) not in g.covered:
                raise AssertionError(
                    f"pysim elaboration bug: {channels[ci].name}.{sig} is not "
                    "unconditionally driven by the straight-line region"
                )

    # the entry is a module-level function; build() rebinds its code to
    # one simulator's objects, passed as positional defaults in g.bind order
    names = [f"{name}={value}" for name, value in defaults.items()]
    exprs = list(defaults.values())
    for name, expr in g.bind.items():
        names.append(f"{name}=None")
        exprs.append(expr)
    lines += ["from types import FunctionType", "", ""]
    lines += _wrapped(signature + names, f"def {fn}(", "):", 6,
                      indent=" " * 8)
    lines += ["    " + ln if ln else "" for ln in source]
    lines += [
        "",
        "",
        "def build(env):",
        '    _nodes = env["nodes"]',
        '    _channels = env["channels"]',
        '    _stats = env["stats"]',
        '    _mon = env["monitor"]',
        f"    return FunctionType({fn}.__code__, globals(), {fn!r}, (",
    ]
    lines += _wrapped(exprs, " " * 8, ",", 4, indent=" " * 8)
    lines += ["    ))", ""]
    return "\n".join(lines)


#: default-argument bindings both entries use
_ENV_BINDINGS = {"_sim": 'env["sim"]', "_diag": 'env["diagnose"]',
                 "_unres": 'env["unresolve"]', "_keep": 'env["keep"]'}


def _run_entry(g, body, ticks, unresolve, flush, exempt, interpreted_tick):
    """``_cycle(cycle, n=1)``: plain steps and runs.  It loops ``n``
    cycles from ``cycle`` in one frame; statistics counts and the
    monitor's Retry obligations (under a monitor: ``exempt`` is then the
    set of Retry+-exempt channel slots) live in locals, loaded on entry
    and written back once, on every way out.  The locals are flushed on
    the last cycle (before its observers and ticks) and before a
    diagnosis when the screen fires.  Returns the function name, its
    parameters, its defaulted parameters and its body."""
    n_channels = len(g.plan.channels)
    chans = range(n_channels)
    monitored = exempt is not None
    history = [name for ci in chans for due, rule in _checked(ci, set())
               for name in (f"{due}{ci}", f"r{ci}")[:1 + bool(rule.data)]]
    # ChannelStats.counts order: transfers, cancels, stalls, backwards, idles
    counters = [f"{x}{ci}" for ci in chans for x in "tksbi"]
    n_counts = len(counters)

    src = ["_end = cycle + n", "_last = _end - 1"]
    src += _wrapped(counters, "(", f") = _cnt[:{n_counts}]")
    if monitored:
        src += _wrapped(history, "(", ") = _hist")
        src.append("_due = cycle")
    src += unresolve

    loop = list(body)
    loop += _screen(g, n_channels, exempt)
    loop.append("if True:" if interpreted_tick else
                "if _bad or cycle == _last:")
    loop += _indent(flush)
    loop += ["    if _bad:", "        _diag(cycle)"]
    if monitored:
        # the violation is reported after the history write-back
        loop.append("        break")
    loop += ["    for _o in _sim.observers:", "        _o.observe(cycle, _net)"]
    loop += ticks
    loop.append("cycle += 1")
    for ci in chans:
        loop += _count_block(ci, _checked(ci, exempt))
    loop += ["if cycle == _end:", "    break"]

    # -- exit: a raising cycle leaves the channels unresolved, except for a
    # -- diagnosis, which reports on the settled signals
    src += ["try:", "    while True:"] + _indent(loop, 2)
    src += ["except _keep:", "    raise", "except BaseException:",
            "    _unres()", "    raise", "finally:",
            "    _stats.cycles += cycle - _end + n"]
    src += _indent(_wrapped(counters, f"_cnt[:{n_counts}] = (", ")"))
    if monitored:
        src += _indent(_wrapped(history, "_hist[:] = (", ")"))
    src.append("    _sim.cycle = cycle")
    if monitored:
        src += [
            "if cycle != _end:",
            "    _mon.observe(cycle)",
            "    raise AssertionError('pysim: protocol screen fired "
            "without a violation')",
        ]
    g.bind.update(_ENV_BINDINGS)
    g.bind.update({"_stats": "_stats", "_cnt": "_stats.counts",
                   "_net": 'env["netlist"]'})
    if monitored:
        g.bind.update({"_mon": "_mon", "_hist": "_mon._prev"})
    return "_cycle", ["cycle"], {"n": "1"}, src


def _state_access(g, netlist):
    """The netlist's state layout (:func:`~repro.netlist.graph.state_layout`)
    as the expansion entry's source terms ``(reads, targets, calls)``
    (:func:`~repro.netlist.graph.state_terms`): a holder that is its node
    is read through the node's binding, another one (a shared module's
    scheduler) through its own, ``_sh<node index>``."""
    index = {name: ni for ni, name in enumerate(netlist.nodes)}
    names = sorted(netlist.nodes)
    holders, layout = state_layout([netlist.nodes[n] for n in names])
    refs = []
    for name, holder in zip(names, holders):
        ni = index[name]
        if holder is g.plan.nodes[ni]:
            refs.append(g.node_ref(ni))
        else:
            refs.append(f"_sh{ni}")
            g.bind[refs[-1]] = f"_nodes[{ni}].state_host()"
    return state_terms(layout, refs, "_st")


def _state_key(netlist):
    """What the expansion entry's inlined state access depends on beyond
    the topology: the state layout and which holders are their nodes."""
    nodes = [node for _name, node in sorted(netlist.nodes.items())]
    holders, layout = state_layout(nodes)
    return layout, tuple(h is n for h, n in zip(holders, nodes))


def _expand_entry(g, body, ticks, unresolve, flush, interpreted_tick,
                  state):
    """``_expand(cycle, snapshot, vectors)``: one explored state.  For
    each ``(vector, choices)`` of ``vectors`` (``vector`` holds one value
    per chooser, None where its space is 1) it restores ``snapshot``
    (except before the first), sets the choices, runs the cycle body
    without statistics or monitor and appends ``(choices, packed signals,
    successor snapshot)`` to the returned list; ``sim.cycle`` advances by
    one per vector.  The restore and the successor snapshot are
    straight-line slot assignments and reads over ``state``, the
    ``(reads, targets, calls)`` of :func:`_state_access` (a node that
    keeps its own snapshot is called).  Channel states are flushed once,
    after the last vector, and before a diagnosis — every vector under an
    interpreted tick (which reads them).  Returns as :func:`_run_entry`
    does."""
    n_channels = len(g.plan.channels)
    chans = range(n_channels)
    reads, targets, calls = state
    src = ["_out = []"]
    if not interpreted_tick:
        src += unresolve

    loop = []
    if targets:
        loop += ["if _i:"]
        loop += _indent(_wrapped(targets, "(", ",) = snapshot", 4) + calls)
    xs = [f"_x{k}" for k in range(len(g.plan.choosers))]
    if xs:
        loop += _wrapped(xs, "(", ",) = _vec")
    for x, ni in zip(xs, g.plan.choosers):
        code = _sequential(g, ni, g.plan.nodes[ni], "set_choice", x)[0]
        if code:
            loop += [f"if {x} is not None:"] + _indent(code)
    if interpreted_tick:
        loop += unresolve
    loop += body
    loop += _screen(g, n_channels, None)
    if interpreted_tick:
        loop += flush + ["if _bad:", "    _diag(cycle)"]
    else:
        loop += ["if _bad:"] + _indent(flush) + ["    _diag(cycle)"]
    loop += ticks
    loop.append("_out.append((_ch, bytes((")
    for ci in chans:
        vp, sp, vm, sm = (g.csig(ci, s) for s in _CONTROLS)
        loop.append(f"    {vp} | {sp} << 1 | {vm} << 2 | {sm} << 3,")
    loop += (_wrapped(reads, ")), (", ",)))", 4) if reads
             else [")), ()))"])
    loop.append("cycle += 1")

    src += ["try:", "    for _i, (_vec, _ch) in enumerate(vectors):"]
    src += _indent(loop, 2)
    src += ["except _keep:", "    raise", "except BaseException:",
            "    _unres()", "    raise", "finally:", "    _sim.cycle = cycle"]
    if not interpreted_tick and n_channels:
        src += ["if _out:"] + _indent(flush)
    src.append("return _out")
    g.bind.update(_ENV_BINDINGS)
    return "_expand", ["cycle", "snapshot", "vectors"], {}, src


# ---------------------------------------------------------------------------
# module cache
# ---------------------------------------------------------------------------


class CompiledModule:
    """One exec-compiled module for one (topology, flags, entry) key;
    ``build`` is None when the netlist does not compile (the source is
    then only the banner naming the deferred nodes)."""

    __slots__ = ("source", "build", "content_hash")

    def __init__(self, source, build, content_hash):
        self.source = source
        self.build = build
        self.content_hash = content_hash


#: The generated entry points: ``run`` serves plain steps and runs,
#: ``expand`` expands explored states (and model-checking steps).
ENTRIES = ("run", "expand")

#: Most modules kept at once: a long-lived process (``repro serve``, a
#: chaos soak) meets a new topology per chaos wrap, and each module holds
#: a few hundred KB; one ``sweep.codegen`` round compiles 5.
_MODULE_CACHE_SIZE = 32
_MODULE_CACHE = OrderedDict()      # least recently used first
_CACHE_STATS = {"hits": 0, "misses": 0, "evictions": 0}


def _module_for(netlist, check_protocol, entry):
    if entry not in ENTRIES:
        raise ValueError(f"unknown entry {entry!r}; choose from {ENTRIES}")
    # the monitor checks runs only, so there is one expansion module per
    # topology
    check_protocol = bool(check_protocol) and entry == "run"
    topology = (topology_signature(netlist), check_protocol)
    # the topology names classes, but the inlined code is their methods'
    # (and, for the expansion, the state access: a shared module's
    # scheduler is a sequential parameter the topology leaves out)
    key = topology + (tuple(
        getattr(getattr(type(node), name), "__code__", None)
        for node in netlist.nodes.values() for name in _INLINED),)
    if entry == "expand":
        key += (_state_key(netlist),)
    key += (entry,)
    module = _MODULE_CACHE.get(key)
    if module is not None:
        _CACHE_STATS["hits"] += 1
        _MODULE_CACHE.move_to_end(key)
        return module
    _CACHE_STATS["misses"] += 1
    content_hash = hashlib.sha256(repr(topology).encode()).hexdigest()[:16]
    source = _generate_source(netlist, check_protocol, content_hash, entry)
    namespace = {}
    exec(compile(source, f"<pysim:{content_hash}:{entry}>", "exec"),
         namespace)
    module = CompiledModule(source, namespace.get("build"), content_hash)
    _MODULE_CACHE[key] = module
    if len(_MODULE_CACHE) > _MODULE_CACHE_SIZE:
        _MODULE_CACHE.popitem(last=False)
        _CACHE_STATS["evictions"] += 1
    return module


def generated_source(netlist, check_protocol=True, entry="run"):
    """The generated module source of ``entry`` for ``netlist``
    (compiling and caching it if this topology's entry has not been
    elaborated yet) — the inspection aid behind ``repro elaborate``.  A
    netlist that does not compile yields only the banner, which names its
    deferred nodes.  ``check_protocol`` applies to the run entry only."""
    netlist.validate()
    return _module_for(netlist, check_protocol, entry).source


def cache_stats():
    """Process-wide module-cache counters: ``hits`` (reused modules),
    ``re_elaborations`` (actual codegen+compile runs), ``modules``
    (currently cached, at most ``_MODULE_CACHE_SIZE``), ``evictions``
    (least recently used modules dropped to stay within that bound) and
    ``modules_by_entry`` (the cached modules per entry point)."""
    by_entry = dict.fromkeys(ENTRIES, 0)
    for key in _MODULE_CACHE:
        by_entry[key[-1]] += 1
    return {
        "hits": _CACHE_STATS["hits"],
        "re_elaborations": _CACHE_STATS["misses"],
        "modules": len(_MODULE_CACHE),
        "evictions": _CACHE_STATS["evictions"],
        "modules_by_entry": by_entry,
    }


def clear_module_cache():
    """Drop every cached module and zero the counters (test hygiene)."""
    _MODULE_CACHE.clear()
    for counter in _CACHE_STATS:
        _CACHE_STATS[counter] = 0


# ---------------------------------------------------------------------------
# runtime backend (the engine="codegen" elaborator of Simulator)
# ---------------------------------------------------------------------------


class CodegenBackend:
    """Elaborates one entry point (:data:`ENTRIES`) of one
    :class:`~repro.sim.engine.Simulator`'s netlist.

    The simulator owns everything engine-independent — stats, monitor,
    observers, the cycle counter, edit bookkeeping, ``reset``, choice
    listing, the loop diagnosis and evaluation counts — and calls
    :attr:`fn` in place of its interpreted cycle: ``fn(cycle, n=1)`` for
    the ``run`` entry, ``fn(cycle, snapshot, vectors)`` for ``expand``.
    Construction binds the entry's module for the simulator's current
    topology, compiling it on a cache miss, so every compile happens
    inside a construction; the simulator constructs each entry on first
    use after a structure refresh (see the module docstring on caching
    and staleness).  :attr:`fn` is None when the netlist does not compile,
    and the simulator then runs its interpreted worklist cycle.
    """

    def __init__(self, sim, entry="run"):
        self.sim = sim
        module = _module_for(sim.netlist, sim.monitor is not None, entry)
        self.fn = None if module.build is None else module.build({
            "nodes": sim._nodes,
            "channels": sim._channels,
            "stats": sim.stats,
            "monitor": sim.monitor,
            "sim": sim,
            "netlist": sim.netlist,
            "diagnose": sim._check_resolved,
            "diagnose_unknown": self.diagnose_unknown,
            "unresolve": self.unresolve,
            "keep": (CombinationalLoopError, ProtocolViolationError),
        })

    def unresolve(self):
        """Mark every channel unresolved (signals unknown, no memoized
        events): what a compiled cycle that raised leaves behind."""
        for channel in self.sim._channels:
            channel.clear_cycle()

    def diagnose_unknown(self, cycle, local):
        """Raise the worklist engine's combinational-loop diagnosis for
        cycle ``cycle``, which the straight-line code cannot finish
        because a control value depends on the data local ``local``
        (``d<slot>``), unknown: re-run every node's interpreted ``comb()``
        from cleared channels, pass after pass until one leaves the change
        log empty, then check resolution — same unresolved signals, same
        cycle.  A re-run that resolves everything (an impure ``fn``
        returned data the second time) still raises, naming the data the
        compiled cycle found unknown."""
        sim = self.sim
        for channel in sim._channels:
            channel.clear_cycle()
        log = sim._log
        while True:
            log.clear()
            for node in sim._nodes:
                node.comb()
            if not log:
                break
        sim._check_resolved(cycle)
        select = sim._channels[int(local[1:])].name
        raise CombinationalLoopError([f"{select}.data"], cycle=cycle)
