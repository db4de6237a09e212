"""Compiled simulation: elaborate a netlist into straight-line Python.

The interpreted worklist engine pays Python dispatch per node
evaluation: bound-method calls into ``comb()``, attribute loads on
:class:`~repro.elastic.channel.ChannelState`, the monotone
``state.set`` funnel, then separate passes for the protocol monitor,
statistics and ticks.  This module removes all of it by **elaboration**:
given a netlist, it emits one specialized Python module per *topology*
in which

* every node's ``comb`` becomes **straight-line code** — each kind's
  kernel is split into signal tasks, inlined by a per-kind emitter and
  evaluated exactly once per cycle, in dependency order;
* channel signals live in **flat local variables**
  (``v3``/``p3``/``a3``/``m3``/``d3`` for ``vp``/``sp``/``vm``/``sm``/
  ``data`` of channel slot 3) instead of ``ChannelState`` objects;
* every node's ``tick`` (and ``pre_cycle`` and ``set_choice``) is the
  body of the node's own method, read with :mod:`inspect` and rewritten
  by one :mod:`ast` pass; it, the statistics, the protocol monitor's
  screen and the observer calls are inlined into the same generated
  function.

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
  expression and takes the successor snapshot.  ``sim.cycle`` advances
  by one per vector.

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

Compilation is **all or nothing**.  Every kind of the paper's designs has
comb emitters — buffers, joins, forks, environments (including the
permission source that a :mod:`repro.chaos` stall splices in beside a
join), the shared module, the early-evaluation mux and the
variable-latency unit — so chaos-wrapped designs compile too.  A netlist
with a node that blocks compilation (a subclass that overrides ``comb``,
:class:`~repro.elastic.fifo_model.AbstractElasticFifo`, a port bound to
no live channel, or a task on a genuine signal-level combinational loop)
gets no cycle function at all: :func:`generated_source` returns a banner
naming those *deferred* nodes, and the simulator runs its own interpreted
worklist cycle until an edit makes the netlist compile again.

Straight-line code carries only known control values.  The one kernel
whose control depends on *data* is the early-evaluation mux: an offered
select with unknown data leaves its decision unknown, so the compiled
mux hands the cycle to :meth:`CodegenBackend.diagnose_unknown`, which
re-runs it interpreted and raises the worklist engine's diagnosis — or,
when that re-run resolves (a select ``fn`` that is not pure), a
combinational-loop diagnosis naming the select channel's data.

The differential suite (``tests/test_codegen_diff.py``) pins the engine
bit-identical to the worklist engine, including protocol violations and
combinational-loop diagnoses, and a multi-cycle run identical to as many
steps.

Caching and staleness
---------------------

Generated modules are ``exec``-compiled once per topology and entry and
cached process-wide, keyed by the netlist **content signature** (node
names, classes, ports, declared sensitivities, channel wiring — see
:func:`repro.sim.sensitivity.topology_signature`), the code of the
nodes' sequential methods (which the signature names only by class),
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

Comb emitters are trusted by definition site: a per-kind emitter is used
only for node classes whose ``comb`` is *defined by* the class the
emitter was written against — a subclass overriding ``comb`` is deferred.
Comb emitters also need the declared tasks they were written for: a
subclass that overrides ``comb_tasks`` below the class defining its
``comb`` is deferred too, so it runs interpreted on exactly the
sensitivity it declares.  ``tick``, ``pre_cycle`` and ``set_choice``
need no trust rule: a user subclass or a :mod:`repro.chaos` mutant that
overrides one compiles its own method body, or calls it (see
:class:`_Inline`); the body alone decides.
"""

from __future__ import annotations

import ast
import hashlib
import inspect
import re
import textwrap
from collections import OrderedDict, deque
from functools import lru_cache, partial
from itertools import combinations

from repro.core.shared import SharedModule
from repro.elastic.buffers import ElasticBuffer, ZeroBackwardLatencyBuffer
from repro.elastic.eemux import EarlyEvalMux
from repro.elastic.environment import (
    KillerSink,
    NondetChoiceSource,
    NondetSink,
    NondetSource,
    PermissionSource,
    Sink,
    _SourceBase,
)
from repro.elastic.fork import EagerFork
from repro.elastic.functional import Func
from repro.elastic.node import Node
from repro.elastic.varlat import VariableLatencyUnit
from repro.errors import (
    CombinationalLoopError,
    ProtocolViolationError,
    SchedulerError,
)
from repro.netlist.graphalg import cyclic_sccs
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


def _definer(cls, attr):
    """The class in ``cls``'s MRO that defines ``attr`` (None if absent)."""
    for k in cls.__mro__:
        if attr in k.__dict__:
            return k
    return None


# ---------------------------------------------------------------------------
# per-kind code emitters
#
# Each kind's comb() is split into *signal tasks*, declared once on the
# node class by Node.comb_tasks(): (reads, writes) pairs of (port, signal).
# The same declaration gives the worklist engine its wake-up sets
# (Node.comb_reads() is the union of the task reads).  Here each task gets
# one emitter (_COMB_EMITTERS, in comb_tasks() order), which appends
# straight-line statements computing exactly what the kernel drives for
# the task's writes, via g.sig(node, port, signal) (a flat local of the
# bound channel).  Scheduling happens at
# task granularity because that is where elastic control is acyclic: a ZBL
# chain is cyclic node-to-node (the buffer reads downstream sp/vm, the
# downstream join reads its vp) but acyclic signal-to-signal (vp/data flow
# forward, sp/vm flow backward) — exactly the structure the worklist engine
# discovers dynamically, resolved statically here.
#
# Every control signal listed in a task's writes MUST be assigned
# unconditionally (the elaborator audits this); data writes are conditional,
# mirroring drive()'s None no-op.  Tasks may not share scratch state — each
# recomputes what it needs (locals with a leading underscore, which can
# never collide with channel locals, and must not reuse a name an entry
# binds as a default, such as _cnt for the statistics counts).
# ---------------------------------------------------------------------------


def _comb_source(g, ni, node, out):
    n = g.node_ref(ni)
    out += [
        f"if not {n}._offering and {n}._pending_start:",
        f"    _v = {n}._next_value()",
        "    if _v is not None:",
        f"        {n}._offering = True",
        f"        {n}._value = _v",
        f"    {n}._pending_start = False",
        f"{g.sig(node, 'o', 'vp')} = {n}._offering",
        f"if {n}._offering:",
        f"    {g.sig(node, 'o', 'data')} = {n}._value",
        f"{g.sig(node, 'o', 'sm')} = False",
    ]


def _comb_sink(g, ni, node, out):
    n = g.node_ref(ni)
    out += [
        f"{g.sig(node, 'i', 'sp')} = {n}._stall_now",
        f"{g.sig(node, 'i', 'vm')} = False",
    ]


def _comb_killer_sink(g, ni, node, out):
    n = g.node_ref(ni)
    out += [
        f"{g.sig(node, 'i', 'vm')} = {n}._killing",
        f"{g.sig(node, 'i', 'sp')} = False if {n}._killing else {n}._stall_now",
    ]


def _comb_nondet_source(g, ni, node, out, value_attr="_counter"):
    n = g.node_ref(ni)
    out += [
        f"{g.sig(node, 'o', 'vp')} = {n}._offering",
        f"if {n}._offering:",
        f"    {g.sig(node, 'o', 'data')} = {n}.{value_attr}",
        f"{g.sig(node, 'o', 'sm')} = False",
    ]


def _comb_nc_source(g, ni, node, out):
    _comb_nondet_source(g, ni, node, out, value_attr="_value")


def _comb_permission(g, ni, node, out):
    n = g.node_ref(ni)
    out += [
        f"{g.sig(node, 'o', 'vp')} = {n}._offering",
        f"if {n}._offering:",
        f"    {g.sig(node, 'o', 'data')} = True",
        f"{g.sig(node, 'o', 'sm')} = False",
    ]


def _comb_nondet_sink(g, ni, node, out):
    n = g.node_ref(ni)
    out += [
        f"if {n}._killing:",
        f"    {g.sig(node, 'i', 'vm')} = True",
        f"    {g.sig(node, 'i', 'sp')} = False",
        "else:",
        f"    {g.sig(node, 'i', 'vm')} = False",
        f"    {g.sig(node, 'i', 'sp')} = {n}._choice == 1",
    ]


def _comb_eb(g, ni, node, out):
    n = g.node_ref(ni)
    out += [
        f"_x = {n}.count",
        f"{g.sig(node, 'o', 'vp')} = _x >= 1",
        "if _x >= 1:",
        f"    {g.sig(node, 'o', 'data')} = {n}._tokens[0]",
        f"{g.sig(node, 'o', 'sm')} = _x <= -{n}.anti_capacity",
        f"{g.sig(node, 'i', 'sp')} = _x >= {n}.capacity",
        f"{g.sig(node, 'i', 'vm')} = _x <= -1",
    ]


def _zbl_fwd(g, ni, node, out):
    n = g.node_ref(ni)
    out += [
        f"if {n}._full:",
        f"    {g.sig(node, 'o', 'vp')} = True",
        f"    {g.sig(node, 'o', 'data')} = {n}._value",
        "else:",
        f"    {g.sig(node, 'o', 'vp')} = False",
    ]


def _zbl_ivm(g, ni, node, out):
    n = g.node_ref(ni)
    out.append(
        f"{g.sig(node, 'i', 'vm')} = False if {n}._full "
        f"else {g.sig(node, 'o', 'vm')}"
    )


def _zbl_osm(g, ni, node, out):
    n = g.node_ref(ni)
    out.append(
        f"{g.sig(node, 'o', 'sm')} = False if {n}._full "
        f"else ({g.sig(node, 'i', 'sm')} if {g.sig(node, 'o', 'vm')} else False)"
    )


def _zbl_isp(g, ni, node, out):
    n = g.node_ref(ni)
    out.append(
        f"{g.sig(node, 'i', 'sp')} = "
        f"({g.sig(node, 'o', 'sp')} and not {g.sig(node, 'o', 'vm')}) "
        f"if {n}._full else False"
    )


def _func_avail(g, node):
    return " and ".join(
        f"({g.sig(node, f'i{k}', 'vp')} and _pk[{k}] == 0)"
        for k in range(node.n_inputs)
    )


def _func_fwd(g, ni, node, out):
    n = g.node_ref(ni)
    k_in = node.n_inputs
    out += [
        f"_pk = {n}._kills",
        f"_av = {_func_avail(g, node)}",
        f"{g.sig(node, 'o', 'vp')} = _av",
        "if _av:",
    ]
    for k in range(k_in):
        out.append(f"    _a{k} = {g.sig(node, f'i{k}', 'data')}")
    known = " and ".join(f"_a{k} is not None" for k in range(k_in))
    args = ", ".join(f"_a{k}" for k in range(k_in))
    out += [
        f"    if {known}:",
        f"        {g.sig(node, 'o', 'data')} = {n}.fn({args})",
    ]


def _func_back(g, ni, node, out):
    n = g.node_ref(ni)
    out += [
        f"_pk = {n}._kills",
        f"_fr = ({_func_avail(g, node)}) and not {g.sig(node, 'o', 'sp')}",
    ]
    for k in range(node.n_inputs):
        p = f"i{k}"
        out += [
            f"if _pk[{k}] > 0:",
            f"    {g.sig(node, p, 'vm')} = True",
            f"    {g.sig(node, p, 'sp')} = False",
            "else:",
            f"    {g.sig(node, p, 'vm')} = False",
            f"    {g.sig(node, p, 'sp')} = not _fr",
        ]


def _func_sm(g, ni, node, out):
    n = g.node_ref(ni)
    room = " and ".join(
        f"_pk[{k}] < {n}.max_kills" for k in range(node.n_inputs)
    )
    out += [
        f"_pk = {n}._kills",
        f"{g.sig(node, 'o', 'sm')} = "
        f"False if ({_func_avail(g, node)}) else not ({room})",
    ]


def _fork_fwd(g, ni, node, out):
    n = g.node_ref(ni)
    ivp, idata = g.sig(node, "i", "vp"), g.sig(node, "i", "data")
    out += [f"_pk = {n}._kills", f"_dn = {n}._served"]
    for k in range(node.n_outputs):
        p = f"o{k}"
        out += [
            f"_v = {ivp} and not (_dn[{k}] or _pk[{k}] > 0)",
            f"{g.sig(node, p, 'vp')} = _v",
            f"if {ivp} and {idata} is not None:",
            f"    {g.sig(node, p, 'data')} = {idata}",
            f"{g.sig(node, p, 'sm')} = False if _v else _pk[{k}] >= {n}.max_kills",
        ]


def _fork_isp(g, ni, node, out):
    n = g.node_ref(ni)
    k_out = node.n_outputs
    ivp = g.sig(node, "i", "vp")
    out += [f"_pk = {n}._kills", f"_dn = {n}._served"]
    for k in range(k_out):
        out += [
            f"_e = _dn[{k}] or _pk[{k}] > 0",
            f"_b{k} = _e or (({ivp} and not _e) "
            f"and not {g.sig(node, f'o{k}', 'sp')})",
        ]
    all_ok = " and ".join(f"_b{k}" for k in range(k_out))
    out.append(f"{g.sig(node, 'i', 'sp')} = not ({ivp} and {all_ok})")


def _fork_ivm(g, ni, node, out):
    out.append(f"{g.sig(node, 'i', 'vm')} = False")


def _by_select(node, rhs, lhs, out):
    """``lhs = rhs(port)`` for the input port the select ``_se`` names, as
    an if/elif chain one level deep (``_se`` is range-checked first)."""
    k_in = node.n_inputs
    for j in range(k_in):
        head = "if" if j == 0 else "elif"
        out += [f"    {head} _se == {j}:" if j < k_in - 1 else "    else:",
                f"        {lhs} = {rhs(f'i{j}')}"]


def _eemux_select(g, ni, node, out):
    """``_cf`` (the mux can fire) from the select token and the selected
    input, with ``_se`` the select value when one is offered.  An offered
    select with unknown data leaves the decision unknown, which
    straight-line code cannot carry: ``_udiag`` re-runs the cycle
    interpreted and raises its combinational-loop diagnosis."""
    n = g.node_ref(ni)
    g.bind["_udiag"] = 'env["diagnose_unknown"]'
    g.bind["SchedulerError"] = 'env["SchedulerError"]'
    head = f"EarlyEvalMux {node.name}: select value "
    tail = f" out of range 0..{node.n_inputs - 1}"
    select = g.plan.channels[g.plan.port_channel[(node.name, "s")]].name
    out += [
        f"_pk = {n}._kills",
        f"if {g.sig(node, 's', 'vp')}:",
        f"    _se = {g.sig(node, 's', 'data')}",
        "    if _se is None:",
        f"        _udiag(cycle, {select!r})",
        f"    if not isinstance(_se, int) or not 0 <= _se < {node.n_inputs}:",
        f"        raise SchedulerError({head!r} + repr(_se) + {tail!r})",
    ]
    _by_select(node, lambda p: f"{g.sig(node, p, 'vp')} and "
               f"_pk[{p[1:]}] == 0", "_cf", out)
    out += ["else:", "    _cf = False"]


def _eemux_fwd(g, ni, node, out):
    n = g.node_ref(ni)
    _eemux_select(g, ni, node, out)
    out += [
        f"_ok = _cf and {n}._pko == 0",
        f"{g.sig(node, 'o', 'vp')} = _ok",
        f"{g.sig(node, 'o', 'sm')} = False if _ok else "
        f"{n}._pko >= {n}.max_kills",
        "if _ok:",
    ]
    _by_select(node, lambda p: g.sig(node, p, "data"), "_dx", out)
    out += ["    if _dx is not None:",
            f"        {g.sig(node, 'o', 'data')} = _dx"]


def _eemux_back(g, ni, node, out):
    n = g.node_ref(ni)
    _eemux_select(g, ni, node, out)
    out += [
        f"_fi = _cf if {n}._pko > 0 else _cf and not {g.sig(node, 'o', 'sp')}",
        f"{g.sig(node, 's', 'sp')} = not _fi",
    ]
    for j in range(node.n_inputs):
        p = f"i{j}"
        out += [
            f"_km = _pk[{j}] > 0 or (_fi and _se != {j})",
            f"{g.sig(node, p, 'vm')} = _km",
            f"{g.sig(node, p, 'sp')} = False if _km else not (_fi and _se == {j})",
        ]


def _eemux_svm(g, ni, node, out):
    out.append(f"{g.sig(node, 's', 'vm')} = False")


def _prediction(g, ni):
    """The local holding the shared module's prediction this cycle: a
    function of registered state, so one call per cycle serves every
    channel's tasks."""
    return g.per_cycle(f"_pr{ni}", f"{g.node_ref(ni)}.scheduler.prediction()")


def _shared_fwd(g, ni, node, out, j=0):
    n = g.node_ref(ni)
    ivp, odata = g.sig(node, f"i{j}", "vp"), g.sig(node, f"o{j}", "data")
    idata = g.sig(node, f"i{j}", "data")
    out += [
        f"_gv = {_prediction(g, ni)} == {j} and {ivp}",
        f"{g.sig(node, f'o{j}', 'vp')} = _gv",
        f"if _gv and {idata} is not None:",
        f"    {odata} = {n}.fn({idata})",
    ]


def _shared_ivm(g, ni, node, out, j=0):
    out.append(f"{g.sig(node, f'i{j}', 'vm')} = {g.sig(node, f'o{j}', 'vm')}")


def _shared_osm(g, ni, node, out, j=0):
    ip = f"i{j}"
    out.append(f"{g.sig(node, f'o{j}', 'sm')} = False if "
               f"{g.sig(node, ip, 'vp')} else {g.sig(node, ip, 'sm')}")


def _shared_isp(g, ni, node, out, j=0):
    op = f"o{j}"
    out.append(
        f"{g.sig(node, f'i{j}', 'sp')} = False if {g.sig(node, op, 'vm')} "
        f"else ({g.sig(node, op, 'sp')} "
        f"if {_prediction(g, ni)} == {j} else True)"
    )


def _comb_varlat(g, ni, node, out):
    n = g.node_ref(ni)
    out += [
        f"_vq = {n}._station",
        "_hr = _vq[0][1] == 0 if _vq else False",
        f"{g.sig(node, 'o', 'vp')} = _hr",
        "if _hr:",
        f"    {g.sig(node, 'o', 'data')} = _vq[0][0]",
        f"{g.sig(node, 'o', 'sm')} = not _hr",
        f"{g.sig(node, 'i', 'sp')} = len(_vq) >= 2",
        f"{g.sig(node, 'i', 'vm')} = False",
    ]


#: comb-definer class -> its emitters, one per task of the kind's
#: ``comb_tasks()``, in that order.  The shared module declares four tasks
#: per channel pair: its emitters are reused for each pair, given the pair
#: index ``j`` (see the module docstring on trust).
_COMB_EMITTERS = {
    ElasticBuffer: (_comb_eb,),
    ZeroBackwardLatencyBuffer: (_zbl_fwd, _zbl_ivm, _zbl_osm, _zbl_isp),
    Func: (_func_fwd, _func_back, _func_sm),
    EagerFork: (_fork_fwd, _fork_isp, _fork_ivm),
    EarlyEvalMux: (_eemux_fwd, _eemux_back, _eemux_svm),
    SharedModule: (_shared_fwd, _shared_ivm, _shared_osm, _shared_isp),
    VariableLatencyUnit: (_comb_varlat,),
    _SourceBase: (_comb_source,),
    Sink: (_comb_sink,),
    KillerSink: (_comb_killer_sink,),
    NondetSource: (_comb_nondet_source,),
    NondetChoiceSource: (_comb_nc_source,),
    PermissionSource: (_comb_permission,),
    NondetSink: (_comb_nondet_sink,),
}


# ---------------------------------------------------------------------------
# sequential code, derived: tick, pre_cycle and set_choice
#
# By the clock edge every signal is known, so a tick is two-valued and its
# Python method can be the one description of it.  _Inline rewrites:
# self.st(P).sig, directly or through a local alias, to the local of the
# channel at port P (in ticks only: before the fix-point the locals are
# not this cycle's); self.x to _n<ni>.x; a method local x to _x_, which
# no channel local, scratch name or entry binding ends with; set_choice's
# parameter to the choice vector's local; a module global X to _g_X,
# bound from the method's globals; a top-level `if c: return` to a guard
# over the rest.  A loop over range(self.<arity attribute>),
# self.in_ports or self.out_ports unrolls, and ports fold only from
# literals, unrolled loop variables and port lists, so no numeric
# parameter is baked in.  Anything else is refused and the method called:
# super(), a channel state escaping (into a call, a container or an alias
# bound in a branch), a port that does not fold (picked from state),
# self.channel(...) or self._channels, any other loop, a return
# elsewhere, a helper of self that reaches channels, a class with no
# source (made by exec).  A method renders once per node shape into a
# template each node fills in: `@` is the node, `@<port>@<signal>` a
# channel local.
# ---------------------------------------------------------------------------

#: the node methods rendered into the cycle body
_SEQUENTIAL = ("pre_cycle", "tick", "set_choice")

#: attributes through which a method reaches channels other than a folded
#: ``self.st(port)``
_CHANNEL_ACCESS = frozenset({"st", "ev", "channel", "_channels", "drive"})

#: statements rendered as they are once their expressions are rewritten
_SIMPLE = (ast.Assign, ast.AugAssign, ast.Expr, ast.Raise, ast.Assert,
           ast.Pass, ast.Break, ast.Continue)

#: a template's placeholders (see above)
_PLACEHOLDER = re.compile(r"@(\w+)@(\w+)|@")


class _Refused(Exception):
    """The method body is outside the inlined subset: call it instead."""


@lru_cache(maxsize=256)
def _method_tree(code):
    """The parsed ``def`` of a method's code object; None when it has no
    source (a class made by ``exec``).  Shared: never change it."""
    try:
        tree = ast.parse(textwrap.dedent(inspect.getsource(code))).body[0]
    except (OSError, TypeError, SyntaxError):
        return None
    return tree if isinstance(tree, ast.FunctionDef) else None


def _self_attr(expr, me):
    """``attr`` when ``expr`` is ``<me>.attr``, else None."""
    if (isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name)
            and expr.value.id == me):
        return expr.attr
    return None


def _check_helper(cls, attr, seen):
    """Refuse when ``self.<attr>`` is a method or property of ``cls`` that
    may reach a channel, or whose source cannot be read."""
    if attr in seen:
        return
    seen.add(attr)
    value = next((k.__dict__[attr] for k in cls.__mro__
                  if attr in k.__dict__), None)
    funcs = ((value.fget, value.fset) if isinstance(value, property)
             else (getattr(value, "__func__", value),))
    for func in filter(callable, funcs):    # not None or a class constant
        tree = _method_tree(getattr(func, "__code__", None))
        if tree is None:
            raise _Refused
        me = tree.args.args[0].arg if tree.args.args else None
        for n in ast.walk(tree):
            if (isinstance(n, ast.Name) and n.id == "super"
                    or isinstance(n, ast.Attribute)
                    and n.attr in _CHANNEL_ACCESS):
                raise _Refused
            if _self_attr(n, me) is not None:
                _check_helper(cls, n.attr, seen)


@lru_cache(maxsize=256)
def _template(cls, method, arg, in_ports, out_ports, arity):
    """``(text, globals)``: ``method`` of ``cls`` rendered for nodes with
    these port lists and :attr:`~repro.elastic.node.Node.arity_checks`
    values, and the module globals it binds; None outside the subset."""
    try:
        inline = _Inline(cls, method, arg, in_ports, out_ports, arity)
    except _Refused:
        return None
    return inline.text, tuple(inline.globals_used)


class _Inline(ast.NodeTransformer):
    """One method rendered as a template (see the comment above); raises
    :class:`_Refused` outside the subset.  ``arg`` names the local passed
    to ``set_choice``."""

    def __init__(self, cls, method, arg, in_ports, out_ports, arity):
        func = getattr(cls, method)
        tree = _method_tree(getattr(func, "__code__", None))
        if tree is None or tree.decorator_list or any(
                isinstance(n, ast.Constant) and "@" in str(n.value)
                for n in ast.walk(tree)):
            raise _Refused
        a = tree.args
        params = [p.arg for p in a.args]
        if (a.posonlyargs or a.vararg or a.kwonlyargs or a.kwarg
                or len(params) != 1 + (arg is not None)):
            raise _Refused
        self.cls, self.me = cls, params[0]
        self.arg = dict(zip(params[1:], [arg]))
        self.locals = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
                       and isinstance(n.ctx, ast.Store)}
        self.globals = func.__globals__
        self.globals_used = {}
        self.signals = method == "tick"
        self.port_lists = {"in_ports": in_ports, "out_ports": out_ports}
        self.arity = {
            attr: value for (attr, ports, fixed), value
            in zip(cls.arity_checks, arity)
            if value == len(self.port_lists.get(ports, ())) - fixed}
        self.consts = {}      # unrolled loop variable -> its value
        self.ports = {}       # channel state alias -> port
        self.seen = set()     # helpers of self checked
        self.text = ast.unparse(ast.Module(self._block(tree.body, True), []))

    def _block(self, body, top=False, unrolled=False, straight=True):
        """``body`` rewritten.  ``straight``: outside any branch, so a
        channel state alias may be bound; ``unrolled``: directly in an
        unrolled loop, where break and continue have no loop to leave."""
        out = []
        for k, s in enumerate(body):
            if isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant):
                continue                                 # a docstring
            if (top and isinstance(s, ast.If) and not s.orelse
                    and len(s.body) == 1 and isinstance(s.body[0], ast.Return)
                    and s.body[0].value is None):
                test = self.visit(s.test)
                test = (test.operand if isinstance(test, ast.UnaryOp)
                        and isinstance(test.op, ast.Not)
                        else ast.UnaryOp(ast.Not(), test))
                rest = self._block(body[k + 1:], top=True) or [ast.Pass()]
                out.append(ast.If(test, rest, []))
                break
            port = (self._port(s.value) if isinstance(s, ast.Assign)
                    and len(s.targets) == 1
                    and isinstance(s.targets[0], ast.Name) else None)
            if port is not None and straight:
                self.ports[s.targets[0].id] = port
            elif isinstance(s, ast.For):
                for value in self._unrolled(s):
                    self.consts[s.target.id] = value
                    out += self._block(s.body, unrolled=True,
                                       straight=straight)
            elif isinstance(s, (ast.If, ast.While)) and port is None:
                inner = unrolled and isinstance(s, ast.If)
                if isinstance(s, ast.While) and s.orelse:
                    raise _Refused
                out.append(type(s)(
                    self.visit(s.test),
                    self._block(s.body, unrolled=inner, straight=False)
                    or [ast.Pass()],
                    self._block(s.orelse, unrolled=inner, straight=False)))
            elif (isinstance(s, _SIMPLE) and port is None and not (
                    unrolled and isinstance(s, (ast.Break, ast.Continue)))):
                out.append(self.visit(s))
            else:
                raise _Refused
        return out

    def _unrolled(self, loop):
        """The values of an unrollable loop's variable."""
        it, me = loop.iter, self.me
        if loop.orelse or not isinstance(loop.target, ast.Name):
            raise _Refused
        if _self_attr(it, me) in self.port_lists:
            return self.port_lists[it.attr]
        if (isinstance(it, ast.Call) and isinstance(it.func, ast.Name)
                and it.func.id == "range" and "range" not in self.globals
                and len(it.args) == 1 and not it.keywords
                and _self_attr(it.args[0], me) in self.arity):
            return range(self.arity[it.args[0].attr])
        raise _Refused

    def _fold(self, e):
        """The value of a port expression: literals, unrolled loop
        variables, port lists and sums of these."""
        if isinstance(e, ast.Constant):
            return e.value
        if isinstance(e, ast.Name) and e.id in self.consts:
            return self.consts[e.id]
        try:
            if isinstance(e, ast.BinOp) and isinstance(e.op, ast.Add):
                return self._fold(e.left) + self._fold(e.right)
            if (isinstance(e, ast.Subscript) and _self_attr(e.value, self.me)
                    in self.port_lists):
                return self.port_lists[e.value.attr][self._fold(e.slice)]
        except (TypeError, IndexError):
            pass
        raise _Refused

    def _port(self, e):
        """The port whose channel state ``e`` is (an alias or
        ``self.st(P)``), else None."""
        if isinstance(e, ast.Name) and e.id in self.ports:
            return self.ports[e.id]
        if not (isinstance(e, ast.Call) and _self_attr(e.func, self.me) == "st"):
            return None
        if len(e.args) != 1 or e.keywords or not self.signals:
            raise _Refused
        port = self._fold(e.args[0])
        if port not in self.port_lists["in_ports"] + self.port_lists[
                "out_ports"] or not re.fullmatch(r"\w+", port):
            raise _Refused
        return port

    def generic_visit(self, node):
        # a rewritten copy: the parsed trees are shared
        fields = {name: [self.visit(v) if isinstance(v, ast.AST) else v
                         for v in value] if isinstance(value, list)
                  else self.visit(value) if isinstance(value, ast.AST)
                  else value for name, value in ast.iter_fields(node)}
        return ast.copy_location(type(node)(**fields), node)

    def visit_Attribute(self, n):
        port = self._port(n.value)
        if port is not None:
            if n.attr not in _SIGNALS or not isinstance(n.ctx, ast.Load):
                raise _Refused
            return ast.Name(f"@{port}@{n.attr}", ast.Load())
        if _self_attr(n, self.me) is None:
            return self.generic_visit(n)
        if n.attr in _CHANNEL_ACCESS:
            raise _Refused
        _check_helper(self.cls, n.attr, self.seen)
        return ast.Attribute(ast.Name("@", ast.Load()), n.attr, n.ctx)

    def visit_Name(self, n):
        name = n.id
        if name in self.consts and isinstance(n.ctx, ast.Load):
            return ast.Constant(self.consts[name])
        if name in (self.me, "super") or name in self.ports \
                or name in self.consts:
            raise _Refused     # self or a channel state escaping, super()
        if name in self.arg:
            return ast.Name(self.arg[name], n.ctx)
        if name in self.locals:
            return ast.Name(f"_{name}_", n.ctx)
        if name not in self.globals:
            return n                                     # a builtin
        self.globals_used[name] = None
        return ast.Name(f"_g_{name}", n.ctx)

    def _refuse(self, n):
        raise _Refused

    # (a matrix product would render the placeholder `@`)
    visit_Lambda = visit_Yield = visit_YieldFrom = visit_Await = _refuse
    visit_MatMult = _refuse


def _sequential(g, ni, node, method, arg=None):
    """``(lines, inlined)``: node ``ni``'s ``method`` in the cycle body,
    its body inlined or, outside the subset, one call of it."""
    cls = type(node)
    template = _template(
        cls, method, arg, tuple(node.in_ports), tuple(node.out_ports),
        tuple(getattr(node, attr, None) for attr, _, _ in cls.arity_checks))
    space = template and getattr(cls, method).__globals__
    if template is None or any(   # another node's global of the same name
            g.globals.setdefault(name, space[name]) is not space[name]
            for name in template[1]):
        name = f"_{method[0]}{ni}"
        g.bind[name] = f"_nodes[{ni}].{method}"
        return [f"{name}({arg or ''})"], False
    for name in template[1]:
        g.bind[f"_g_{name}"] = f"type(_nodes[{ni}]).{method}.__globals__[{name!r}]"
    ref = g.node_ref(ni)
    return _PLACEHOLDER.sub(
        lambda m: ref if m[1] is None else g.sig(node, m[1], m[2]),
        template[0]).splitlines(), True


# ---------------------------------------------------------------------------
# elaboration plan
# ---------------------------------------------------------------------------


def _comb_emitters(cls):
    """The comb emitters trusted for node class ``cls``: those of the class
    that defines its ``comb``, unless ``comb_tasks`` is overridden below
    that class (the emitters would not match the declared tasks).  None
    when the class has no trusted emitters."""
    definer = _definer(cls, "comb")
    emitters = _COMB_EMITTERS.get(definer)
    if emitters is None or not issubclass(definer,
                                          _definer(cls, "comb_tasks")):
        return None
    return emitters


class _Plan:
    """Structural classification of one netlist for code generation."""

    __slots__ = (
        "nodes", "channels", "port_channel", "task_order", "deferred",
        "pre_cycles", "choosers", "ticks",
    )


def _build_plan(netlist):
    """Schedule ``netlist``'s signal tasks into ``plan.task_order``.

    ``plan.deferred`` lists, by index, the nodes that block compilation: a
    node with no trusted comb emitters, a port bound to no live channel, a
    read no task produces, or a task on a signal-level cycle.  When it is
    non-empty nothing is scheduled and no cycle function is generated.
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
    deferred = plan.deferred = []

    port_channel = plan.port_channel = {}
    tasks = []
    for ni, node in enumerate(nodes):
        emitters = _comb_emitters(type(node))
        ok = emitters is not None
        for port in node.ports:
            ch = node._channels.get(port)
            ci = None if ch is None else chan_idx.get(ch.name)
            if ci is None or channels[ci] is not ch:
                ok = False
                continue
            port_channel[(node.name, port)] = ci
        if ok:
            for t, (reads, writes) in enumerate(node.comb_tasks()):
                j, k = divmod(t, len(emitters))
                emit = emitters[k] if j == 0 else partial(emitters[k], j=j)
                tasks.append((ni, reads, writes, emit))
        else:
            deferred.append(ni)
    if deferred:
        return plan

    # Tasks are wired by (channel, signal) and topologically sorted.
    # Scheduling happens per task, not per node: elastic control is
    # acyclic signal-to-signal even where it is cyclic node-to-node.
    produced = {}
    for t, (ni, reads, writes, emit) in enumerate(tasks):
        for port, sig in writes:
            produced[(port_channel[(nodes[ni].name, port)], sig)] = t
    indeg = [0] * len(tasks)
    adj = [[] for _ in tasks]
    starved = set()
    for t, (ni, reads, writes, emit) in enumerate(tasks):
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
    """Binding/naming context shared by the emitters."""

    def __init__(self, plan):
        self.plan = plan
        self.bind = {}        # default-arg name -> build-scope expression
        self.covered = set()  # (ci, control) unconditionally assigned
        self.globals = {}     # module global bound as _g_<name> -> object
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
    per-cycle locals the emitters asked for (:meth:`_Gen.per_cycle`), the
    straight-line region in scheduled signal-task order, the screen and
    the ticks, with channel signals in locals that reach the
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
    region = _chunk_chain([g.csig(ci, "data") for ci in chans], "None")
    for ni, reads, writes, emit in plan.task_order:
        node = nodes[ni]
        region.append(f"# {node.name} ({node.kind})")
        emit(g, ni, node, region)
        g.cover(node, [(p, s) for p, s in writes if s != "data"])
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
            g, body, ticks, unresolve, flush, interpreted_tick)

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


def _expand_entry(g, body, ticks, unresolve, flush, interpreted_tick):
    """``_expand(cycle, snapshot, vectors)``: one explored state.  For
    each ``(vector, choices)`` of ``vectors`` (``vector`` holds one value
    per chooser, None where its space is 1) it restores ``snapshot``
    (except before the first), sets the choices, runs the cycle body
    without statistics or monitor and appends ``(choices, packed signals,
    successor snapshot)`` to the returned list; ``sim.cycle`` advances by
    one per vector.  Channel states are flushed once, after the last
    vector, and before a diagnosis — every vector under an interpreted
    tick (which reads them).  Returns as :func:`_run_entry` does."""
    n_channels = len(g.plan.channels)
    chans = range(n_channels)
    src = ["_out = []"]
    if not interpreted_tick:
        src += unresolve

    loop = ["if _i:", "    _restore(snapshot)"]
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
    loop += [")), _snap()))", "cycle += 1"]

    src += ["try:", "    for _i, (_vec, _ch) in enumerate(vectors):"]
    src += _indent(loop, 2)
    src += ["except _keep:", "    raise", "except BaseException:",
            "    _unres()", "    raise", "finally:", "    _sim.cycle = cycle"]
    if not interpreted_tick and n_channels:
        src += ["if _out:"] + _indent(flush)
    src.append("return _out")
    g.bind.update(_ENV_BINDINGS)
    # the netlist's state accessor itself: the entry is rebuilt on every
    # structure sync, and Simulator.expand checks the version first
    g.bind.update({"_snap": 'env["netlist"].state_access()[0]',
                   "_restore": 'env["netlist"].state_access()[1]'})
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
    key = topology + (tuple(
        getattr(getattr(type(node), name), "__code__", None)
        for node in netlist.nodes.values() for name in _SEQUENTIAL), entry)
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
            "SchedulerError": SchedulerError,
        })

    def unresolve(self):
        """Mark every channel unresolved (signals unknown, no memoized
        events): what a compiled cycle that raised leaves behind."""
        for channel in self.sim._channels:
            channel.clear_cycle()

    def diagnose_unknown(self, cycle, select):
        """Raise the worklist engine's combinational-loop diagnosis for
        cycle ``cycle``, which the straight-line code cannot finish
        because channel ``select`` offers a select token without data:
        re-run every node's interpreted ``comb()`` from cleared channels,
        pass after pass until one leaves the change log empty, then check
        resolution — same unresolved signals, same cycle.  A re-run that
        resolves everything (an impure ``fn`` returned data the second
        time) still raises, naming the select data the compiled cycle
        found unknown."""
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
        raise CombinationalLoopError([f"{select}.data"], cycle=cycle)
