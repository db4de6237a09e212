"""The sensitivity-soundness auditor — lint's race detector.

Every engine optimization in this codebase trusts each node's
combinational sensitivity, derived from the kind's own ``comb``
(:mod:`repro.sim.inline`): the worklist engine only re-evaluates a node
when a signal in ``comb_reads()`` changes, codegen schedules each task of
``comb_tasks()`` after the tasks writing its reads, and both take every
signal's writer from port roles (``drives()``).  A read the derivation
misses produces silently wrong fix-points with no error anywhere; the
auditor is the derivation's oracle.

The auditor verifies the contract *dynamically*: it replaces a node's
channels with recording proxies, binds its ``drive`` to a recorder, and
executes ``comb()`` under a
deterministic schedule of fuzzed channel-state assignments (Kleene
corners plus seeded random trials), recording every channel-signal read
and write actually performed.  Reads are recorded only for signals the
*opposite* endpoint drives (reading back your own drive cannot wake you),
writes for everything driven.  Reads outside the derived ``comb_reads()``
are E110 findings, drives outside ``drives()`` E111 findings.

Coverage note: the Kleene helpers evaluate their arguments eagerly, so
most reads happen on attribute *access* regardless of the assigned value
— coverage is mainly a function of the node's sequential state (a full
vs. empty ZBL buffer takes different branches), which is why
:func:`audit_node` accepts a list of state snapshots to audit under.

The second contract audited here is the state declaration: the netlist
snapshot carries exactly the slots a node class declares (see
:mod:`repro.elastic.node`), so a private attribute its ``reset`` or
``tick`` assigns outside them is state the model checker silently drops.
:func:`undeclared_state` finds those statically.
"""

from __future__ import annotations

import ast
import copy
import inspect
import random
import textwrap
import zlib
from dataclasses import dataclass, field

from repro.elastic.channel import (
    CONSUMER,
    ChannelEvents,
    PRODUCER,
    SIGNALS_BY_ROLE,
)


def _read_recorder(signal):
    def read(self):
        if signal in self.env_signals:
            self.reads.add((self.port, signal))
        own = self.own.get(signal)
        if own is not None:
            return own
        return self.env.get(signal)
    return property(read)


class _AuditState:
    """Stand-in for :class:`ChannelState` that records reads.

    Signals the opposite endpoint would drive come from the ``env``
    assignment (the fuzz); the node's own drives land in ``own`` and are
    readable back, mirroring fix-point visibility.  Writes do not go
    through the state: :func:`audit_node` binds the node's ``drive`` to
    :func:`_recording_drive` for the audit's duration.
    """

    vp = _read_recorder("vp")
    sp = _read_recorder("sp")
    vm = _read_recorder("vm")
    sm = _read_recorder("sm")
    data = _read_recorder("data")

    def __init__(self, port, env_signals, env, reads):
        self.port = port
        self.env_signals = env_signals
        self.env = env
        self.own = {}
        self.reads = reads


def _recording_drive(node, writes):
    """The ``drive`` :func:`audit_node` binds on ``node``: it records
    every write of a known value in ``writes`` and keeps the first value
    of each signal readable back, like :meth:`Node.drive`, but never
    raises on conflict — the audit wants maximal execution, not protocol
    enforcement."""
    def drive(port, signal, value):
        if value is None:
            return
        writes.add((port, signal))
        own = node._channels[port].state.own
        if own.get(signal) is None:
            own[signal] = value
    return drive


class _AuditChannel:
    """Channel stand-in exposing exactly what ``Node`` helpers touch:
    ``state`` (for ``st``/``drive``), ``name``, ``width`` and ``events()``
    (recorded as a read of all four control signals — a ``comb`` that
    resolves events is sensitive to everything)."""

    def __init__(self, port, state, width=8):
        self.name = f"<audit:{port}>"
        self.width = width
        self.state = state

    def events(self):
        st = self.state
        vp = bool(st.vp)
        sp = bool(st.sp)
        vm = bool(st.vm)
        sm = bool(st.sm)
        if vp and vm:
            return ChannelEvents(forward=False, cancel=True,
                                 backward=False, data=None)
        if vp and not sp:
            return ChannelEvents(forward=True, cancel=False,
                                 backward=False, data=st.data)
        if vm and not sm:
            return ChannelEvents(forward=False, cancel=False,
                                 backward=True, data=None)
        return ChannelEvents(forward=False, cancel=False,
                             backward=False, data=None)


@dataclass
class SensitivityAudit:
    """Verdict of auditing one node."""

    node: str
    kind: str
    declared_reads: frozenset
    declared_writes: frozenset
    observed_reads: set = field(default_factory=set)
    observed_writes: set = field(default_factory=set)
    trials: int = 0
    aborted: int = 0          # trials cut short by an exception in comb()

    @property
    def undeclared_reads(self):
        return self.observed_reads - self.declared_reads

    @property
    def undeclared_writes(self):
        return self.observed_writes - self.declared_writes

    @property
    def ok(self):
        return not self.undeclared_reads and not self.undeclared_writes


def _env_signals(node):
    """port -> signals the opposite endpoint drives (the fuzzable set)."""
    env = {}
    for port in node.in_ports:
        env[port] = SIGNALS_BY_ROLE[PRODUCER]      # vp, sm, data
    for port in node.out_ports:
        env[port] = SIGNALS_BY_ROLE[CONSUMER]      # sp, vm
    return env


def _assignments(env_signals, trials, seed, data_pool):
    """Deterministic fuzz schedule: Kleene corners first, then seeded
    random trials biased toward known/True (eager data paths fire often)."""
    # Corner 1: everything unresolved.
    yield {port: {} for port in env_signals}
    # Corner 2: all controls known-False.
    yield {
        port: {sig: False for sig in signals if sig != "data"}
        for port, signals in env_signals.items()
    }
    # Corners 3..: all controls True with each data value — guarantees the
    # data-dependent branches (joins firing, mux selects) run for every
    # pool value.
    for value in data_pool:
        yield {
            port: {sig: (value if sig == "data" else True)
                   for sig in signals}
            for port, signals in env_signals.items()
        }
    rng = random.Random(seed)
    for _ in range(trials):
        assignment = {}
        for port, signals in env_signals.items():
            values = {}
            for sig in signals:
                if sig == "data":
                    if rng.random() < 0.8:
                        values[sig] = data_pool[rng.randrange(len(data_pool))]
                else:
                    roll = rng.random()
                    if roll < 0.45:
                        values[sig] = True
                    elif roll < 0.75:
                        values[sig] = False
            assignment[port] = values
        yield assignment


def audit_node(node, trials=64, seed=0, states=None, data_pool=(0, 1, 2, 3),
               clone=True):
    """Audit one node's derived sensitivity against observed behaviour.

    ``states`` is an optional list of :meth:`Node.snapshot` values to run
    the schedule under (sequential state picks combinational branches);
    defaults to the node's current state.  ``clone=False`` audits the node
    in place (its sequential state, channel bindings and class ``drive``
    are restored, but pre-existing channel *signal* state is not touched
    at all — proxies replace the channels for the duration).
    """
    if clone:
        node = copy.deepcopy(node)
    declared_reads = frozenset(tuple(pair) for pair in node.comb_reads())
    declared_writes = frozenset(node.drives())
    audit = SensitivityAudit(
        node=node.name, kind=node.kind,
        declared_reads=declared_reads, declared_writes=declared_writes,
    )
    env_signals = _env_signals(node)
    snapshots = list(states) if states is not None else [node.snapshot()]
    real_channels = node._channels
    widths = {port: channel.width for port, channel in real_channels.items()}
    node.drive = _recording_drive(node, audit.observed_writes)
    try:
        for snap in snapshots:
            for assignment in _assignments(env_signals, trials, seed,
                                           data_pool):
                node.restore(snap)
                node._channels = {
                    port: _AuditChannel(
                        port,
                        _AuditState(port, env_signals[port],
                                    assignment.get(port, {}),
                                    audit.observed_reads),
                        width=widths.get(port, 8),
                    )
                    for port in node.ports
                }
                audit.trials += 1
                try:
                    node.pre_cycle()
                    node.comb()
                except Exception:
                    # A fuzzed state may be protocol-impossible (bad mux
                    # select, fn on unexpected data): keep the partial
                    # read/write record, count the abort.
                    audit.aborted += 1
    finally:
        del node.drive
        node._channels = real_channels
    return audit


def audit_netlist(netlist, trials=32, seed=0, data_pool=(0, 1, 2, 3)):
    """Audit every node of ``netlist`` (on a clone — the caller's netlist
    is never executed or mutated).  Returns one
    :class:`SensitivityAudit` per node, in node order."""
    working = netlist.clone()
    audits = []
    for name, node in working.nodes.items():
        node_seed = seed ^ zlib.crc32(name.encode("utf-8"))
        audits.append(audit_node(node, trials=trials, seed=node_seed,
                                 data_pool=data_pool, clone=False))
    return audits


# -- declared state -------------------------------------------------------------


def _assigned_attributes(fn):
    """Attributes of its first parameter (``self``) that function ``fn``
    assigns, augmented or unpacked included; empty when the source is not
    available."""
    try:
        tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    except (OSError, TypeError, SyntaxError):
        return set()
    func = next(node for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.Lambda)))
    if not func.args.args:
        return set()
    owner = func.args.args[0].arg
    return {node.attr for node in ast.walk(func)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name) and node.value.id == owner}


def undeclared_state(cls):
    """Private attributes (``self._x``) that the ``reset`` or ``tick`` of
    node class ``cls`` assigns but no declared slot covers, sorted: state
    its snapshot would drop.  Declared are the keys of ``state_slots`` and
    ``reset_slots`` — plain attributes holding the canonical values — and,
    for a slot that canonicalizes through a property, what its setter
    stores.  A class that overrides ``snapshot``/``restore`` states its
    own state and is not flagged."""
    from repro.elastic.node import Stateful

    if (cls.snapshot is not Stateful.snapshot
            or cls.restore is not Stateful.restore):
        return []
    declared = set(cls.state_slots) | set(cls.reset_slots)
    for name in cls.state_slots:
        view = inspect.getattr_static(cls, name, None)
        if isinstance(view, property) and view.fset is not None:
            declared |= _assigned_attributes(view.fset)
    assigned = set()
    for method in (cls.reset, cls.tick):
        if method is not Stateful.reset:
            assigned |= _assigned_attributes(method)
    return sorted(name for name in assigned - declared
                  if name.startswith("_"))
