"""Node methods rendered from their own source, once per node shape, and
comb's sensitivity derived from the rendering.

:class:`_Inline` reads a method with :mod:`inspect` and rewrites it in
one :mod:`ast` pass into a template for a shape (class, port lists and
arity).  The compiled engine (:mod:`repro.backend.pysim`) fills the
templates of ``comb``, ``tick``, ``pre_cycle`` and ``set_choice`` into
its cycle body; both engines take a kind's signal tasks and wake-up reads
from its rendered ``comb`` (:func:`comb_sensitivity`, behind
:meth:`~repro.elastic.node.Node.comb_tasks` and ``comb_reads``).  Nothing
runs before the first call that asks, and derivation and slicing share
one rendering.  This module names no node kind.
"""

from __future__ import annotations

import ast
import copy
import inspect
import re
import textwrap
from collections import namedtuple
from functools import cache, lru_cache

from repro.elastic.channel import ALL_SIGNALS, role_pairs
from repro.kleene import kand, kite, knot, kor

__all__ = ["PLACEHOLDER", "Template", "comb_sensitivity", "node_template"]

# ---------------------------------------------------------------------------
# _Inline rewrites self.st(P).sig, directly or through a local alias, to
# the local of the channel at port P; self.x to _n<ni>.x; a method local x
# to _x_, which no channel local, scratch name or entry binding ends with;
# set_choice's parameter to the choice vector's local; a module global X
# to _g_X, bound from the method's globals; a top-level `if c: return` to
# a guard over the rest.  Loops and list comprehensions over
# range(self.<arity attribute>) or a port list unroll, and ports fold only
# from literals, unrolled loop variables and port lists, so no numeric
# parameter but the arity attributes is baked in.  Anything else is
# refused (see Node.comb for the subset).
#
# comb: every signal the straight-line region reads is a known bool, so
# kand/kor/knot/kite render as and/or/not/`a if c else b`, and
# self.drive(P, s, e) as the assignment of e to the channel local, for a
# pair the port roles permit; `x = True` followed by the unrolled `x = x
# and e` is `x = e`.  Its leading assignments that read no channel, each
# to a local assigned once, become per-cycle locals named _x_@, and a read
# of a data drive before any assignment of it renders None (every data
# local starts the cycle unknown); a local that more than one top-level
# assignment, and nothing else, stores gets a name per assignment
# (_x_, _x_1_, ...).  Each drive is then sliced out: kept
# with the locals it reads, a raise where the locals it reports are live,
# and a call or a store to node state always.  Its reads are the channel
# reads of its slice; drives with equal reads form one task, and a port's
# data drive joins the task of its vp.  A task's slice is refused when it
# may leave a control write unassigned; a data read feeding a control
# value must be assigned straight to a local, and is guarded there into
# diagnose_unknown, after which `x is not None` renders True.  A branch
# assigning one name on both sides renders as `x = a if c else b`.  A
# top-level statement that only computes locals, calls nothing and renders
# alike in two or more tasks is shared: its locals get the node's name and
# the compiled cycle runs it in the first of those tasks scheduled.  In a
# template, `@` is the node and `@<port>@<signal>` a channel local.
# ---------------------------------------------------------------------------

#: attributes through which a method reaches channels other than a folded
#: ``self.st(port)``
_CHANNEL_ACCESS = frozenset({"st", "ev", "channel", "_channels", "drive"})

#: statements rendered as they are once their expressions are rewritten
_SIMPLE = (ast.Assign, ast.AugAssign, ast.Expr, ast.Raise, ast.Assert,
           ast.Pass, ast.Break, ast.Continue)

#: a template's placeholders (see above)
PLACEHOLDER = re.compile(r"@(\w+)@(\w+)|@")

#: a rendered method: its ``text`` (comb: one slice per task, each a tuple
#: of ``(key, text)`` chunks, a shared chunk's key not None; None when one
#: is refused) and the module ``globals`` it binds; comb's per-cycle locals
#: (``(name, expression)`` pairs), signal ``tasks`` and wake-up ``reads``
Template = namedtuple("Template", "text globals head tasks reads",
                      defaults=((), (), ()))

#: the test of a data drive not made yet, once rendered
_NONE_IS_NONE = ast.dump(ast.parse("None is None", mode="eval").body)


class _Refused(Exception):
    """The method body is outside the inlined subset."""


def _method_tree(code):
    """The parsed ``def`` of a method's code object; None when it has no
    source (a class made by ``exec``).  Parsed afresh on each call: only
    the rendered templates are kept."""
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
def template(cls, method, arg, in_ports, out_ports, arity):
    """``method`` of ``cls`` rendered for nodes with these port lists and
    :attr:`~repro.elastic.node.Node.arity_checks` values (a
    :class:`Template`); None outside the subset."""
    try:
        inline = _Inline(cls, method, arg, in_ports, out_ports, arity)
    except _Refused:
        return None
    return Template(inline.text, tuple(inline.globals_used), *inline.comb)


def node_template(node, method, arg=None):
    """:func:`template` of ``node``'s ``method`` for its shape."""
    cls = type(node)
    return template(
        cls, method, arg, tuple(node.in_ports), tuple(node.out_ports),
        tuple(getattr(node, attr, None) for attr, _, _ in cls.arity_checks))


def comb_sensitivity(node):
    """``(tasks, reads)`` of ``node``'s ``comb`` (see
    :meth:`~repro.elastic.node.Node.comb_tasks`): derived from the
    rendered method or, outside the subset, one task reading every signal
    the opposite endpoints drive."""
    comb = node_template(node, "comb")
    if comb is not None:
        return comb.tasks, comb.reads
    drives, opposite = role_pairs(node.in_ports, node.out_ports)
    return ((opposite, drives),), opposite


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
        self.signals = method in ("tick", "comb")
        # comb: the (port, signal) pairs the port roles let it drive
        self.drives = (set(role_pairs(in_ports, out_ports)[0])
                       if method == "comb" else None)
        self.port_lists = {"in_ports": in_ports, "out_ports": out_ports}
        self.arity = {
            attr: value for (attr, ports, fixed), value
            in zip(cls.arity_checks, arity)
            if value == len(self.port_lists.get(ports, ())) - fixed}
        self.consts = {}      # unrolled loop variable -> its value
        self.ports = {}       # channel state alias -> port
        self.seen = set()     # helpers of self checked
        self.written = set()  # comb: the drives made so far
        body, self.comb = self._block(tree.body, True), ()
        self.text = (ast.unparse(ast.Module(body, []))
                     if self.drives is None else self._comb(body))

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
            if (self.drives is not None and isinstance(s, ast.Expr)
                    and isinstance(s.value, ast.Call)
                    and _self_attr(s.value.func, self.me) == "drive"):
                out.append(self._drive(s.value.args, s.value.keywords))
                continue
            port = (self._port(s.value) if isinstance(s, ast.Assign)
                    and len(s.targets) == 1
                    and isinstance(s.targets[0], ast.Name) else None)
            if port is not None and straight:
                self.ports[s.targets[0].id] = port
            elif isinstance(s, ast.For):
                values = self._unrolled(s)
                if values is None:
                    raise _Refused
                for value in values:
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
        """The values of the variable of an unrollable loop or
        comprehension, else None."""
        it, me = loop.iter, self.me
        if (getattr(loop, "orelse", None) or getattr(loop, "ifs", None)
                or not isinstance(loop.target, ast.Name)):
            return None
        if _self_attr(it, me) in self.port_lists:
            return self.port_lists[it.attr]
        if (isinstance(it, ast.Call) and isinstance(it.func, ast.Name)
                and it.func.id == "range" and "range" not in self.globals
                and len(it.args) == 1 and not it.keywords
                and _self_attr(it.args[0], me) in self.arity):
            return range(self.arity[it.args[0].attr])
        return None

    def visit_ListComp(self, n):
        # unrolled into a list display where the loop unrolls
        values = self._unrolled(n.generators[0]) if len(
            n.generators) == 1 else None
        if values is None:
            return self.generic_visit(n)
        name, elts, outer = n.generators[0].target.id, [], self.consts
        for value in values:
            self.consts = {**outer, name: value}
            elts.append(self.visit(n.elt))
        self.consts = outer
        return ast.List(elts, ast.Load())

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
        return self._portname(e.args[0])

    def _portname(self, e):
        """The port ``e`` folds to (see :meth:`_fold`)."""
        port = self._fold(e)
        if port not in self.port_lists["in_ports"] + self.port_lists[
                "out_ports"] or not re.fullmatch(r"\w+", port):
            raise _Refused
        return port

    def _drive(self, args, keywords):
        """``self.drive(P, s, e)`` as the assignment ``@P@s = e``, for a
        pair the port roles permit."""
        if len(args) != 3 or keywords:
            raise _Refused
        pair = (self._portname(args[0]), self._fold(args[1]))
        if pair not in self.drives:
            raise _Refused
        value = self.visit(args[2])
        self.written.add(pair)
        return ast.Assign([ast.Name("@%s@%s" % pair, ast.Store())], value,
                          lineno=0)

    def visit_Call(self, n):
        f = n.func
        helper = (self.globals.get(f.id) if isinstance(f, ast.Name)
                  and f.id not in self.locals else None)
        args = []             # an unpacked display passed item by item
        for a in map(self.visit, n.args):
            args += (a.value.elts if isinstance(a, ast.Starred) and isinstance(
                a.value, (ast.List, ast.Tuple)) else [a])
        if not any(helper is h for h in (kand, kor, knot, kite)):
            return ast.Call(self.visit(f), args,
                            [self.visit(k) for k in n.keywords])
        if n.keywords or any(isinstance(x, (ast.Call, ast.Starred))
                             for a in args for x in ast.walk(a)):
            raise _Refused        # an operand with an effect, or unpacked
        if helper is knot and len(args) == 1:
            return ast.UnaryOp(ast.Not(), args[0])
        if helper is kite and len(args) == 3:
            return ast.IfExp(*args)
        if helper in (kand, kor) and args:
            return args[0] if len(args) == 1 else ast.BoolOp(
                ast.And() if helper is kand else ast.Or(), args)
        raise _Refused

    def _comb(self, body):
        """comb's slices, one per derived task, as :func:`_shared` chunks
        (None when one is refused; see the comment above); sets
        :attr:`comb` to ``(head, tasks, reads)``."""
        if any(isinstance(n, (ast.While, ast.Break, ast.Continue))
               for s in body for n in ast.walk(s)):
            raise _Refused
        locals_ = {f"_{name}_" for name in self.locals}
        stored = [n.id for s in body for n in ast.walk(s)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
        head = []
        while (body and isinstance(body[0], ast.Assign)
               and len(body[0].targets) == 1
               and getattr(body[0].targets[0], "id", None) in locals_
               and stored.count(body[0].targets[0].id) == 1
               and not _reads(body[:1])):
            head.append(body.pop(0))
        hoisted = {s.targets[0].id for s in head}
        for n in (n for s in head + body for n in ast.walk(s)):
            if isinstance(n, ast.Name) and n.id in hoisted:
                n.id += "@"
        body = _versioned(_seeds_folded(body), locals_)
        in_ports, out_ports = self.port_lists.values()
        drives, opposite = role_pairs(in_ports, out_ports)
        order = {pair: k for k, pair in enumerate(
            (port, sig) for port in in_ports + out_ports
            for sig in ALL_SIGNALS)}
        # the body is not changed from here on
        loads = cache(lambda tree: frozenset(_loads(tree)))
        tasks = _derived_tasks(body, locals_, loads, drives, order)
        self.comb = (
            tuple((s.targets[0].id, ast.unparse(s.value)) for s in head),
            tasks,
            tuple(sorted(_pairs(_reads(body, loads)) & set(opposite),
                         key=order.get)))
        try:
            slices = [_task_slice(body, locals_, loads, writes)
                      for _reads, writes in tasks]
        except _Refused:
            return None
        return _shared(body, slices)

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
            if n.attr not in ALL_SIGNALS or not isinstance(n.ctx, ast.Load):
                raise _Refused
            if n.attr == "data" and (port, "data") in (
                    self.drives or set()) - self.written:
                return ast.Constant(None)  # a data drive, unknown until made
            return ast.Name(f"@{port}@{n.attr}", ast.Load())
        if _self_attr(n, self.me) is None:
            return self.generic_visit(n)
        if n.attr in self.arity and isinstance(n.ctx, ast.Load):
            return ast.Constant(self.arity[n.attr])      # the node's shape
        if n.attr in _CHANNEL_ACCESS:
            raise _Refused
        _check_helper(self.cls, n.attr, self.seen)
        return ast.Attribute(ast.Name("@", ast.Load()), n.attr, n.ctx)

    def visit_BoolOp(self, n):
        # `None is None`, the test of a data drive not made yet, leaves `and`
        n = self.generic_visit(n)
        if isinstance(n.op, ast.And):
            n.values = [v for v in n.values if ast.dump(v) != _NONE_IS_NONE
                        ] or [ast.Constant(True)]
        return n if len(n.values) > 1 else n.values[0]

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


def _loads(tree):
    """The names ``tree`` loads, repeats included."""
    return [n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)]


def _reads(body, loads=_loads):
    """The channel locals (``@<port>@<signal>``) ``body`` reads
    (``loads``: the names a tree loads)."""
    names = set()
    for s in body:
        if isinstance(s, ast.If):
            names |= (set(loads(s.test)) | _reads(s.body, loads)
                      | _reads(s.orelse, loads))
        else:
            names.update(loads(s))
    return {name for name in names if name[:1] == "@" and name != "@"}


def _pairs(names):
    """The ``(port, signal)`` pairs of channel locals ``names``."""
    return {tuple(name[1:].split("@")) for name in names}


def _derived_tasks(body, locals_, loads, drives, order):
    """comb's signal tasks, ``(reads, writes)`` pairs sorted by ``order``:
    the ``drives`` with equal reads in their slices of ``body`` form one
    task, and a port's data drive joins the task of its vp."""
    def reads(pair):
        name = "@%s@%s" % pair
        found = _reads(_sliced(body, {name}, locals_, loads)[0], loads)
        return found - {name} if pair[1] == "data" else found

    groups = {}               # reads -> writes
    for pair in drives:
        if pair[1] != "data":
            groups.setdefault(frozenset(reads(pair)), []).append(pair)
    tasks = [[set(found), writes] for found, writes in groups.items()]
    for pair in drives:
        if pair[1] == "data":
            task = next(t for t in tasks if (pair[0], "vp") in t[1])
            task[0] |= reads(pair)
            task[1].append(pair)
    return tuple((tuple(sorted(_pairs(found), key=order.get)),
                  tuple(sorted(writes, key=order.get)))
                 for found, writes in tasks)


def _sliced(body, keep, locals_, loads, live=frozenset()):
    """``(statements, live)``: ``body`` reduced to what the drives in
    ``keep`` need (see the comment above; ``locals_`` are the method's
    locals), and the names live before it given ``live`` after it."""
    out = []
    for s in reversed(body):
        if isinstance(s, ast.If):
            then, live_then = _sliced(s.body, keep, locals_, loads, live)
            other, live_other = _sliced(s.orelse, keep, locals_, loads, live)
            if not (then or other):
                continue
            s = ast.If(s.test, then or [ast.Pass()], other)
            live = live_then | live_other | loads(s.test)
        elif isinstance(s, ast.Pass):
            continue
        else:
            targets = getattr(s, "targets", [getattr(s, "target", None)])
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            uses = loads(s)
            if isinstance(s, (ast.Raise, ast.Assert)):
                needed = uses & locals_ <= live
            elif names and len(names) == len(targets):
                needed = any(name in keep if name[0] == "@" else name in live
                             for name in names)
            else:
                needed = True        # a call or a store to node state
            if not needed:
                continue
            if isinstance(s, ast.AugAssign):
                uses |= names
            live = live - names | uses
        out.append(s)
    return out[::-1], live


def _seeds_folded(body):
    """``body`` with each ``x = True`` whose next use is ``x = x and e``
    folded into ``x = e``: the first step of an unrolled conjunction."""
    out, last = [], {}        # name -> index in out of its last use
    for s in body:
        x = getattr(s.targets[0], "id", None) if isinstance(
            s, ast.Assign) and len(s.targets) == 1 else None
        seed = out[last[x]] if x in last else None
        step = s.value if isinstance(s, ast.Assign) else None
        if (isinstance(step, ast.BoolOp) and isinstance(step.op, ast.And)
                and getattr(step.values[0], "id", None) == x
                and isinstance(seed, ast.Assign) and len(seed.targets) == 1
                and getattr(seed.value, "value", None) is True):
            out[last[x]] = None
            rest = step.values[1:]
            s = ast.Assign(s.targets, rest[0] if len(rest) == 1
                           else ast.BoolOp(ast.And(), rest), lineno=0)
        last.update((n.id, len(out)) for n in ast.walk(s)
                    if isinstance(n, ast.Name))
        out.append(s)
    return [s for s in out if s is not None]


def _assigned(body):
    """The names every path through ``body`` assigns; None when no path
    falls through it."""
    out = set()
    for s in body:
        if isinstance(s, ast.Raise):
            return None
        if isinstance(s, ast.If):
            then, other = _assigned(s.body), _assigned(s.orelse)
            if then is None and other is None:
                return None
            out |= (other if then is None else then if other is None
                    else then & other)
        elif isinstance(s, ast.Assign):
            out.update(t.id for t in s.targets if isinstance(t, ast.Name))
    return out


def _assigned_name(body):
    """``x`` when ``body`` is the one statement ``x = e``, else None."""
    if (len(body) == 1 and isinstance(body[0], ast.Assign)
            and len(body[0].targets) == 1
            and isinstance(body[0].targets[0], ast.Name)):
        return body[0].targets[0].id
    return None


def _finished(body, fed):
    """``body`` as rendered: each ``x = <data read in fed>`` followed by a
    guard that hands an unknown ``x`` to
    :meth:`~repro.backend.pysim.CodegenBackend.diagnose_unknown` (which
    raises, so ``x is not None`` is True after it until ``x`` is assigned
    again), and a branch that assigns one name on both sides as ``x = a
    if c else b``."""
    return [s for group in _finished_groups(body, fed) for s in group]


def _finished_groups(body, fed):
    """:func:`_finished`, one list per statement of ``body`` (the
    statement and its guard, if any)."""
    out, known = [], set()
    for s in body:
        if known:
            known -= _stores(s)
        if known:
            s = _NotNone(known).visit(copy.deepcopy(s))
        if isinstance(s, ast.If):
            then, other = _finished(s.body, fed), _finished(s.orelse, fed)
            name = _assigned_name(then)
            s = (ast.Assign(then[0].targets, ast.IfExp(
                s.test, then[0].value, other[0].value), lineno=0)
                if name is not None and name == _assigned_name(other)
                else ast.If(s.test, then, other))
        out.append([s])
        if isinstance(s, ast.Assign) and getattr(s.value, "id", None) in fed:
            out[-1] += ast.parse(f"if {s.targets[0].id} is None:\n"
                                 f"    _udiag(cycle, {s.value.id!r})").body
            known.add(s.targets[0].id)
    return out


def _is_const(e, value):
    return isinstance(e, ast.Constant) and e.value is value


class _NotNone(ast.NodeTransformer):
    """``x is not None`` as True for the names ``known`` not to be None,
    and a True operand but the last left out of an ``and`` (which gives
    the same value)."""

    def __init__(self, known):
        self.known = known

    def visit_Compare(self, n):
        n = self.generic_visit(n)
        if (isinstance(n.left, ast.Name) and n.left.id in self.known
                and len(n.ops) == 1 and isinstance(n.ops[0], ast.IsNot)
                and _is_const(n.comparators[0], None)):
            return ast.Constant(True)
        return n

    def visit_BoolOp(self, n):
        n = self.generic_visit(n)
        if isinstance(n.op, ast.And):
            *init, last = n.values
            n.values = [v for v in init if not _is_const(v, True)] + [last]
        return n if len(n.values) > 1 else n.values[0]


def _task_slice(body, locals_, loads, writes):
    """comb's task writing ``writes``: comb's rendered ``body`` sliced to
    it, its control-feeding data reads guarded, as one list of statements
    per top-level statement kept; refused when it may leave a control
    write unassigned."""
    writes = {"@%s@%s" % pair for pair in writes}
    controls = {w for w in writes if not w.endswith("@data")}
    stmts = _sliced(body, writes, locals_, loads)[0]
    assigned = _assigned(stmts)
    fed = {r for r in _reads(_sliced(body, controls, locals_, loads)[0],
                             loads) if r.endswith("@data")}
    direct = [n for s in stmts for n in ast.walk(s)
              if isinstance(n, ast.Assign) and len(n.targets) == 1
              and isinstance(n.targets[0], ast.Name)
              and getattr(n.value, "id", None) in fed]
    if (assigned is not None and not controls <= assigned
            or fed & writes
            or len(direct) != sum(name in fed for s in stmts
                                  for name in _loads(s))):
        raise _Refused
    return _finished_groups(stmts, fed)


def _stores(tree):
    """The names ``tree`` assigns."""
    return {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}


def _versioned(body, locals_):
    """``body`` with each local that only top-level assignments store, and
    more than one does, renamed per assignment (``_x_``, ``_x_1_``, ...)
    and its reads renamed to the assignment they see: every top-level
    assignment of such a local then names a value of its own."""
    stores, top = {}, {}
    for s in body:
        for name in _stores(s):
            stores[name] = stores.get(name, 0) + 1
        name = _assigned_name([s])
        if name is not None:
            top[name] = top.get(name, 0) + 1
    renamed = {x for x, count in top.items() if count > 1 and stores[x] == count
               and x in locals_ and not any(f"{x}{k}_" in locals_
                                            for k in range(1, count))}
    seen, current = {}, {}
    for s in body:
        for n in ast.walk(s):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) \
                    and n.id in current:
                n.id = current[n.id]
        name = _assigned_name([s])
        if name in renamed:
            k = seen[name] = seen.get(name, -1) + 1
            current[name] = s.targets[0].id = f"{name}{k}_" if k else name
    return body


#: builtins a computation shared between tasks may call (the mux's range
#: check calls isinstance)
_PURE_CALLS = frozenset({"isinstance"})


def _outside_raise(tree):
    """The nodes of ``tree`` that no ``raise`` statement contains."""
    todo = [tree]
    while todo:
        n = todo.pop()
        if not isinstance(n, ast.Raise):
            yield n
            todo.extend(ast.iter_child_nodes(n))


def _computes(s):
    """Whether top-level statement ``s`` only computes method locals: it
    stores no channel local, attribute or item, reads no attribute and
    calls nothing but :data:`_PURE_CALLS`, except in a ``raise``."""
    return all(
        not (isinstance(n, (ast.Attribute, ast.Subscript))
             and isinstance(n.ctx, ast.Store))
        and not (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
                 and n.id[:1] == "@")
        and not (isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))
        and not (isinstance(n, ast.Call) and getattr(
            n.func, "id", None) not in _PURE_CALLS)
        for n in _outside_raise(s))


def _shared(body, slices):
    """The task ``slices`` as ``((key, text), ...)`` chunks per task.

    A top-level statement of ``body`` that only computes locals
    (:func:`_computes`), is the only one storing them, reads no local
    computed otherwise and renders alike in two or more tasks is *shared*:
    its locals get the node's name (``_x_@``) and its chunk carries its
    index as ``key``, so the cycle runs it in the first of those tasks
    scheduled.  Every value it reads is then settled before that task: a
    channel local is one of its reads, and a local is shared too.  Other
    statements form chunks of key None."""
    stores = [_stores(s) for s in body]
    owner = {}                # local -> index of the one statement storing it
    for k, names in enumerate(stores):
        for name in names:
            owner[name] = None if name in owner else k
    texts = {}                # index -> its chunk's texts, one per task
    keyed = []                # per task: [(index or None, statements)]
    for stmts in slices:
        chunks = []
        for chunk in stmts:
            stored = {owner.get(name) for name in _stores(chunk[0])}
            k = stored.pop() if len(stored) == 1 else None
            chunks.append((k, chunk))
            if k is not None:
                texts.setdefault(k, []).append(
                    ast.unparse(ast.Module(chunk, [])))
        keyed.append(chunks)
    shared, names = set(), set()
    for k, (s, own) in enumerate(zip(body, stores)):
        if (len(texts.get(k, ())) > 1 and len(set(texts[k])) == 1
                and _computes(s) and all(
                    name in names or name in own
                    for name in set(_loads(s)) & set(owner))
                and all(owner[name] == k for name in own)):
            shared.add(k)
            names |= own
    out = []
    for chunks in keyed:
        task = []
        for k, chunk in chunks:
            for n in (n for s in chunk for n in ast.walk(s)):
                if isinstance(n, ast.Name) and n.id in names:
                    n.id += "@"
            key = k if k in shared else None
            text = ast.unparse(ast.Module(chunk, []))
            if task and key is None and task[-1][0] is None:
                task[-1] = (None, task[-1][1] + "\n" + text)
            else:
                task.append((key, text))
        out.append(tuple(task))
    return tuple(out)
