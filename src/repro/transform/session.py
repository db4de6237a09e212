"""Scripted design-space exploration (the Section 5 toolkit).

"Our toolkit can apply all of the known correct-by-construction
transformations under the user guidance in the form of command scripts
within an interactive shell ... The user can perform transformations,
visualize the modified graph, undo and redo the transformations."

:class:`Session` provides exactly that: named transformations applied to a
working copy of the design, an undo/redo stack, a command-string interface
for scripts, dot export and performance reports.

History is the netlist's **edit log**, not clones: every transformation
records the structured :class:`~repro.netlist.edits.NetlistEdit` stream it
caused, and undo/redo replay inverse (forward) edits in place — memory is
O(history x edit) instead of O(history x netlist), ``session.netlist``
stays the *same object* across undo/redo (so a warm, edit-following
simulator survives), and a transformation that fails — including one that
only fails structural validation *after* mutating — is rolled back exactly,
edit by edit.  Undo/redo rewind **structure** only; sequential state
(buffer tokens, RNG positions) is carried by the surviving node objects —
rewind it explicitly with :meth:`Netlist.snapshot` / ``restore`` when
needed (simulation-based measurement resets state anyway).

The warm-loop API: :meth:`simulator` hands out one live simulator that
follows every transformation through the edit log, and :meth:`measure`
/ :meth:`mcr` score the current design point without the per-step
clone-and-rebuild the exploration loop used to pay.
"""

from __future__ import annotations

import shlex

from repro.errors import TransformError
from repro.transform.bubbles import insert_bubble, insert_zbl_buffer, remove_empty_buffer
from repro.transform.early_eval import convert_to_early_eval
from repro.transform.retiming import retime_backward, retime_forward
from repro.transform.shannon import shannon_decompose
from repro.transform.sharing import share_blocks


class Session:
    """An undoable transformation session over an elastic netlist."""

    def __init__(self, netlist, max_history=64, lint_after_transforms=False):
        self.netlist = netlist.clone()
        self.max_history = max_history
        #: when True, every transformation additionally runs the default
        #: lint rule set (the static rules) with ``fail_on="error"``
        #: *inside* the rollback scope — a transform that produces a
        #: design violating an elastic invariant (e.g. a zero-bubble
        #: cycle) is rolled back like a validation failure, and the raised
        #: :class:`~repro.errors.LintError` carries the full report.
        self.lint_after_transforms = lint_after_transforms
        self._undo = []          # (kind, [forward edits]) entries
        self._redo = []
        self.log = []
        self._recording = None
        self._sim = None
        self.netlist.subscribe(self._on_edit)

    # -- core mechanics --------------------------------------------------------

    def _on_edit(self, edit):
        if self._recording is not None:
            self._recording.append(edit)

    def _replay(self, edits, inverse):
        """Replay ``edits`` (or their inverses, in reverse) on the netlist;
        subscribers — e.g. the warm simulator — observe every step."""
        if inverse:
            for edit in reversed(edits):
                edit.inverse().apply(self.netlist)
        else:
            for edit in edits:
                edit.apply(self.netlist)

    def _apply(self, kind, fn, *args, **kwargs):
        edits = []
        self._recording = edits
        try:
            result = fn(self.netlist, *args, **kwargs)
            # Validation belongs *inside* the rollback scope: a transform
            # that yields a structurally invalid netlist must restore the
            # pre-transform design, not leave the session on the corrupted
            # one.
            self.netlist.validate()
            if self.lint_after_transforms:
                from repro.lint import run_lint

                run_lint(self.netlist, fail_on="error")
        except Exception:
            self._recording = None
            self._replay(edits, inverse=True)
            raise
        finally:
            self._recording = None
        self._undo.append((kind, edits))
        if len(self._undo) > self.max_history:
            self._undo.pop(0)
        self._redo.clear()
        self.log.append(kind)
        return result

    def undo(self):
        if not self._undo:
            raise TransformError("nothing to undo")
        kind, edits = self._undo.pop()
        self._replay(edits, inverse=True)
        self._redo.append((kind, edits))
        self.log.append(f"undo {kind}")
        return kind

    def redo(self):
        if not self._redo:
            raise TransformError("nothing to redo")
        kind, edits = self._redo.pop()
        self._replay(edits, inverse=False)
        self._undo.append((kind, edits))
        self.log.append(f"redo {kind}")
        return kind

    # -- named transformations --------------------------------------------------

    def insert_bubble(self, channel, name=None, capacity=2):
        return self._apply(
            f"insert_bubble {channel}", insert_bubble, channel, name=name, capacity=capacity
        )

    def insert_zbl(self, channel, name=None):
        return self._apply(f"insert_zbl {channel}", insert_zbl_buffer, channel, name=name)

    def remove_buffer(self, eb):
        return self._apply(f"remove_buffer {eb}", remove_empty_buffer, eb)

    def retime_forward(self, func):
        return self._apply(f"retime_forward {func}", retime_forward, func)

    def retime_backward(self, eb):
        return self._apply(f"retime_backward {eb}", retime_backward, eb)

    def shannon(self, mux, func):
        return self._apply(f"shannon {mux} {func}", shannon_decompose, mux, func)

    def early_eval(self, mux):
        return self._apply(f"early_eval {mux}", convert_to_early_eval, mux)

    def share(self, funcs, scheduler, name=None, check_same_fn=True):
        return self._apply(
            f"share {' '.join(funcs)}", share_blocks, list(funcs), scheduler,
            name=name, check_same_fn=check_same_fn,
        )

    # -- command-string interface --------------------------------------------------

    def run_command(self, command, schedulers=None):
        """Execute one command string, e.g.::

            insert_bubble ch_f_out
            shannon mux0 F
            early_eval mux0
            share F_c0 F_c1 --scheduler=toggle [--force]
            undo / redo

        ``--force`` shares blocks even when they compute different
        functions (``check_same_fn=False``).

        ``schedulers`` maps names usable in ``--scheduler=`` to factory
        callables ``(n_channels) -> Scheduler``.
        """
        from repro.core.scheduler import (
            PrimaryScheduler,
            RepairScheduler,
            StaticScheduler,
            ToggleScheduler,
        )

        default_factories = {
            "toggle": lambda n: ToggleScheduler(n),
            "repair": lambda n: RepairScheduler(n),
            "static": lambda n: StaticScheduler(n),
            "primary": lambda n: PrimaryScheduler(n),
        }
        factories = {**default_factories, **(schedulers or {})}
        parts = shlex.split(command)
        if not parts:
            return None
        op, args = parts[0], parts[1:]
        options = {}
        positional = []
        for arg in args:
            if arg.startswith("--"):
                key, _, value = arg[2:].partition("=")
                options[key] = value or True
            else:
                positional.append(arg)
        if op == "insert_bubble":
            return self.insert_bubble(positional[0])
        if op == "insert_zbl":
            return self.insert_zbl(positional[0])
        if op == "remove_buffer":
            return self.remove_buffer(positional[0])
        if op == "retime_forward":
            return self.retime_forward(positional[0])
        if op == "retime_backward":
            return self.retime_backward(positional[0])
        if op == "shannon":
            return self.shannon(positional[0], positional[1])
        if op == "early_eval":
            return self.early_eval(positional[0])
        if op == "share":
            factory_name = options.get("scheduler", "toggle")
            if factory_name not in factories:
                raise TransformError(f"unknown scheduler {factory_name!r}")
            scheduler = factories[factory_name](len(positional))
            return self.share(positional, scheduler, name=options.get("name"),
                              check_same_fn=not options.get("force"))
        if op == "undo":
            return self.undo()
        if op == "redo":
            return self.redo()
        raise TransformError(f"unknown command {op!r}")

    def run_script(self, script, schedulers=None):
        """Run a multi-line command script (``#`` starts a comment)."""
        results = []
        for line in script.splitlines():
            line = line.split("#", 1)[0].strip()
            if line:
                results.append(self.run_command(line, schedulers=schedulers))
        return results

    # -- warm transform-simulate-measure loop ------------------------------------------

    def simulator(self, **kwargs):
        """One warm :class:`~repro.sim.engine.Simulator` attached to this
        session's netlist.

        The simulator follows every subsequent transformation (and
        undo/redo) through the netlist's edit log — it refreshes its
        structures in place instead of being rebuilt per step.  The instance
        is cached; it is replaced automatically if it stopped following
        (e.g. a newer simulator took ownership of the netlist).
        ``kwargs`` are forwarded to the Simulator constructor on
        (re)creation.
        """
        from repro.sim.engine import Simulator

        sim = self._sim
        if (sim is None or sim._followed is not self.netlist
                or self.netlist.version != sim._netlist_version):
            if sim is not None:
                sim.detach()
            sim = Simulator(self.netlist, follow_edits=True, **kwargs)
            self._sim = sim
        return sim

    def measure(self, channel, cycles=2000, warmup=100, tech=None, **kwargs):
        """Measured throughput of the *current* design point on ``channel``
        (see :func:`repro.perf.throughput.measure_throughput`), reusing the
        session's warm simulator: the netlist is reset and run in place —
        no clone, no simulator rebuild."""
        from repro.perf.throughput import measure_throughput

        return measure_throughput(
            self.netlist, channel, cycles=cycles, warmup=warmup, tech=tech,
            reuse_simulator=self.simulator(**kwargs),
        )

    def mcr(self, force=False):
        """Analytical minimum cycle ratio of the current design point,
        memoized on the netlist's structural version (transform loops
        re-analyze only after an actual edit)."""
        from repro.perf.mcr import cached_min_cycle_ratio

        return cached_min_cycle_ratio(self.netlist, force=force)

    # -- reporting ---------------------------------------------------------------------

    def to_dot(self):
        from repro.netlist.dot import to_dot

        return to_dot(self.netlist)

    def report(self, tech=None, sel_stream=None):
        from repro.perf.report import performance_report

        return performance_report(self.netlist, tech=tech)
