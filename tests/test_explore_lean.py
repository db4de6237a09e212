"""The explorer's per-transition shortcuts, each pinned to what it replaces.

* **Shared choice maps** — ``Simulator.expand`` returns one read-only
  :class:`~repro.sim.engine.ChoiceMap` per cached choice vector, and every
  :class:`~repro.verif.explore.Transition` taken with that vector keeps the
  same object: it compares, prints, JSON-encodes and pickles as the plain
  dict it replaces, and a mutation raises.
* **Columnar checkpoints** — a flushed body holds sources, targets and
  the shared maps, no ``Transition``; a checkpoint of the previous format
  starts afresh.
* **Inline state access** — the compiled expansion entry restores and
  snapshots with straight-line slot assignments and reads, calling no
  state accessor; a node that keeps its own snapshot is still called.
* **Pinned graphs** — the explored graphs (states in discovery order,
  every transition's source, target and choices, violations and
  completeness) of every model-checking design and of the benchmark's
  three stall-chaos wraps, on both engines, hash to the digests the
  explorer produced before these shortcuts.
"""

import copy
import hashlib
import json
import pickle

import pytest

from repro.backend import pysim
from repro.core.scheduler import ToggleScheduler
from repro.designs import DESIGNS, MC_DESIGNS, _buffer_mc, build_mc_design
from repro.elastic.buffers import ElasticBuffer
from repro.elastic.node import Stateful
from repro.netlist import patterns
from repro.runtime.checkpoint import content_key, save_checkpoint
from repro.sim.engine import ChoiceMap, Simulator
from repro.verif.explore import StateExplorer, Transition

import test_node_state
from test_packed_signals import CHAOS_WRAPS, stall_wrapped

ENGINES = ("worklist", "codegen")


def explored(name, engine="codegen", **kwargs):
    explorer = StateExplorer(build_mc_design(name), engine=engine, **kwargs)
    return explorer, explorer.explore()


# -- shared choice maps ------------------------------------------------------


class TestChoiceMaps:
    def test_transition_choices_are_read_only(self):
        _explorer, result = explored("spec-nondet")
        choices = result.transitions[0].choices
        assert isinstance(choices, ChoiceMap)
        before = dict(choices)
        name = next(iter(choices))
        mutations = [
            lambda: choices.__setitem__(name, 7),
            lambda: choices.__delitem__(name),
            lambda: choices.update({name: 7}),
            lambda: choices.setdefault("other", 7),
            lambda: choices.pop(name),
            lambda: choices.popitem(),
            lambda: choices.clear(),
        ]
        for mutate in mutations:
            with pytest.raises(TypeError):
                mutate()
        with pytest.raises(TypeError):
            choices |= {name: 7}
        assert choices == before

    def test_behaves_as_the_plain_dict(self):
        plain = {"src": 1, "snk": 0, "sched": 2}
        shared = ChoiceMap(plain)
        assert shared == plain and plain == shared
        assert not shared != plain
        assert list(shared.items()) == list(plain.items())
        assert repr(shared) == repr(plain) == str(shared)
        assert json.dumps(shared) == json.dumps(plain)
        assert json.dumps({"t": [shared]}, sort_keys=True) \
            == json.dumps({"t": [plain]}, sort_keys=True)
        assert f"choices {shared}" == f"choices {plain}"
        # the copies are plain, writable dicts
        for dup in (dict(shared), shared.copy(), shared | {}):
            assert type(dup) is dict and dup == plain
        assert repr(Transition(0, 1, shared)) == repr(Transition(0, 1, plain))
        assert Transition(0, 1, shared) == Transition(0, 1, plain)

    def test_pickle_round_trip(self):
        shared = ChoiceMap({"src": 1, "snk": 0})
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(shared, protocol))
            assert type(back) is ChoiceMap and back == shared
            with pytest.raises(TypeError):
                back["src"] = 0
        # sharing survives: one object in, one object out
        pair = pickle.loads(pickle.dumps([shared, shared]))
        assert pair[0] is pair[1]
        assert copy.deepcopy(shared) == shared
        assert type(copy.deepcopy(shared)) is ChoiceMap

    @pytest.mark.parametrize("engine", ENGINES)
    def test_one_map_per_cached_vector(self, engine):
        """Counter guard: the transitions of ``spec-nondet`` hold no more
        distinct choice objects than the simulator cached vectors."""
        explorer, result = explored("spec-nondet", engine=engine)
        cached = [choices for vectors in explorer.sim._vectors.values()
                  for _vector, choices in vectors]
        distinct = {id(t.choices) for t in result.transitions}
        assert len(result.transitions) == 5328
        assert len(distinct) <= len(cached)
        assert distinct <= {id(choices) for choices in cached}

    @pytest.mark.parametrize("engine", ENGINES)
    def test_expand_returns_the_cached_maps(self, engine):
        sim = Simulator(build_mc_design("spec-toggle"), check_protocol=False,
                        engine=engine)
        snapshot = sim.netlist.snapshot()
        first = sim.expand(snapshot)
        again = sim.expand(snapshot)
        assert len(first) > 1
        assert all(a[0] is b[0] and type(a[0]) is ChoiceMap
                   for a, b in zip(first, again))


# -- columnar checkpoints ----------------------------------------------------


class TestColumnarCheckpoint:
    def test_flushed_body_pickles_no_transition(self, tmp_path):
        path = tmp_path / "toggle.ckpt"
        explorer, result = explored("spec-toggle", checkpoint=str(path))
        raw = path.read_bytes()
        assert raw.split(b"\n")[1] == b"explore-v4"
        assert b"Transition" not in raw
        assert b"ChoiceMap" in raw
        body = pickle.loads(raw.split(b"\n", 5)[5])
        assert "transitions" not in body
        assert body["sources"] == [t.source for t in result.transitions]
        assert body["targets"] == [t.target for t in result.transitions]
        assert body["choices"] == [t.choices for t in result.transitions]
        # each shared map is stored once
        cached = sum(map(len, explorer.sim._vectors.values()))
        assert (len({id(c) for c in body["choices"]})
                == len({id(t.choices) for t in result.transitions})
                <= cached < len(result.transitions) / 10)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_resume_rebuilds_records_and_sharing(self, tmp_path, engine):
        path = tmp_path / "nondet.ckpt"
        _explorer, first = explored("spec-nondet", engine=engine,
                                    checkpoint=str(path))
        _explorer, again = explored("spec-nondet", engine=engine,
                                    checkpoint=str(path))
        assert again.transitions == first.transitions
        assert all(type(t) is Transition and type(t.choices) is ChoiceMap
                   for t in again.transitions)
        assert (len({id(t.choices) for t in again.transitions})
                == len({id(t.choices) for t in first.transitions}))

    def test_v3_checkpoint_is_not_resumed(self, tmp_path):
        """A hand-written ``explore-v3`` file (transitions as a list of
        records) claiming a finished exploration of six states: it cannot
        resume, so the exploration starts fresh and completes."""
        _explorer, full = explored("eb", engine="worklist")
        path = tmp_path / "v3.ckpt"
        save_checkpoint(str(path), "explore-v3", content_key(("v3", "eb")), {
            "states": full.states[:6],
            "transitions": [Transition(t.source, t.target, dict(t.choices))
                            for t in full.transitions
                            if t.source < 6 and t.target < 6],
            "violations": [],
            "complete": True,
            "next_index": 6,
        }, codec="pickle")
        test_node_state.TestKeys._starts_fresh(tmp_path, str(path))


# -- inline state access in the expansion entry ------------------------------


def _expand_sources():
    cases = [pytest.param(MC_DESIGNS[name], id=f"mc:{name}")
             for name in sorted(MC_DESIGNS)]
    cases += [pytest.param(DESIGNS[name], id=f"design:{name}")
              for name in sorted(DESIGNS)]
    cases += [pytest.param(lambda d=design: stall_wrapped(d),
                           id=f"chaos:{design}")
              for design, _cap in CHAOS_WRAPS]
    return cases


class OwnSnapshotBuffer(ElasticBuffer):
    """An elastic buffer that keeps its own snapshot form: its state
    tagged and in reverse slot order."""

    def snapshot(self):
        return ("own",) + Stateful.snapshot(self)[::-1]

    def restore(self, state):
        assert state[0] == "own"
        Stateful.restore(self, state[:0:-1])


class OwnSnapshotToggle(ToggleScheduler):
    """A shared module's scheduler (the module's state holder) that keeps
    its own snapshot form."""

    def snapshot(self):
        return ("toggle", self._current)

    def restore(self, state):
        self._current = state[1]


def own_snapshot_eb():
    return _buffer_mc(lambda: OwnSnapshotBuffer("eb"))


def own_snapshot_speculative():
    return patterns.speculative_mc(OwnSnapshotToggle(2))[0]


class TestInlineStateAccess:
    @pytest.mark.parametrize("make", _expand_sources())
    def test_expand_entry_calls_no_state_accessor(self, make):
        net = make()
        source = pysim.generated_source(net, entry="expand")
        assert "0 deferred" in source
        for call in ("state_access", "_snap", "_restore", ".snapshot(",
                     ".restore("):
            assert call not in source
        # every declared slot is read and assigned inline
        assert ",) = snapshot" in source

    @pytest.mark.parametrize("make, plain", [
        pytest.param(own_snapshot_eb, "eb", id="node"),
        pytest.param(own_snapshot_speculative, "spec-toggle", id="holder"),
    ])
    def test_own_snapshot_explores_identically(self, make, plain):
        source = pysim.generated_source(make(), entry="expand")
        assert "0 deferred" in source
        assert ".snapshot()" in source and ".restore(_st" in source
        results = [StateExplorer(make(), engine=engine).explore()
                   for engine in ENGINES]
        worklist, codegen = results
        assert codegen.states == worklist.states
        assert codegen.transitions == worklist.transitions
        assert codegen.violations == worklist.violations
        assert codegen.complete == worklist.complete
        # the own snapshot form changes the states' shape, not the graph;
        # the plain design (same topology, another state layout) gets an
        # expansion module of its own
        reference, plain_codegen = [
            StateExplorer(build_mc_design(plain), engine=engine).explore()
            for engine in ENGINES]
        assert plain_codegen.states == reference.states
        assert codegen.n_states == reference.n_states
        assert ([(t.source, t.target, t.choices) for t in codegen.transitions]
                == [(t.source, t.target, t.choices)
                    for t in reference.transitions])
        assert codegen.violations == reference.violations


# -- pinned graphs -----------------------------------------------------------


def graph_digest(result):
    """sha256 over the repr of everything an exploration produced."""
    text = repr((result.states, result.transitions, result.violations,
                 result.complete, result.stopped, result.channel_names))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


#: graph digests recorded with the explorer that copied each transition's
#: choices into a fresh dict and snapshotted through the netlist's
#: accessor; identical on both engines.
GRAPH_DIGESTS = {
    "mc:eb": "c2d4c00aa57fbc18",
    "mc:spec-nondet": "c52a9fcb1165516e",
    "mc:spec-static": "83e8e379fef20dbb",
    "mc:spec-toggle": "c0126c794b2b7157",
    "mc:zbl": "8311f530fd7ece31",
    "chaos:fig1a": "6b2cb84011f74a50",
    "chaos:fig1d": "278a06a125ecc9df",
    "chaos:fig6b": "6208f87641167b41",
}


def _graph_cases():
    cases = [pytest.param(f"mc:{name}", lambda n=name: build_mc_design(n),
                          60000, id=f"mc:{name}")
             for name in sorted(MC_DESIGNS)]
    cases += [pytest.param(f"chaos:{design}",
                           lambda d=design: stall_wrapped(d), cap,
                           id=f"chaos:{design}")
              for design, cap in CHAOS_WRAPS]
    return cases


class TestGraphsPinned:
    def test_table_covers_every_case(self):
        assert sorted(GRAPH_DIGESTS) == sorted(
            [f"mc:{name}" for name in MC_DESIGNS]
            + [f"chaos:{design}" for design, _cap in CHAOS_WRAPS])

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("label, make, cap", _graph_cases())
    def test_graph_unchanged(self, label, make, cap, engine):
        result = StateExplorer(make(), max_states=cap,
                               engine=engine).explore()
        assert graph_digest(result) == GRAPH_DIGESTS[label]
