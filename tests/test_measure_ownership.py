"""``measure_throughput`` runs on the netlist it is given.

The owner contract: a fresh simulator takes the netlist over and resets
it, so back-to-back measurements of one netlist agree with each other and
with a measurement of a clone taken first, and a simulator built on the
netlist earlier is superseded.  The guard counts deep copies on a sweep's
per-configuration path (and a ``repro serve`` measure job's): there must
be none, since every configuration measures the netlist built for it.
"""

import copy

import pytest

from repro.designs import DESIGNS, build_design
from repro.netlist.graph import Netlist
from repro.perf.presets import PRESET_SWEEPS
from repro.perf.sweep import SweepSpec, run_sweep
from repro.perf.throughput import measure_throughput
from repro.serve.jobs import run_job, validate_job
from repro.sim.engine import Simulator

#: the measured channel of each canned design (a pattern names-key)
CHANNELS = {"fig1a": "ebin", "fig1d": "ebin", "fig6b": "out", "fig7b": "out"}


def _design(name):
    net, names = build_design(name, with_names=True)
    return net, names[CHANNELS[name]]


def _figures(result):
    return result.transfers, result.cycles, result.throughput


class TestOwnerContract:
    def test_every_design_is_named(self):
        assert set(CHANNELS) == set(DESIGNS)

    @pytest.mark.parametrize("design", sorted(CHANNELS))
    def test_back_to_back_measurements_match_a_clone(self, design):
        net, channel = _design(design)
        reference = measure_throughput(net.clone(), channel, cycles=150,
                                       warmup=20)
        first = measure_throughput(net, channel, cycles=150, warmup=20)
        second = measure_throughput(net, channel, cycles=150, warmup=20)
        assert _figures(first) == _figures(reference)
        assert _figures(second) == _figures(reference)

    @pytest.mark.parametrize("design", sorted(CHANNELS))
    def test_earlier_simulator_is_superseded(self, design):
        net, channel = _design(design)
        earlier = Simulator(net)
        earlier.run(3)
        measure_throughput(net, channel, cycles=20, warmup=5)
        with pytest.raises(RuntimeError, match="owned by a newer Simulator"):
            earlier.step()


# -- no deep copy on the per-configuration path ---------------------------------


def _slice(preset):
    """A short slice of a preset grid: every third of its design points,
    30 measured cycles each."""
    grid = PRESET_SWEEPS[preset](cycles=30, warmup=10)
    configs = grid.expand()
    points = [dict(c.params, sim_channel=c.channel, label=c.name)
              for c in configs[::max(1, len(configs) // 3)]]
    return SweepSpec(name=grid.name, factory=grid.factory, points=points,
                     channel=grid.channel, cycles=grid.cycles,
                     warmup=grid.warmup)


@pytest.fixture
def copies(monkeypatch):
    """Counts every ``copy.deepcopy`` and ``Netlist.clone`` call."""
    calls = []
    deepcopy, clone = copy.deepcopy, Netlist.clone

    def counting_deepcopy(*args, **kwargs):
        calls.append("deepcopy")
        return deepcopy(*args, **kwargs)

    def counting_clone(self):
        calls.append("clone")
        return clone(self)

    monkeypatch.setattr(copy, "deepcopy", counting_deepcopy)
    monkeypatch.setattr(Netlist, "clone", counting_clone)
    return calls


class TestNoDeepCopy:
    @pytest.mark.parametrize("engine", ["worklist", "codegen"])
    @pytest.mark.parametrize("preset", ["fig1", "fig1-accuracy", "fig6",
                                        "fig7"])
    def test_serial_sweep(self, copies, preset, engine):
        result = run_sweep(_slice(preset), n_workers=1, engine=engine)
        assert not result.failures
        assert any(row["throughput_source"] == "simulation"
                   for row in result.rows)
        assert copies == []

    def test_serve_measure_job(self, copies):
        row = run_job(validate_job({"kind": "measure", "design": "fig6b",
                                    "channel": "out", "cycles": 40,
                                    "warmup": 10}))
        assert row["throughput_source"] == "simulation"
        assert copies == []

    def test_the_guard_counts(self, copies):
        """The counter sees a clone (so a zero above means none ran)."""
        net, _channel = _design("fig1a")
        net.clone()
        assert "clone" in copies and "deepcopy" in copies
