"""Sharded design-space sweep tests (``repro.perf.sweep``).

The load-bearing guarantees: spec expansion is deterministic and
order-stable, the merged report is byte-identical for serial vs sharded
runs, and the parent's fix-point engine choice propagates into spawn
workers (which do not inherit ``set_default_engine``).
"""

import pytest

from repro.perf import performance_report
from repro.perf.presets import (
    PRESET_SWEEPS,
    fig1_spec,
    fig6_point,
    fig6_spec,
)
from repro.perf.sweep import SweepRunError, SweepSpec, run_sweep
from repro.sim.engine import get_default_engine


class TestSpecExpansion:
    def test_grid_product_order_stable(self):
        spec = SweepSpec(
            name="s", factory=fig6_point,
            grid={"design": ("stalling", "speculative"), "window": (2, 3)},
            base={"seed": 1},
        )
        configs = spec.expand()
        assert [c.index for c in configs] == [0, 1, 2, 3]
        assert [(c.params["design"], c.params["window"]) for c in configs] == [
            ("stalling", 2), ("stalling", 3),
            ("speculative", 2), ("speculative", 3),
        ]
        assert configs[0].name == "s[design=stalling window=2]"
        assert all(c.params["seed"] == 1 for c in configs)

    def test_points_and_reserved_keys(self):
        spec = SweepSpec(
            name="s", factory=fig6_point, channel="out",
            points=[
                {"design": "stalling", "label": "A", "sim_channel": None},
                {"design": "speculative"},
            ],
        )
        a, b = spec.expand()
        assert a.name == "A" and a.channel is None
        assert b.name == "s[design=speculative]" and b.channel == "out"
        assert "label" not in a.params and "sim_channel" not in a.params

    def test_point_overrides_base(self):
        spec = SweepSpec(name="s", factory=fig6_point, base={"seed": 1},
                         points=[{"seed": 9}])
        assert spec.expand()[0].params["seed"] == 9

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec(name="s", factory=fig6_point)

    def test_bad_engine_rejected(self):
        for engine in ("turbo", "naive"):
            with pytest.raises(ValueError):
                SweepSpec(name="s", factory=fig6_point, grid={"seed": (1,)},
                          engine=engine)

    def test_presets_expand(self):
        for name, build in PRESET_SWEEPS.items():
            configs = build().expand()
            assert configs, name
        assert len(fig6_spec().expand()) == 24


class TestSerialSweep:
    def test_static_and_simulated_sources(self):
        result = run_sweep(fig1_spec(cycles=150))
        sources = [row["throughput_source"] for row in result.rows]
        assert sources == ["marked-graph"] * 3 + ["simulation"]
        assert result.rows[3]["throughput"] > 0.5
        assert "fig1d" in result.table()

    def test_rows_match_direct_performance_report(self):
        net, _names = fig6_point("stalling", seed=5, arith_fraction=0.5)
        direct = performance_report(net, sim_channel="out", cycles=200,
                                    warmup=50, name="x")
        spec = SweepSpec(name="s", factory=fig6_point,
                         points=[{"design": "stalling"}],
                         base={"seed": 5, "arith_fraction": 0.5},
                         channel="out", cycles=200, warmup=50)
        row = run_sweep(spec).rows[0]
        assert row["throughput"] == direct.throughput
        assert row["area"] == direct.area
        assert row["cycle_time"] == direct.cycle_time
        assert row["effective_cycle_time"] == direct.effective_cycle_time

    def test_missing_channel_raises(self):
        spec = SweepSpec(name="s", factory=fig6_point,
                         points=[{"design": "stalling"}], channel="nope",
                         cycles=20, warmup=0)
        with pytest.raises(SweepRunError, match="nope"):
            run_sweep(spec, on_error="raise")

    def test_missing_channel_collected_as_failed_row(self):
        """The default error policy degrades a raising configuration to a
        structured FailedRow instead of aborting the sweep."""
        spec = SweepSpec(name="s", factory=fig6_point,
                         points=[{"design": "stalling"}], channel="nope",
                         cycles=20, warmup=0)
        result = run_sweep(spec)
        assert result.rows == []
        assert not result.ok()
        (failure,) = result.failures
        assert failure.index == 0
        assert "nope" in failure.error
        assert failure.attempts == 1
        assert result.to_payload()["failures"][0]["error"] == failure.error
        with pytest.raises(SweepRunError, match="nope"):
            result.raise_for_failures()

    def test_spec_engine_used_serially(self):
        spec = SweepSpec(name="s", factory=fig6_point,
                         points=[{"design": "stalling"}], channel="out",
                         cycles=20, warmup=0, engine="worklist")
        result = run_sweep(spec)
        assert result.engine == "worklist"
        assert result.rows[0]["engine"] == "worklist"
        assert get_default_engine() == "codegen"


class TestShardedSweep:
    def test_merged_report_identical_1_vs_4_workers(self):
        spec = fig6_spec(fracs=(0.0, 1.0), windows=(2, 3), cycles=120)
        serial = run_sweep(spec, n_workers=1)
        sharded = run_sweep(spec, n_workers=4)
        assert len(serial.rows) == 8
        assert sharded.to_json() == serial.to_json()
        assert [r.row() for r in sharded.reports] == [
            r.row() for r in serial.reports]

    def test_two_worker_smoke(self):
        """Tier-1-safe: a tiny 2-worker sweep completes in seconds."""
        spec = fig6_spec(fracs=(0.0,), windows=(3,), cycles=60)
        result = run_sweep(spec, n_workers=2)
        assert len(result.rows) == 2
        assert all(row["throughput"] is not None for row in result.rows)
        assert result.n_workers == 2

    def test_engine_propagates_to_spawn_workers(self):
        """Regression for the latent ``--engine`` bug: spawn workers start
        from the built-in default, so the parent's choice must travel in
        the payload, not via process-global state."""
        spec = fig6_spec(fracs=(0.0,), windows=(3,), cycles=40)
        result = run_sweep(spec, n_workers=2, engine="worklist")
        assert {row["engine"] for row in result.rows} == {"worklist"}
        # the parent's process-wide default is untouched
        assert get_default_engine() == "codegen"
