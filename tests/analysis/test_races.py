"""Tests for the static/dynamic race checkers, including the property-based
static-vs-dynamic agreement check and the corrupted-schedule detection."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.sandpile.kernels  # noqa: F401 - registers the tile kernels
from repro.analysis.races import (
    ConcurrencyModel,
    check_batch,
    check_phases,
    cross_check,
    dynamic_check,
)
from repro.analysis.variants import async_wave_specs, tile_specs
from repro.easypap.executor import TileTask
from repro.easypap.schedule import POLICIES

SETTINGS = dict(max_examples=25, deadline=None)


def framed(h, w, fill):
    """Framed plane: interior filled, sink frame zero."""
    p = np.zeros((h + 2, w + 2), dtype=np.int64)
    p[1:-1, 1:-1] = fill
    return p


class TestConcurrencyModel:
    def test_single_worker_serialises_everything(self):
        m = ConcurrencyModel(8, 1, "dynamic", 1)
        assert not any(m.concurrent(a, b) for a in range(8) for b in range(8))

    def test_same_chunk_not_concurrent(self):
        m = ConcurrencyModel(8, 4, "dynamic", 4)
        assert m.chunk_of(0) == m.chunk_of(3)
        assert not m.concurrent(0, 3)

    def test_dynamic_cross_chunk_concurrent(self):
        m = ConcurrencyModel(8, 4, "dynamic", 1)
        assert m.concurrent(0, 7)

    def test_static_same_worker_serialised(self):
        # 8 tasks, 2 workers, static: blocks [0..3] -> w0, [4..7] -> w1
        m = ConcurrencyModel(8, 2, "static", 1)
        assert m.worker_of(0) == m.worker_of(1) == 0
        assert not m.concurrent(0, 1)
        assert m.concurrent(0, 4)

    def test_cyclic_worker_pinning(self):
        m = ConcurrencyModel(4, 2, "cyclic", 1)
        assert [m.worker_of(i) for i in range(4)] == [0, 1, 0, 1]
        assert not m.concurrent(0, 2)  # both on worker 0
        assert m.concurrent(0, 1)

    def test_task_not_concurrent_with_itself(self):
        m = ConcurrencyModel(4, 4, "dynamic", 1)
        assert not m.concurrent(2, 2)


class TestStaticChecker:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_sync_batch_race_free_under_every_policy(self, policy):
        specs = tile_specs("sync_tile_nc", 8, 8, 4)
        report = check_batch(specs, (10, 10), nworkers=4, policy=policy, chunk=1)
        assert report.verdict == "race-free"
        assert not report.racy

    def test_async_flat_batch_is_racy(self):
        specs = [t for wave in async_wave_specs(8, 8, 4) for t in wave]
        report = check_batch(specs, (10, 10), nworkers=4, policy="dynamic", chunk=1)
        assert report.racy
        kinds = {c.kind for c in report.conflicts}
        assert "write-write" in kinds

    def test_async_waves_race_free(self):
        phases = async_wave_specs(8, 8, 4)
        shape = (10, 10)
        from repro.analysis.footprint import footprint_for

        fps = [[footprint_for(t, shape) for t in wave] for wave in phases]
        report = check_phases(fps, nworkers=4, policy="dynamic", chunk=1)
        assert report.verdict == "race-free"
        assert report.phases == len(phases)

    def test_async_waves_with_unit_tiles_detected_racy(self):
        # tile_size=1 breaks the wave guarantee: same-wave tiles are 2 apart
        # but their 1-cell halos land on the shared intermediate cell
        phases = async_wave_specs(4, 4, 1)
        shape = (6, 6)
        from repro.analysis.footprint import footprint_for

        fps = [[footprint_for(t, shape) for t in wave] for wave in phases]
        report = check_phases(fps, nworkers=4, policy="dynamic", chunk=1)
        assert report.racy

    def test_single_worker_never_racy(self):
        specs = [t for wave in async_wave_specs(8, 8, 4) for t in wave]
        report = check_batch(specs, (10, 10), nworkers=1, policy="dynamic", chunk=1)
        assert report.verdict == "race-free"

    def test_corrupted_schedule_detected(self):
        # seeded corruption: redirect one task's destination tile onto
        # another task's tile -- two concurrent writers of the same cells
        rng = np.random.default_rng(1234)
        specs = tile_specs("sync_tile_nc", 8, 8, 4)
        clean = check_batch(specs, (10, 10), nworkers=4, policy="dynamic", chunk=1)
        assert not clean.racy
        victim, donor = rng.choice(len(specs), size=2, replace=False)
        corrupted = list(specs)
        corrupted[victim] = TileTask(
            specs[victim].kernel, specs[victim].src, specs[victim].dst, specs[donor].tile
        )
        report = check_batch(corrupted, (10, 10), nworkers=4, policy="dynamic", chunk=1)
        assert report.racy
        pair = {int(victim), int(donor)}
        assert any({c.task_a, c.task_b} == pair for c in report.conflicts)
        assert any(c.kind == "write-write" for c in report.conflicts)

    def test_summary_mentions_verdict_and_conflicts(self):
        specs = [t for wave in async_wave_specs(4, 4, 2) for t in wave]
        report = check_batch(specs, (6, 6), nworkers=2, policy="dynamic", chunk=1)
        text = report.summary(limit=2)
        assert "racy" in text
        assert "write-write" in text or "read-write" in text


class TestDynamicChecker:
    def test_sync_dynamic_race_free_and_sound(self):
        specs = tile_specs("sync_tile_nc", 8, 8, 4)
        static = check_batch(specs, (10, 10), nworkers=4, policy="dynamic", chunk=1)
        planes = [framed(8, 8, 5), np.zeros((10, 10), dtype=np.int64)]
        dynamic, trace = dynamic_check(specs, planes, nworkers=4, policy="dynamic", chunk=1)
        cc = cross_check(static, dynamic)
        assert dynamic.mode == "dynamic"
        assert not dynamic.racy
        assert cc.sound and cc.agree and cc.ok

    def test_async_dynamic_observes_the_predicted_races(self):
        specs = [t for wave in async_wave_specs(8, 8, 4) for t in wave]
        static = check_batch(specs, (10, 10), nworkers=4, policy="dynamic", chunk=1)
        planes = [framed(8, 8, 8)]
        dynamic, _ = dynamic_check(specs, planes, nworkers=4, policy="dynamic", chunk=1)
        cc = cross_check(static, dynamic)
        assert static.racy and dynamic.racy
        assert cc.sound and cc.agree and cc.ok

    def test_cross_check_flags_underdeclaration(self):
        # dynamic sees a conflict the static model missed -> not sound
        specs = tile_specs("sync_tile_nc", 4, 4, 2)
        static = check_batch(specs, (6, 6), nworkers=2, policy="dynamic", chunk=1)
        planes = [framed(4, 4, 8)]  # src == dst: in-place through sync kernels
        in_place = [TileTask(t.kernel, 0, 0, t.tile) for t in specs]
        dynamic, _ = dynamic_check(in_place, planes, nworkers=2, policy="dynamic", chunk=1)
        cc = cross_check(static, dynamic)
        assert dynamic.racy
        assert not cc.sound
        assert not cc.ok


# -- property: the static verdict matches the dynamic detector -----------------------


grid_strategy = dict(
    h=st.integers(2, 6),
    w=st.integers(2, 6),
    ts=st.integers(1, 3),
    nworkers=st.integers(2, 4),
    policy=st.sampled_from(POLICIES),
)


@given(**grid_strategy)
@settings(**SETTINGS)
def test_property_sync_agrees_race_free(h, w, ts, nworkers, policy):
    specs = tile_specs("sync_tile_nc", h, w, ts)
    shape = (h + 2, w + 2)
    static = check_batch(specs, shape, nworkers=nworkers, policy=policy, chunk=1)
    dynamic, _ = dynamic_check(
        specs,
        [framed(h, w, 6), np.zeros(shape, dtype=np.int64)],
        nworkers=nworkers,
        policy=policy,
        chunk=1,
    )
    cc = cross_check(static, dynamic)
    assert static.verdict == "race-free"
    assert dynamic.verdict == "race-free"
    assert cc.sound and cc.agree and cc.ok


@given(**grid_strategy)
@settings(**SETTINGS)
def test_property_async_flat_agrees_racy(h, w, ts, nworkers, policy):
    assume(h > ts or w > ts)  # need at least two (adjacent) tiles
    specs = [t for wave in async_wave_specs(h, w, ts) for t in wave]
    shape = (h + 2, w + 2)
    static = check_batch(specs, shape, nworkers=nworkers, policy=policy, chunk=1)
    # saturated grid: every cell topples, so halo spills genuinely happen
    dynamic, _ = dynamic_check(
        specs, [framed(h, w, 8)], nworkers=nworkers, policy=policy, chunk=1
    )
    cc = cross_check(static, dynamic)
    assert static.verdict == "racy"
    assert dynamic.verdict == "racy"
    assert cc.sound and cc.agree and cc.ok


@given(**grid_strategy)
@settings(**SETTINGS)
def test_property_dynamic_conflicts_subset_of_static(h, w, ts, nworkers, policy):
    # soundness alone, on the wave-partitioned schedule (mixed outcomes ok)
    phases = async_wave_specs(h, w, ts)
    shape = (h + 2, w + 2)
    plane = framed(h, w, 8)
    from repro.analysis.footprint import footprint_for

    fps = [[footprint_for(t, shape) for t in wave] for wave in phases]
    static = check_phases(fps, nworkers=nworkers, policy=policy, chunk=1)
    for p, wave in enumerate(phases):
        dynamic, _ = dynamic_check(wave, [plane], nworkers=nworkers, policy=policy, chunk=1)
        static_keys = {
            (c.kind, c.task_a, c.task_b, c.plane, c.cell)
            for c in static.conflicts
            if c.phase == p
        }
        for c in dynamic.conflicts:
            assert (c.kind, c.task_a, c.task_b, c.plane, c.cell) in static_keys


# -- plan pinning: certifying externally built (dynamic frontier) plans --------------


class TestPlanOverride:
    def test_single_chunk_plan_serialises_everything(self):
        m = ConcurrencyModel(4, 4, "dynamic", 1, plan=((0, 1, 2, 3),))
        assert not any(m.concurrent(a, b) for a in range(4) for b in range(4))

    def test_pinned_plan_overrides_parameter_rebuild(self):
        # parameters alone would give unit chunks (all pairs concurrent);
        # the pinned plan groups 0,1 and 2,3, serialising those pairs
        m = ConcurrencyModel(4, 2, "dynamic", 1, plan=((0, 1), (2, 3)))
        assert m.chunk_of(1) == 0 and m.chunk_of(2) == 1
        assert not m.concurrent(0, 1)
        assert not m.concurrent(2, 3)
        assert m.concurrent(1, 2)

    def test_racy_batch_certified_safe_under_serialising_plan(self):
        # the flat async batch is racy under the rebuilt plan, but an
        # externally built one-chunk plan proves this execution race-free
        specs = [t for wave in async_wave_specs(8, 8, 4) for t in wave]
        racy = check_batch(specs, (10, 10), nworkers=4, policy="dynamic", chunk=1)
        assert racy.racy
        plan = (tuple(range(len(specs))),)
        safe = check_batch(specs, (10, 10), nworkers=4, policy="dynamic", chunk=1, plan=plan)
        assert safe.verdict == "race-free"

    def test_dynamic_check_respects_pinned_plan(self):
        specs = [t for wave in async_wave_specs(8, 8, 4) for t in wave]
        plan = (tuple(range(len(specs))),)
        static = check_batch(specs, (10, 10), nworkers=4, policy="dynamic", chunk=1, plan=plan)
        dynamic, _ = dynamic_check(
            specs, [framed(8, 8, 8)], nworkers=4, policy="dynamic", chunk=1, plan=plan
        )
        cc = cross_check(static, dynamic)
        assert not static.racy and not dynamic.racy
        assert cc.sound and cc.agree and cc.ok

    def test_frontier_subset_plan_race_free(self):
        # a partial frontier batch: a subset of sync tiles under the exact
        # uncached plan the process backend would execute
        from repro.easypap.schedule import dynamic_chunk_plan

        specs = tile_specs("sync_tile_nc", 8, 8, 4)[:3]  # 3 active tiles of 4
        plan = dynamic_chunk_plan(len(specs), 4, "dynamic", 1)
        report = check_batch(specs, (10, 10), nworkers=4, policy="dynamic", chunk=1, plan=plan)
        assert report.verdict == "race-free"
