"""Tests for the execution backends."""

import threading

import numpy as np
import pytest

import repro.sandpile.kernels  # noqa: F401 - registers the tile kernels
from repro.common.errors import ConfigurationError, KernelError, SchedulingError
from repro.easypap.executor import (
    _TILE_KERNELS,
    ProcessBackend,
    SequentialBackend,
    SimulatedBackend,
    TaskBatch,
    ThreadBackend,
    TileTask,
    get_tile_kernel,
    make_backend,
    register_tile_kernel,
)
from repro.easypap.monitor import iteration_view
from repro.obs import Tracer, summarize
from repro.easypap.schedule import chunk_plan
from repro.easypap.tiling import TileGrid


def make_counter_batch(n, costs=None, tiles=None):
    hits = []

    def mk(i):
        def task():
            hits.append(i)
            return float(i + 1)
        return task

    return TaskBatch([mk(i) for i in range(n)], costs=costs, tiles=tiles), hits


class TestTaskBatch:
    def test_length(self):
        b, _ = make_counter_batch(3)
        assert len(b) == 3

    def test_mismatched_costs_rejected(self):
        with pytest.raises(ConfigurationError):
            TaskBatch([lambda: None], costs=[1.0, 2.0])

    def test_mismatched_tiles_rejected(self):
        tg = TileGrid(8, 8, 4)
        with pytest.raises(ConfigurationError):
            TaskBatch([lambda: None], tiles=list(tg))

    def test_tile_coords_default(self):
        b, _ = make_counter_batch(1)
        assert b.tile_coords(0) == (-1, -1)

    def test_dynamic_flag_routes_around_the_plan_cache(self):
        from repro.easypap.executor import _plan_for
        from repro.easypap.schedule import chunk_plan_cached

        static_b, _ = make_counter_batch(9)
        dynamic_b, _ = make_counter_batch(9)
        dynamic_b.dynamic = True
        assert static_b.dynamic is False  # default: cached static planning
        cached = _plan_for(static_b, 3, "dynamic", 1)
        assert _plan_for(static_b, 3, "dynamic", 1) is cached  # memoised
        before = chunk_plan_cached.cache_info()
        fresh = _plan_for(dynamic_b, 3, "dynamic", 1)
        after = chunk_plan_cached.cache_info()
        assert fresh == cached  # same schedule either way
        assert fresh is not cached  # but planned outside the LRU
        assert after.currsize == before.currsize
        assert after.misses == before.misses


class TestTileKernelRegistry:
    def test_duplicate_registration_rejected(self):
        name = "tmp_dup_kernel"
        register_tile_kernel(name, lambda planes, task: 1)
        try:
            with pytest.raises(KernelError, match="already registered"):
                register_tile_kernel(name, lambda planes, task: 2)
        finally:
            _TILE_KERNELS.pop(name, None)

    def test_same_function_reregistration_is_noop(self):
        name = "tmp_idem_kernel"

        def fn(planes, task):
            return 1

        register_tile_kernel(name, fn)
        try:
            register_tile_kernel(name, fn)  # re-import safety: no error
            assert get_tile_kernel(name) is fn
        finally:
            _TILE_KERNELS.pop(name, None)

    def test_explicit_overwrite_replaces(self):
        name = "tmp_over_kernel"

        def old(planes, task):
            return 1

        def new(planes, task):
            return 2

        register_tile_kernel(name, old)
        try:
            register_tile_kernel(name, new, overwrite=True)
            assert get_tile_kernel(name) is new
        finally:
            _TILE_KERNELS.pop(name, None)

    def test_get_unknown_kernel_lists_registered(self):
        with pytest.raises(KernelError, match="sync_tile"):
            get_tile_kernel("no_such_kernel")

    def test_stock_kernels_resolvable(self):
        for name in ("sync_tile", "sync_tile_nc", "async_tile_relax"):
            assert callable(get_tile_kernel(name))


class TestSequentialBackend:
    def test_runs_all_in_order(self):
        b, hits = make_counter_batch(5)
        SequentialBackend().run(b)
        assert hits == [0, 1, 2, 3, 4]

    def test_uses_return_value_as_cost(self):
        b, _ = make_counter_batch(3)
        r = SequentialBackend().run(b)
        assert r.makespan == pytest.approx(1.0 + 2.0 + 3.0)

    def test_explicit_costs_take_precedence(self):
        b, _ = make_counter_batch(2, costs=[10.0, 20.0])
        r = SequentialBackend().run(b)
        assert r.makespan == pytest.approx(30.0)

    def test_trace_recorded(self):
        tracer = Tracer()
        tg = TileGrid(8, 8, 4)
        b, _ = make_counter_batch(4, tiles=list(tg))
        SequentialBackend(tracer=tracer).run(b, iteration=7)
        assert len(tracer) == 4
        assert {s.args["iteration"] for s in tracer.spans()} == {7}
        assert tracer.spans()[0].args["tile_ty"] == 0


class TestSimulatedBackend:
    def test_all_tasks_execute(self):
        b, hits = make_counter_batch(10)
        SimulatedBackend(4, "dynamic").run(b)
        assert sorted(hits) == list(range(10))

    def test_execution_order_follows_policy(self):
        b, hits = make_counter_batch(6)
        SimulatedBackend(2, "static").run(b)
        # static chunks: [0,1,2], [3,4,5] consumed in order
        assert hits == [0, 1, 2, 3, 4, 5]

    def test_virtual_speedup_from_return_costs(self):
        b, _ = make_counter_batch(8)
        r = SimulatedBackend(4, "dynamic").run(b)
        assert r.nworkers == 4
        assert r.makespan < sum(range(1, 9))  # parallel placement

    def test_rejects_zero_workers(self):
        with pytest.raises(ConfigurationError):
            SimulatedBackend(0)

    def test_trace_has_virtual_spans(self):
        tracer = Tracer()
        b, _ = make_counter_batch(4)
        SimulatedBackend(2, "dynamic", tracer=tracer).run(b, iteration=3)
        summary = summarize(iteration_view(tracer, 3))
        assert summary.span_count == 4
        assert len(summary.lanes) <= 2


class TestThreadBackend:
    def test_all_tasks_complete(self):
        b, hits = make_counter_batch(12)
        r = ThreadBackend(4).run(b)
        assert sorted(hits) == list(range(12))
        assert len(r.spans) == 12

    def test_wall_clock_spans_positive(self):
        b, _ = make_counter_batch(3)
        r = ThreadBackend(2).run(b)
        assert all(s.end >= s.start for s in r.spans)

    def test_rejects_zero_workers(self):
        with pytest.raises(ConfigurationError):
            ThreadBackend(0)


class TestSimulatedChunkOrder:
    @pytest.mark.parametrize("policy", ["static", "cyclic", "dynamic", "guided"])
    @pytest.mark.parametrize("ntasks,nworkers,chunk", [(13, 3, 2), (2, 5, 1), (0, 4, 1)])
    def test_every_task_exactly_once_in_chunk_order(self, policy, ntasks, nworkers, chunk):
        b, hits = make_counter_batch(ntasks)
        SimulatedBackend(nworkers, policy, chunk=chunk).run(b)
        expected = [i for ch in chunk_plan(ntasks, nworkers, policy, chunk) for i in ch]
        assert hits == expected
        assert sorted(hits) == list(range(ntasks))


class TestThreadWorkerIds:
    def test_worker_ids_unique_under_stress(self):
        """Two threads must never claim the same worker lane (regression:
        ``setdefault(tid, len(ids))`` evaluated len() before the insert)."""
        nworkers, ntasks = 8, 160
        for _ in range(10):
            tids: list = [None] * ntasks

            def mk(i):
                def task():
                    tids[i] = threading.get_ident()
                return task

            r = ThreadBackend(nworkers).run(TaskBatch([mk(i) for i in range(ntasks)]))
            worker_of_tid: dict = {}
            for span in sorted(r.spans, key=lambda s: s.task):
                worker_of_tid.setdefault(tids[span.task], set()).add(span.worker)
            # each thread keeps one id for the whole batch...
            assert all(len(ws) == 1 for ws in worker_of_tid.values())
            # ...no two threads share an id, and ids stay in range
            ids = [next(iter(ws)) for ws in worker_of_tid.values()]
            assert len(set(ids)) == len(ids)
            assert all(0 <= w < nworkers for w in ids)


def make_plane_batch(n=8, grains=6):
    """An n x n grid pair plus a sync-tile spec batch over 4x4 tiles."""
    from repro.easypap.grid import Grid2D

    g = Grid2D(n, n)
    g.interior[:] = grains
    scratch = g.data.copy()
    tiles = list(TileGrid(n, n, 4))
    spec = [TileTask("sync_tile", 0, 1, t) for t in tiles]
    return g, scratch, tiles, spec


needs_processes = pytest.mark.skipif(
    not ProcessBackend.available(), reason="fork/shared_memory unavailable"
)


class TestProcessBackend:
    @needs_processes
    @pytest.mark.parametrize("policy", ["static", "cyclic", "dynamic", "guided"])
    def test_spec_batch_executes_on_shared_planes(self, policy):
        from repro.sandpile.kernels import sync_step

        g, scratch, tiles, spec = make_plane_batch()
        expected = g.copy()
        sync_step(expected)
        with ProcessBackend(2, policy) as be:
            p0, p1 = be.bind_planes(g.data, scratch)
            r = be.run(TaskBatch([lambda: None] * len(tiles), tiles=tiles, spec=spec))
            assert len(r.spans) == len(tiles)
            assert r.returns is not None and all(isinstance(x, bool) for x in r.returns)
            assert all(0 <= s.worker < 2 for s in r.spans)
            assert all(s.end >= s.start for s in r.spans)
            # workers wrote the synchronous update into the dst plane
            assert np.array_equal(p1[1:-1, 1:-1], expected.interior)
            assert p0 is not None

    @needs_processes
    def test_returns_report_changed_flags(self):
        g, scratch, tiles, spec = make_plane_batch(grains=0)  # already stable
        with ProcessBackend(2) as be:
            be.bind_planes(g.data, scratch)
            r = be.run(TaskBatch([lambda: None] * len(tiles), tiles=tiles, spec=spec))
            assert r.returns == [False] * len(tiles)

    @needs_processes
    def test_trace_records_wall_clock_lanes(self):
        tracer = Tracer()
        g, scratch, tiles, spec = make_plane_batch()
        with ProcessBackend(2, "dynamic", tracer=tracer) as be:
            be.bind_planes(g.data, scratch)
            be.run(TaskBatch([lambda: None] * len(tiles), tiles=tiles, spec=spec), iteration=5)
        assert {s.args["iteration"] for s in tracer.spans()} == {5}
        assert {s.tid for s in tracer.spans()} <= {0, 1}
        assert tracer.spans()[0].args["tile_ty"] >= 0

    @needs_processes
    def test_empty_batch(self):
        g, scratch, _, _ = make_plane_batch()
        with ProcessBackend(2) as be:
            be.bind_planes(g.data, scratch)
            r = be.run(TaskBatch([], tiles=[], spec=[]))
            assert r.spans == [] and r.returns == []

    @needs_processes
    def test_spec_without_bind_rejected(self):
        _, _, tiles, spec = make_plane_batch()
        with ProcessBackend(2) as be:
            with pytest.raises(SchedulingError):
                be.run(TaskBatch([lambda: None] * len(tiles), tiles=tiles, spec=spec))

    @needs_processes
    def test_closure_batch_degrades_to_threads(self):
        b, hits = make_counter_batch(6)
        with ProcessBackend(2) as be:
            r = be.run(b)
        assert sorted(hits) == list(range(6))
        assert r.policy == "threads"
        assert r.returns is None

    def test_fallback_when_unavailable(self, monkeypatch):
        monkeypatch.setattr(ProcessBackend, "available", staticmethod(lambda: False))
        be = ProcessBackend(2)
        assert not be.uses_processes
        arr = np.zeros((4, 4))
        assert be.bind_planes(arr)[0] is arr  # no-op passthrough
        b, hits = make_counter_batch(5)
        r = be.run(b)
        assert sorted(hits) == list(range(5))
        assert len(r.spans) == 5
        be.close()

    @needs_processes
    def test_close_idempotent_and_rejects_reuse(self):
        g, scratch, tiles, spec = make_plane_batch()
        be = ProcessBackend(2)
        be.bind_planes(g.data, scratch)
        be.close()
        be.close()
        with pytest.raises(ConfigurationError):
            be.run(TaskBatch([lambda: None] * len(tiles), tiles=tiles, spec=spec))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            ProcessBackend(0)
        with pytest.raises(ConfigurationError):
            ProcessBackend(2, "magic")
        with pytest.raises(ConfigurationError):
            ProcessBackend(2, chunk=0)

    def test_spec_length_validated(self):
        with pytest.raises(ConfigurationError):
            TaskBatch([lambda: None], spec=[])


class TestFactory:
    def test_names(self):
        assert isinstance(make_backend("sequential"), SequentialBackend)
        assert isinstance(make_backend("simulated", 4), SimulatedBackend)
        assert isinstance(make_backend("threads", 2), ThreadBackend)
        assert isinstance(make_backend("process", 2), ProcessBackend)
        assert isinstance(make_backend("processes", 2, policy="static"), ProcessBackend)

    def test_unknown(self):
        with pytest.raises(ConfigurationError):
            make_backend("gpu")
