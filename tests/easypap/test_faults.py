"""Fault-injection tests: worker crashes, retries, degradation paths.

These kill real pool workers (``os._exit`` inside the child), so they are
marked ``faults`` and run as their own CI job with a hard timeout; locally
they are part of the normal suite.
"""

import os
import signal

import numpy as np
import pytest

import repro.sandpile.kernels  # noqa: F401 - registers the tile kernels
from repro.common.errors import SchedulingError
from repro.common.resilience import DegradationLog, FaultInjector, RetryPolicy
from repro.easypap.executor import ProcessBackend, TaskBatch, TileTask
from repro.easypap.grid import Grid2D
from repro.easypap.tiling import TileGrid
from repro.sandpile.kernels import sync_step, sync_tile

pytestmark = pytest.mark.faults

needs_processes = pytest.mark.skipif(
    not ProcessBackend.available(), reason="fork/shared_memory unavailable"
)

FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.0)


def make_sync_setup(n=8, grains=6):
    """Grid + scratch + tiles + picklable spec + expected next state."""
    g = Grid2D(n, n)
    g.interior[:] = grains
    scratch = g.data.copy()
    tiles = list(TileGrid(n, n, 4))
    spec = [TileTask("sync_tile", 0, 1, t) for t in tiles]
    expected = g.copy()
    sync_step(expected)
    return g, scratch, tiles, spec, expected


def make_closure_batch(p0, p1, tiles, spec):
    """A batch whose parent-side closures do the same work as the spec.

    Worker processes execute the spec; if the backend degrades to threads,
    the closures run against the same shared planes, so either path must
    produce identical tile results.
    """

    def mk(tile):
        def task():
            return sync_tile(p0, p1, tile)

        return task

    return TaskBatch([mk(t) for t in tiles], tiles=tiles, spec=spec)


class TestWorkerCrashRecovery:
    @needs_processes
    def test_kill_mid_batch_recovers_on_rebuilt_pool(self):
        g, scratch, tiles, spec, expected = make_sync_setup()
        log = DegradationLog()
        injector = FaultInjector(kill_on_tasks={2}, max_fires=1)
        with ProcessBackend(
            2, "dynamic", retry=FAST_RETRY, degradation=log, fault_injector=injector
        ) as be:
            p0, p1 = be.bind_planes(g.data, scratch)
            r = be.run(make_closure_batch(p0, p1, tiles, spec))
            # the batch completed despite a genuine worker death
            assert injector.fires == 1
            assert len(r.spans) == len(tiles)
            assert r.returns is not None and any(r.returns)
            assert np.array_equal(p1[1:-1, 1:-1], expected.interior)
            # still on processes: the pool was rebuilt, not abandoned
            assert be.uses_processes
        assert len(log.by_action("pool-rebuild")) >= 1

    @needs_processes
    def test_recovery_preserves_multi_iteration_fixpoint(self):
        """A mid-run crash must not corrupt the simulation outcome."""
        from repro.sandpile.omp import TiledSyncStepper
        from repro.sandpile.reference import sync_step_reference

        g = Grid2D(12, 12)
        g.interior[:] = 5
        ref = g.copy()
        while sync_step_reference(ref):
            pass

        injector = FaultInjector(kill_on_tasks={1}, max_fires=1)
        be = ProcessBackend(
            2, "dynamic", retry=FAST_RETRY, degradation=DegradationLog(), fault_injector=injector
        )
        stepper = TiledSyncStepper(g, 4, backend=be)
        try:
            while stepper():
                pass
        finally:
            stepper.close()
        assert injector.fires == 1
        assert np.array_equal(g.interior, ref.interior)


class TestFrontierCrashRecovery:
    @needs_processes
    def test_kill_mid_frontier_batch_resumes_from_dirty_bbox(self):
        """Satellite: a worker death inside a *dynamic* frontier batch must
        heal on the rebuilt pool and resume from the correct dirty bbox —
        the whole run stays bit-identical to the single-worker frontier."""
        from repro.sandpile.pfrontier import ParallelFrontierStepper
        from repro.sandpile.vectorized import FrontierSyncStepper

        ref = Grid2D(24, 24)
        ref.interior[4, 4] = 500
        ref.interior[18, 19] = 300
        g = ref.copy()
        ref_stepper = FrontierSyncStepper(ref)
        ref_steps = 0
        while ref_stepper():
            ref_steps += 1

        log = DegradationLog()
        injector = FaultInjector(kill_on_tasks={1}, max_fires=1)
        be = ProcessBackend(
            2, "dynamic", retry=FAST_RETRY, degradation=log, fault_injector=injector
        )
        with ParallelFrontierStepper(g, backend=be) as stepper:
            steps = 0
            while stepper():
                steps += 1
                # recovery must not corrupt the frontier's view of the grid:
                # the next bbox is recomputed from the healed window
                assert stepper._bbox is None or stepper._bbox[0] < stepper._bbox[1]
            assert be.uses_processes  # rebuilt, not degraded to threads
        assert injector.fires == 1
        assert len(log.by_action("pool-rebuild")) >= 1
        assert steps == ref_steps
        assert np.array_equal(g.interior, ref.interior)
        assert g.sink_absorbed == ref.sink_absorbed


def _kill_worker(wk) -> None:
    os.kill(wk.proc.pid, signal.SIGKILL)
    wk.proc.join(timeout=5)
    assert not wk.proc.is_alive()


class TestDispatchBrokenPipe:
    """A worker that dies before a command reaches it surfaces as a send
    failure; that must rebuild the pool, never read as a kernel bug."""

    @needs_processes
    def test_kill_before_second_run_command_rebuilds_once(self, monkeypatch):
        g, scratch, tiles, spec, expected = make_sync_setup(n=24)
        assert len(tiles) >= 30
        log = DegradationLog()
        with ProcessBackend(2, "dynamic", retry=FAST_RETRY, degradation=log) as be:
            p0, p1 = be.bind_planes(g.data, scratch)
            post = be._post
            runs_to_worker0 = 0

            def killing_post(wk, buf, *, mode):
                nonlocal runs_to_worker0
                if wk.wid == 0 and mode != "register":
                    runs_to_worker0 += 1
                    if runs_to_worker0 == 2:
                        # dies with its first command (and maybe its
                        # reply) still in flight, before the prefetch
                        _kill_worker(wk)
                post(wk, buf, mode=mode)

            monkeypatch.setattr(be, "_post", killing_post)
            r = be.run(make_closure_batch(p0, p1, tiles, spec))
            assert len(r.spans) == len(tiles)
            assert np.array_equal(p1[1:-1, 1:-1], expected.interior)
            assert be.uses_processes
        assert len(log.by_action("pool-rebuild")) == 1

    @needs_processes
    def test_worker_lost_at_registration_is_replaced_before_next_batch(self):
        g, scratch, tiles, spec, expected = make_sync_setup()
        log = DegradationLog()
        with ProcessBackend(2, "dynamic", retry=FAST_RETRY, degradation=log) as be:
            p0, p1 = be.bind_planes(g.data, scratch)
            be.run(make_closure_batch(p0, p1, tiles, spec))
            _kill_worker(be._workers[0])
            # a fresh two-task batch registers first: the registration send
            # finds worker 0 gone, and worker 1 absorbs both tasks
            pair = make_closure_batch(p0, p1, tiles[:2], spec[:2])
            r = be.run(pair)
            assert len(r.spans) == 2
            assert not be._workers[0].alive
            r = be.run(make_closure_batch(p0, p1, tiles, spec))
            assert len(r.spans) == len(tiles)
            assert all(wk.alive for wk in be._workers)
            assert np.array_equal(p1[1:-1, 1:-1], expected.interior)
        rebuilds = log.by_action("pool-rebuild")
        assert [e.reason for e in rebuilds] == ["worker died between batches"]


class TestRetryExhaustion:
    @needs_processes
    def test_exhaustion_degrades_to_threads(self):
        g, scratch, tiles, spec, expected = make_sync_setup()
        log = DegradationLog()
        # more fires than attempts: every rebuilt pool dies again
        injector = FaultInjector(kill_on_tasks={2}, max_fires=100)
        retry = RetryPolicy(max_attempts=2, base_delay=0.0)
        with ProcessBackend(
            2, "dynamic", retry=retry, degradation=log, fault_injector=injector
        ) as be:
            p0, p1 = be.bind_planes(g.data, scratch)
            r = be.run(make_closure_batch(p0, p1, tiles, spec))
            # degraded, but the closures completed the work on threads
            assert not be.uses_processes
            assert len(r.spans) == len(tiles)
            assert np.array_equal(p1[1:-1, 1:-1], expected.interior)
        assert len(log.by_action("thread-fallback")) == 1
        assert len(log.by_action("pool-rebuild")) >= 1

    @needs_processes
    def test_no_fallback_raises_naming_unfinished_tiles(self):
        g, scratch, tiles, spec, _ = make_sync_setup()
        log = DegradationLog()
        injector = FaultInjector(kill_on_tasks={2}, max_fires=100)
        retry = RetryPolicy(max_attempts=2, base_delay=0.0)
        with ProcessBackend(
            2,
            "dynamic",
            retry=retry,
            allow_fallback=False,
            degradation=log,
            fault_injector=injector,
        ) as be:
            p0, p1 = be.bind_planes(g.data, scratch)
            with pytest.raises(SchedulingError) as exc_info:
                be.run(make_closure_batch(p0, p1, tiles, spec))
        msg = str(exc_info.value)
        assert "retries exhausted" in msg
        assert "fallback disabled" in msg
        assert "task 2" in msg  # the unfinished tile is named
        assert "tile(" in msg
        assert len(log.by_action("give-up")) == 1

    @needs_processes
    def test_injected_raise_is_retried(self):
        """An in-process task exception (not a crash) also goes through retry."""
        g, scratch, tiles, spec, expected = make_sync_setup()
        log = DegradationLog()
        injector = FaultInjector(raise_on_tasks={0}, max_fires=1)
        with ProcessBackend(
            2, "dynamic", retry=FAST_RETRY, degradation=log, fault_injector=injector
        ) as be:
            p0, p1 = be.bind_planes(g.data, scratch)
            be.run(make_closure_batch(p0, p1, tiles, spec))
            assert injector.fires == 1
            assert np.array_equal(p1[1:-1, 1:-1], expected.interior)
            assert be.uses_processes


class TestDiagnostics:
    @needs_processes
    def test_missing_task_description_names_tiles_and_plan(self):
        """Satellite: the opaque 'some tasks did not complete' error is gone."""
        g, scratch, tiles, spec, _ = make_sync_setup()
        from repro.easypap.schedule import chunk_plan

        be = ProcessBackend(2, "static", chunk=1)
        be.bind_planes(g.data, scratch)
        try:
            batch = TaskBatch([lambda: None] * len(tiles), tiles=tiles, spec=spec)
            chunks = chunk_plan(len(batch), be.nworkers, be.policy, be.chunk)
            desc = be._describe_missing(batch, {1, 3}, chunks)
            assert "task 1" in desc and "task 3" in desc
            assert "tile(" in desc
            assert "policy='static'" in desc
            assert "worker" in desc
        finally:
            be.close()

    @needs_processes
    def test_close_after_crash_is_exception_safe(self):
        g, scratch, tiles, spec, _ = make_sync_setup()
        injector = FaultInjector(kill_on_tasks={0}, max_fires=100)
        retry = RetryPolicy(max_attempts=1, base_delay=0.0)
        be = ProcessBackend(
            2, retry=retry, allow_fallback=False,
            degradation=DegradationLog(), fault_injector=injector,
        )
        be.bind_planes(g.data, scratch)
        with pytest.raises(SchedulingError):
            be.run(TaskBatch([lambda: None] * len(tiles), tiles=tiles, spec=spec))
        be.close()  # must not raise or leak shared memory
        be.close()  # idempotent
