"""Tests for SandpileJob, the easypap Job adapter (sequential variants)."""

import numpy as np
import pytest

from repro.common.errors import CheckpointError
from repro.easypap.grid import Grid2D
from repro.easypap.job import SandpileJob


def _pile(n=16, grains=256):
    g = Grid2D(n, n)
    g.interior[:] = 0
    g.interior[n // 2, n // 2] = grains
    return g


def _fingerprint(result):
    return (result["iterations"], result["sink_absorbed"], result["grid"].tobytes())


class TestRun:
    def test_runs_to_fixpoint(self):
        with SandpileJob(_pile()) as job:
            result = job.run()
        assert result["iterations"] > 0
        assert int(result["grid"].max()) < 4  # stable: nothing left to topple

    def test_deterministic(self):
        with SandpileJob(_pile()) as a, SandpileJob(_pile()) as b:
            assert _fingerprint(a.run()) == _fingerprint(b.run())

    def test_progress_reports_iterations(self):
        with SandpileJob(_pile()) as job:
            job.step()
            p = job.progress()
            assert p.steps_done == 1 and not p.done
            job.run()
            assert job.progress().done


class TestFromSpec:
    def test_spec_options_reach_the_variant_factory(self):
        # nworkers is part of the cache key, so it must also shape the run
        job = SandpileJob.from_spec({"variant": "omp", "nworkers": 3, "tile_size": 4})
        with job:
            job.step()
            stepper = job._stepper
            assert stepper.backend.nworkers == 3
            assert stepper.tiles.tile_h == 4


class TestCheckpoint:
    def test_mid_run_roundtrip_bit_identical(self):
        with SandpileJob(_pile()) as oracle:
            ref = _fingerprint(oracle.run())
        with SandpileJob(_pile()) as job:
            for _ in range(ref[0] // 2):
                job.step()
            snap = job.checkpoint()
        with SandpileJob(_pile()) as fresh:
            fresh.restore(snap)
            assert _fingerprint(fresh.run()) == ref

    def test_restore_rejects_mismatches(self):
        with SandpileJob(_pile()) as job:
            snap = job.checkpoint()
        with SandpileJob(_pile(), variant="omp") as other:
            with pytest.raises(CheckpointError, match="sandpile/omp"):
                other.restore(snap)
        with SandpileJob(_pile(n=8)) as small:
            with pytest.raises(CheckpointError, match="does not match"):
                small.restore(snap)
        with SandpileJob(_pile()) as foreign:
            with pytest.raises(CheckpointError, match="kind"):
                foreign.restore({"kind": "mapreduce"})

    def test_snapshot_plane_is_a_copy(self):
        with SandpileJob(_pile()) as job:
            job.step()
            snap = job.checkpoint()
            before = snap["plane"].copy()
            job.run()
            assert np.array_equal(snap["plane"], before)
