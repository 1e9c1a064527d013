"""F3 — Fig. 3: lazy-variant execution traces, 32x32 vs 64x64 tiles.

Paper: "Comparison of two execution traces of the asandPile kernel over a
2048x2048 sparse configuration. The traces display tasks executed during
the same 500th iteration performed by a lazy OpenMP variant. The top trace
features 32x32 tiles, against 64x64 tiles for the bottom one."

We run the same 2048x2048 sparse configuration under the lazy asynchronous
variant on 8 virtual workers, snapshot the trace at the same mid-run
iteration for both tile sizes, and compare task counts, virtual makespan,
and load imbalance.  Expected shape: 64x64 tiles produce fewer, coarser
tasks and *worse* balance on sparse activity.
"""

import pytest

from conftest import emit, once
from repro.common.tables import Table
from repro.easypap.monitor import iteration_view
from repro.obs import Tracer, ascii_timeline, summarize
from repro.sandpile import run_to_fixpoint, sparse_random

SIZE = 2048
NWORKERS = 8


def _run(tile_size: int):
    grid = sparse_random(SIZE, SIZE, n_piles=32, pile_grains=4096, seed=9)
    tracer = Tracer()
    result = run_to_fixpoint(
        grid,
        "asandpile",
        "omp",
        tile_size=tile_size,
        nworkers=NWORKERS,
        policy="dynamic",
        lazy=True,
        tracer=tracer,
    )
    return grid, result, tracer


@pytest.fixture(scope="module")
def runs():
    return {ts: _run(ts) for ts in (32, 64)}


def test_fig3_report(benchmark, runs):
    # compare at the same iteration, like the paper's "same 500th iteration"
    common_mid = min(r.iterations for _, r, _ in runs.values()) // 2
    t = Table(
        ["tile size", "iterations", "tiles computed", "skip %",
         f"tasks@iter{common_mid}", "makespan@iter", "imbalance@iter"],
        title=f"Fig. 3: lazy traces on {SIZE}x{SIZE} sparse, {NWORKERS} workers",
    )
    views = {ts: iteration_view(tracer, common_mid) for ts, (_, _, tracer) in runs.items()}
    summaries = {}
    for ts, (grid, result, _) in runs.items():
        s = summarize(views[ts])
        summaries[ts] = s
        t.add_row(
            [f"{ts}x{ts}", result.iterations, result.tiles_computed,
             f"{100 * result.skip_fraction:.1f}", s.span_count, s.makespan, s.imbalance]
        )
    once(benchmark, lambda: emit("F3 - lazy execution traces (32x32 vs 64x64 tiles)", t.render()))

    # Gantt views of the same iteration - the textual Fig. 3
    for ts in (32, 64):
        emit(f"F3 trace, {ts}x{ts} tiles, iteration {common_mid}", ascii_timeline(views[ts]))

    s32, s64 = summaries[32], summaries[64]
    assert s64.span_count < s32.span_count           # coarser tasks
    assert s64.imbalance > s32.imbalance             # worse balance when sparse
    # both runs converge to the same stable configuration
    import numpy as np

    assert np.array_equal(runs[32][0].interior, runs[64][0].interior)


def test_lazy_skips_most_tiles(runs):
    for ts, (_, result, _) in runs.items():
        assert result.skip_fraction > 0.5, f"tile size {ts}"


def test_bench_lazy_run_tile32(benchmark):
    benchmark.pedantic(lambda: _run(32), rounds=1, iterations=1)


def test_bench_lazy_run_tile64(benchmark):
    benchmark.pedantic(lambda: _run(64), rounds=1, iterations=1)
