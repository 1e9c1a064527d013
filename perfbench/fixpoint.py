"""The ``fixpoint-pfrontier`` workload: the Fig. 1a pile driven to its fixpoint.

Closed loop, one run at a time: a 128² grid with 25 000 grains on the
centre cell runs as ``SandpileJob(grid, "sandpile", "pfrontier",
tile_size=32, nworkers=2, k=1)`` under a ``Supervisor`` until stable.
Set-up (grid build, worker fork, plane binding, stepper build) is timed
apart from the run; each supervised step is one grid iteration, timed
from the previous step's completion through the supervisor's ``on_step``
hook.  The input is the paper's fixed pile, so the seed changes nothing
here; every run must reproduce the in-process ``frontier`` fixpoint, and
must do it on the resident workers: a run whose ``ProcessBackend`` logs
any degradation (pool rebuild, thread fallback) fails its checks, since
its time would measure recovery rather than dispatch.

Splitting set-up from the run relies on ``SandpileJob._ensure_stepper``,
the job's own lazy stepper build, called ahead of the first step.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from dataclasses import dataclass

from perfbench.stats import lower_quartile, quantile
from repro.common.resilience import DegradationLog
from repro.common.supervisor import Supervisor
from repro.easypap.job import SandpileJob
from repro.obs import MetricsRegistry
from repro.sandpile import center_pile
from repro.sandpile.simulate import run_to_fixpoint

SIZE = 128
GRAINS = 25_000
ITERATIONS = 4743
OPTIONS = {"tile_size": 32, "nworkers": 2, "k": 1}
#: wall seconds one run took when the run count was fixed; the run count is
#: derived from --seconds with this constant, never from a measurement
RUN_ESTIMATE_S = 5.5
MIN_RUNS = 3
#: untraced/traced run pairs of the traced mode (each traced run keeps
#: ~85k spans in memory)
OVERHEAD_PAIRS = 3


def run_count(seconds: float) -> int:
    return max(MIN_RUNS, round(seconds / RUN_ESTIMATE_S))


def _digest(interior) -> str:
    return hashlib.sha256(interior.tobytes()).hexdigest()


def oracle_digest() -> str:
    """Grid digest of the in-process ``frontier`` fixpoint."""
    res = run_to_fixpoint(center_pile(SIZE, SIZE, GRAINS), "sandpile", "frontier")
    if res.iterations != ITERATIONS:
        raise RuntimeError(f"frontier oracle took {res.iterations} iterations, "
                           f"expected {ITERATIONS}")
    return _digest(res.final_grid.interior)


@dataclass
class FixpointRun:
    setup_s: float
    fixpoint_s: float
    steps_s: list[float]
    problems: list[str]
    metrics: MetricsRegistry | None = None
    degradation: DegradationLog | None = None


def run_once(oracle: str, *, recorder=None, rid: int = 0) -> FixpointRun:
    """Set up and drive one fixpoint; with a recorder, also count dispatch."""
    t0 = time.monotonic()
    grid = center_pile(SIZE, SIZE, GRAINS)
    opts = dict(OPTIONS, degradation=DegradationLog())
    if recorder is not None:
        opts.update(metrics=MetricsRegistry())
    stamps: list[float] = []
    with SandpileJob(grid, "sandpile", "pfrontier", **opts) as job:
        # the job builds its stepper on the first step; build it here so the
        # worker fork and plane binding count as set-up, not as fixpoint time
        job._ensure_stepper()
        setup_s = time.monotonic() - t0
        sup = Supervisor(job, on_step=lambda _n, _p: stamps.append(time.monotonic()))
        if recorder is not None:
            recorder.set_request(rid)
        start = time.monotonic()
        result = sup.run()
        end = time.monotonic()
        if recorder is not None:
            recorder.new_span("request", "fixpoint run", start, end, rid=rid,
                              thread="loadgen")
    steps = [b - a for a, b in zip([start] + stamps, stamps)]
    problems = []
    if result["iterations"] != ITERATIONS:
        problems.append(f"{result['iterations']} iterations, expected {ITERATIONS}")
    if int(result["grid"].sum()) != GRAINS:
        problems.append(f"{int(result['grid'].sum())} grains retained, expected {GRAINS}")
    if result["sink_absorbed"] != 0:
        problems.append(f"{result['sink_absorbed']} grains absorbed by the sink, expected 0")
    if _digest(result["grid"]) != oracle:
        problems.append("grid digest differs from the in-process frontier fixpoint")
    for event in opts["degradation"]:
        problems.append(f"ProcessBackend degraded: {event.action} ({event.reason})")
    return FixpointRun(setup_s, end - start, steps, problems,
                       metrics=opts.get("metrics"), degradation=opts["degradation"])


def end_to_end(runs: list[FixpointRun]) -> dict[str, tuple[float | None, int]]:
    """``name -> (value, samples)``; latency is per grid iteration.

    Run times and per-run step percentiles are lower quartiles over the
    runs (see :mod:`perfbench.stats`); set-up is the median.
    """
    n = sum(len(r.steps_s) for r in runs)
    p50 = lower_quartile([quantile(r.steps_s, 0.5).value for r in runs])
    p90 = lower_quartile([quantile(r.steps_s, 0.9).value for r in runs])
    fix = lower_quartile([r.fixpoint_s for r in runs])
    return {
        "latency_p50_ms": (None if p50 is None else p50 * 1e3, n),
        "latency_p90_ms": (None if p90 is None else p90 * 1e3, n),
        "capacity_rps": (1.0 / fix, len(runs)),
        "fixpoint_s": (fix, len(runs)),
        "setup_s": (statistics.median(r.setup_s for r in runs), len(runs)),
    }
