"""easypap adapter: recovery events and dispatch counters next to tile spans.

The easypap backends write their per-tile spans straight into a tracer
(see :mod:`repro.easypap.monitor`); the projections here put the rest of
a run on the same timeline.

:func:`degradation_to_instants` projects a
:class:`~repro.common.resilience.DegradationLog` (pool rebuilds, thread
fallbacks, retries) onto instant events, so recovery actions appear on
the same timeline as the tile spans they interrupted.
:func:`frontier_to_counters` and :func:`dispatch_to_counters` turn a
frontier stepper's window log and the process backend's dispatch metrics
into counter tracks.
"""

from __future__ import annotations

from repro.common.resilience import DegradationLog
from repro.easypap.monitor import EASYPAP_PID
from repro.obs.clock import WallClock
from repro.obs.tracer import Tracer

__all__ = [
    "EASYPAP_PID",
    "degradation_to_instants",
    "frontier_to_counters",
    "dispatch_to_counters",
]


def frontier_to_counters(
    tracer: Tracer,
    window_log,
    *,
    pid: str = EASYPAP_PID,
    name: str = "frontier",
) -> int:
    """Project a frontier stepper's ``window_log`` onto counter tracks.

    *window_log* is the ``(iteration, (y0, y1, x0, x1), active_tiles)``
    list kept by :class:`~repro.sandpile.pfrontier.ParallelFrontierStepper`
    (whose third field counts the dispatch's row bands) and anything
    mirroring its contract.  Each entry becomes one counter
    sample — ``window_cells`` and ``active_tiles`` series, stamped with
    the iteration as the timestamp — so the shrinking frontier renders as
    a decaying curve next to the worker lanes of the same run.  Returns
    the number of samples written.
    """
    n = 0
    for iteration, window, active in window_log:
        y0, y1, x0, x1 = window
        tracer.counter(
            name,
            {
                "window_cells": (y1 - y0) * (x1 - x0),
                "active_tiles": active,
            },
            ts=float(iteration),
            pid=pid,
        )
        n += 1
    return n


def dispatch_to_counters(
    tracer: Tracer,
    registry,
    *,
    pid: str = EASYPAP_PID,
    prefix: str = "easypap_dispatch",
    ts: float = 0.0,
) -> int:
    """Project the process backend's dispatch metrics onto counter tracks.

    *registry* is the :class:`~repro.obs.metrics.MetricsRegistry` handed to
    :func:`~repro.easypap.executor.make_backend`; every family whose name
    starts with *prefix* (``easypap_dispatch_commands_total``,
    ``..._bytes_total``, ``..._batches_total``,
    ``..._queue_wait_seconds``) becomes one counter track.  Counter series
    are keyed by their labels (``mode=resident`` ...); histograms project
    their per-series ``sum`` and ``count``.  The samples land at *ts* (end
    of run — the registry holds totals, not a time series), which is
    enough for ``repro-trace summary`` to report how many commands and
    serialized bytes a run shipped per iteration.  Returns the number of
    counter records written.
    """

    def series_key(labels: dict) -> str:
        return ",".join(f"{k}={v}" for k, v in sorted(labels.items())) or "total"

    n = 0
    for name in registry.names():
        if not name.startswith(prefix):
            continue
        metric = registry.get(name)
        values: dict[str, float] = {}
        if metric.kind == "histogram":
            for row in metric.samples():
                key = series_key(row["labels"])
                values[f"{key}:sum"] = row["sum"]
                values[f"{key}:count"] = row["count"]
        else:
            for row in metric.samples():
                values[series_key(row["labels"])] = row["value"]
        if values:
            tracer.counter(name, values, ts=ts, pid=pid)
            n += 1
    return n


def degradation_to_instants(
    tracer: Tracer,
    log: DegradationLog,
    *,
    pid: str = EASYPAP_PID,
    tid: int | str = "resilience",
) -> int:
    """Project degradation events onto instant records; returns the count.

    Events stamped with an absolute ``perf_counter`` time are rebased
    onto the tracer's wall clock when it has an epoch; unstamped events
    (older producers) land at t=0.
    """
    clock = tracer.clock if isinstance(getattr(tracer, "clock", None), WallClock) else None
    n = 0
    for ev in log:
        ts = ev.ts
        if ts and clock is not None:
            ts = clock.rebase(ts)
        tracer.instant(
            f"{ev.component}:{ev.action}",
            ts=max(ts, 0.0),
            cat="degradation",
            pid=pid,
            tid=tid,
            args={"reason": ev.reason, "attempt": ev.attempt, **ev.detail},
        )
        n += 1
    return n
