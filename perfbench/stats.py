"""Quantiles that carry their sample count, and the window aggregate.

A percentile is only reported when at least :data:`MIN_TAIL` samples lie
beyond it; below that it reads as suppressed (``None``), never as a
nearest-rank guess from a handful of samples.

A run measures each metric in several windows (serve rounds, fixpoint
runs) and reports the lower quartile of the window values, each a time
(or a time-like percentile) that interference from other tenants of the
host can only lengthen: on the 2-vCPU reference host, CPU steal slows
the machine by 25-200 % for tens of seconds at a time, often across half
of a run's windows, which a mean or median over the windows follows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: samples that must lie beyond a percentile before it is reported
MIN_TAIL = 10


@dataclass(frozen=True)
class Quantile:
    """One percentile estimate: ``value`` is None when suppressed."""

    value: float | None
    n: int


def quantile(values, q: float) -> Quantile:
    """Linear-interpolated *q*-quantile of *values*, suppressed on a thin tail."""
    n = len(values)
    if n == 0 or int(n * (1.0 - q)) < MIN_TAIL:
        return Quantile(None, n)
    return Quantile(float(np.percentile(np.asarray(values, dtype=float), q * 100.0)), n)


def lower_quartile(values) -> float | None:
    """Linear-interpolated 25th percentile of the window *values* (None if
    any value is None, e.g. a suppressed percentile)."""
    if not values or any(v is None for v in values):
        return None
    return float(np.percentile(np.asarray(values, dtype=float), 25.0))
