"""Substrate adapters: each converts (or instruments) one execution layer.

* :mod:`repro.obs.adapters.easypap`   — degradation instants and
  frontier/dispatch counter tracks beside the backends' tile spans.
* :mod:`repro.obs.adapters.mapreduce` — simulated-cluster attempt spans
  with shuffle flow arrows; degradation events as instants.
* :mod:`repro.obs.adapters.simmpi`    — conversion helpers for the live
  instrumentation in :mod:`repro.simmpi.comm` (virtual-time pt2pt spans
  and send→recv flows are recorded by the communicator itself when its
  world carries a tracer).
* :mod:`repro.obs.adapters.wrench`    — DAG task spans per site/resource
  plus energy counter tracks.
* :mod:`repro.obs.adapters.serve`     — SLO views over the job service's
  metrics: histogram quantile estimation (p50/p99) and the summary table
  ``repro-serve`` prints.

The easypap backends and ``run_job_parallel`` take a tracer directly;
the adapters here cover the substrates that already produce structured
reports.
"""

from repro.obs.adapters.easypap import (
    EASYPAP_PID,
    degradation_to_instants,
    dispatch_to_counters,
    frontier_to_counters,
)
from repro.obs.adapters.mapreduce import MAPREDUCE_PID, cluster_report_to_tracer
from repro.obs.adapters.serve import SERVE_PID, estimate_quantile, render_slo, slo_summary
from repro.obs.adapters.simmpi import SIMMPI_PID, world_report_summary
from repro.obs.adapters.wrench import WRENCH_PID, simulation_result_to_tracer

__all__ = [
    "EASYPAP_PID",
    "MAPREDUCE_PID",
    "SERVE_PID",
    "SIMMPI_PID",
    "WRENCH_PID",
    "degradation_to_instants",
    "dispatch_to_counters",
    "frontier_to_counters",
    "cluster_report_to_tracer",
    "world_report_summary",
    "simulation_result_to_tracer",
    "estimate_quantile",
    "slo_summary",
    "render_slo",
]
