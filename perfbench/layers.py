"""Per-layer metrics of the traced run.

:func:`install_serve` / :func:`install_fixpoint` patch the layer entry
points with :class:`~perfbench.spans.Recorder` wrappers:

==============  ===================================================
layer           entry points
==============  ===================================================
admission       ``AdmissionQueue.offer`` / ``next_ready``
cache           ``ResultCache.get`` / ``put``
checkpoint      ``CheckpointStore.save``
job             ``JobSpec.build``, ``SandpileJob.step``,
                ``MapReduceStepJob.step``
supervisor      ``Supervisor.run``
stepper         ``FrontierSyncStepper`` / ``ParallelFrontierStepper`` call
dispatch        ``ProcessBackend.run``; its ``ScheduleResult.spans``
                become ``kernel`` child spans, one track per worker
==============  ===================================================

Two layers come from timestamps rather than wrappers: ``request`` (the
root of every request, from its due time to its result) and ``service``
(``JobHandle.admitted_at`` to ``finished_at``).  :func:`per_layer` turns
the spans into the metrics listed under ``per_layer`` in BENCHMARK.json.
A layer a workload never enters reads 0 there.
"""

from __future__ import annotations

from collections import defaultdict

from perfbench.spans import Recorder, Span, self_times
from perfbench.stats import quantile
from repro.common.checkpoint import CheckpointStore
from repro.common.supervisor import Supervisor
from repro.easypap.executor import ProcessBackend
from repro.easypap.job import SandpileJob
from repro.mapreduce.stepjob import MapReduceStepJob
from repro.sandpile.pfrontier import ParallelFrontierStepper
from repro.sandpile.vectorized import FrontierSyncStepper
from repro.serve import AdmissionQueue, JobSpec, Rejected, ResultCache

#: layers whose self time is reported as ``<layer>.self_share``
LAYERS = ("request", "admission", "cache", "checkpoint", "service", "supervisor",
          "job", "stepper", "dispatch", "kernel")


def _install_common(rec: Recorder, progress: list[int] | None) -> None:
    def count_progress(args) -> None:
        sup = args[0]
        hook = sup.on_step
        if hook is None:
            return

        def counted(steps, snapshot):
            progress[0] += 1
            hook(steps, snapshot)

        sup.on_step = counted

    def supervised(span: Span, args, _result) -> None:
        span.info["steps"] = args[0].steps_done
        span.info["retries"] = args[0].retries_used

    def dispatched(span: Span, args, result) -> None:
        span.info["tasks"] = len(args[1])
        if result is None:
            return
        busy = result.worker_busy()
        span.info["busiest"] = max(busy, default=0.0)
        for s in result.spans:
            rec.new_span("kernel", "tile", span.start + s.start, span.start + s.end,
                         rid=span.rid, parent=span.sid, thread=f"worker-{s.worker}",
                         info={"worker": s.worker})

    rec.patch(Supervisor, "run", "supervisor",
              before=count_progress if progress is not None else None, after=supervised)
    rec.patch(SandpileJob, "step", "job")
    rec.patch(MapReduceStepJob, "step", "job")
    rec.patch(FrontierSyncStepper, "__call__", "stepper")
    rec.patch(ParallelFrontierStepper, "__call__", "stepper")
    rec.patch(ProcessBackend, "run", "dispatch", after=dispatched)


def install_serve(rec: Recorder, wl, progress: list[int]) -> None:
    """Patch every layer a served request crosses (see module docs)."""
    requests = wl.requests
    rid_by_spec = {id(r.spec): r.rid for r in requests}
    rid_by_key = {r.key: r.rid for r in requests if not r.pooled}

    def picked(span: Span, _args, result):
        if result is None:
            return False  # an idle poll admits nobody
        span.rid = rid_by_spec.get(id(result[1].spec))

    def hit(span: Span, _args, result) -> None:
        span.info["hit"] = result is not None

    def built(span: Span, _args, _result) -> None:
        rec.set_request(span.rid)  # the supervised run that follows, same thread

    rec.patch(AdmissionQueue, "offer", "admission")
    rec.patch(AdmissionQueue, "next_ready", "admission", after=picked)
    rec.patch(ResultCache, "get", "cache", after=hit)
    rec.patch(ResultCache, "put", "cache", request=lambda a: rid_by_key.get(a[1]))
    rec.patch(CheckpointStore, "save", "checkpoint")
    rec.patch(JobSpec, "build", "job", request=lambda a: rid_by_spec.get(id(a[0])),
              after=built)
    _install_common(rec, progress)


def install_fixpoint(rec: Recorder) -> None:
    """Patch the layers a fixpoint run crosses."""
    _install_common(rec, None)


def attach_requests(rec: Recorder, requests) -> None:
    """Add each request's ``request`` and ``service`` spans and hang the
    recorded top-level spans under them."""
    roots: dict[int, tuple[Span, Span | None]] = {}
    for r in requests:
        h = r.handle
        root = rec.new_span("request", f"request {r.kind}", r.due, h.finished_at,
                            rid=r.rid, thread="loadgen")
        svc = None
        if not h.cached and h.admitted_at is not None:
            svc = rec.new_span("service", "JobService run", h.admitted_at, h.finished_at,
                               rid=r.rid, parent=root.sid, thread="service")
        roots[r.rid] = (root, svc)
    for s in rec.spans:
        if s.parent is not None or s.layer in ("request", "service") or s.rid not in roots:
            continue
        root, svc = roots[s.rid]
        s.parent = (svc if svc is not None and s.start >= svc.start else root).sid


def adopt_orphans(rec: Recorder) -> None:
    """Hang parentless spans under their request's ``request`` span."""
    roots = {s.rid: s.sid for s in rec.spans if s.layer == "request"}
    for s in rec.spans:
        if s.parent is None and s.layer != "request" and s.rid in roots:
            s.parent = roots[s.rid]


def _ms(q, scale=1e3):
    return (None if q.value is None else q.value * scale, q.n)


def _peak_depth(requests) -> int:
    events = []
    for r in requests:
        h = r.handle
        if h.admitted_at is not None and not h.cached:
            events += [(r.sent, 1), (h.admitted_at, -1)]
    depth = peak = 0
    for _, d in sorted(events):
        depth += d
        peak = max(peak, depth)
    return peak


def _counter_total(registry, name: str) -> float:
    metric = registry.get(name) if registry is not None else None
    return sum(metric.series().values()) if metric is not None else 0.0


def per_layer(rec: Recorder, *, requests=(), open_loop=(), runs=(), progress: int = 0,
              overhead_share: float) -> dict[str, tuple[float | None, int | None]]:
    """``name -> (value, samples)``; samples is None for counts and totals.

    *requests* are all served requests and *open_loop* the open-loop ones
    among them (serve workloads; admission waits and generator lag are
    taken over those, backlog jobs wait by design); *runs* are the traced
    fixpoint runs, whose metrics registries and degradation logs hold the
    dispatch counters.
    """
    by = defaultdict(list)
    for s in rec.spans:
        by[(s.layer, s.name)].append(s)
    layer = defaultdict(list)
    for s in rec.spans:
        layer[s.layer].append(s)

    def durs(spans):
        return [s.duration for s in spans]

    out: dict[str, tuple[float | None, int | None]] = {}
    # load generator
    lags = [r.sent - r.due for r in open_loop]
    out["loadgen.sent"] = (len(requests) or len(runs), None)
    out["loadgen.lag_p90_ms"] = _ms(quantile(lags, 0.9))
    # admission
    admitted = [r for r in open_loop if r.handle.admitted_at is not None and not r.handle.cached]
    waits = [r.handle.admitted_at - r.handle.submitted_at for r in admitted]
    out["admission.wait_p50_ms"] = _ms(quantile(waits, 0.5))
    out["admission.wait_p90_ms"] = _ms(quantile(waits, 0.9))
    out["admission.peak_depth"] = (_peak_depth(open_loop), None)
    out["admission.rejected"] = (sum(isinstance(r.result, Rejected) for r in requests), None)
    # cache + checkpoint
    gets = by[("cache", "ResultCache.get")]
    puts = by[("cache", "ResultCache.put")]
    hits = sum(1 for s in gets if s.info.get("hit"))
    out["cache.lookups"] = (len(gets), None)
    out["cache.hit_ratio"] = (hits / len(gets) if gets else 0.0, len(gets))
    out["cache.get_p50_us"] = _ms(quantile(durs(gets), 0.5), 1e6)
    out["cache.put_p50_ms"] = _ms(quantile(durs(puts), 0.5))
    out["cache.put_total_s"] = (sum(durs(puts)), len(puts))
    saves = layer["checkpoint"]
    out["checkpoint.saves"] = (len(saves), None)
    out["checkpoint.save_p50_ms"] = _ms(quantile(durs(saves), 0.5))
    # service and supervisor
    svc = layer["service"]
    sup = layer["supervisor"]
    sup_by_rid = defaultdict(float)
    for s in sup:
        sup_by_rid[s.rid] += s.duration
    out["service.run_p50_ms"] = _ms(quantile(durs(svc), 0.5))
    out["service.overhead_p50_ms"] = _ms(
        quantile([s.duration - sup_by_rid[s.rid] for s in svc], 0.5))
    out["service.progress_events"] = (progress, None)
    out["supervisor.run_p50_ms"] = _ms(quantile(durs(sup), 0.5))
    out["supervisor.steps"] = (sum(s.info.get("steps", 0) for s in sup), None)
    out["supervisor.retries"] = (sum(s.info.get("retries", 0) for s in sup), None)
    # job adapters and steppers
    out["job.build_p50_ms"] = _ms(quantile(durs(by[("job", "JobSpec.build")]), 0.5))
    out["job.sandpile.step_p50_us"] = _ms(
        quantile(durs(by[("job", "SandpileJob.step")]), 0.5), 1e6)
    out["job.wordcount.step_p50_us"] = _ms(
        quantile(durs(by[("job", "MapReduceStepJob.step")]), 0.5), 1e6)
    steppers = layer["stepper"]
    out["stepper.iterations"] = (len(steppers), None)
    out["stepper.iter_p50_us"] = _ms(quantile(durs(steppers), 0.5), 1e6)
    # dispatch and the worker kernel
    batches = layer["dispatch"]
    registries = [r.metrics for r in runs]
    kernels = layer["kernel"]
    out["stepper.tiles_computed"] = (sum(s.info.get("tasks", 0) for s in batches), None)
    out["dispatch.batches"] = (
        sum(_counter_total(m, "easypap_dispatch_batches_total") for m in registries), None)
    out["dispatch.commands"] = (
        sum(_counter_total(m, "easypap_dispatch_commands_total") for m in registries), None)
    out["dispatch.bytes"] = (
        sum(_counter_total(m, "easypap_dispatch_bytes_total") for m in registries), None)
    out["dispatch.run_p50_us"] = _ms(quantile(durs(batches), 0.5), 1e6)
    out["dispatch.overhead_p50_us"] = _ms(
        quantile([s.duration - s.info.get("busiest", 0.0) for s in batches], 0.5), 1e6)
    out["dispatch.rebuilds"] = (
        sum(len(r.degradation.by_action("pool-rebuild")) for r in runs), None)
    busy = sum(durs(kernels))
    wall = sum(durs(layer["request"])) if runs else 0.0
    nworkers = max((s.info["worker"] + 1 for s in kernels), default=0)
    out["kernel.tiles"] = (len(kernels), None)
    out["kernel.busy_s"] = (busy, len(kernels))
    out["kernel.tile_p50_us"] = _ms(quantile(durs(kernels), 0.5), 1e6)
    out["kernel.utilization"] = (busy / (nworkers * wall) if nworkers and wall else 0.0, None)
    # self-time shares of the summed request time; on the serve workloads
    # over the open-loop requests, whose latency the shares explain
    rids = {r.rid for r in open_loop} or {s.rid for s in layer["request"]}
    selfs = self_times([s for s in rec.spans if s.rid in rids])
    total = sum(s.duration for s in layer["request"] if s.rid in rids)
    for name in LAYERS:
        out[f"{name}.self_share"] = (selfs.get(name, 0.0) / total if total else 0.0, None)
    out["trace.overhead_share"] = (overhead_share, None)
    return out


def dispatch_account(rec: Recorder) -> tuple[float, float, float, int]:
    """``ProcessBackend.run`` total, dispatch overhead total, busiest-worker
    kernel total, batch count — the first is the sum of the other two."""
    batches = rec.by_layer("dispatch")
    total = sum(s.duration for s in batches)
    busiest = sum(s.info.get("busiest", 0.0) for s in batches)
    return total, total - busiest, busiest, len(batches)
