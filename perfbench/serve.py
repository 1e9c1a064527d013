"""The ``serve-repeat`` workload: an open-loop Poisson stream, then a backlog drain.

It drives one ``JobService(workers=2)`` with three tenants weighted 2/1/1
and a ``ResultCache`` over a fresh durable directory.  4 in 5 requests
repeat a pool of specs that a separate ``ResultCache`` wrote into the
directory during set-up; the rest are fresh (4 in 5 sparse-random 48²
sandpile ``frontier`` jobs, 1 in 5 ``wordcount`` jobs, each with its own
seed), so each of them misses and its completion writes to the cache.

The load generator is the benchmark's own: arrivals are scheduled on
absolute due times and each request is timed from its due time, so a
stalled event loop shows as latency of the requests it delayed, and the
generator's own lateness is reported as ``loadgen.lag_p90_ms``.
"""

from __future__ import annotations

import asyncio
import hashlib
import math
import random
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench.stats import lower_quartile, quantile
from repro.common.supervisor import Supervisor
from repro.serve import (
    JobCancelled,
    JobService,
    JobSpec,
    Rejected,
    ResultCache,
    TenantPolicy,
    registered_workloads,
    result_fingerprint,
)

#: the service under test: two worker threads on a 2-core host
WORKERS = 2
#: weights 2/1/1; queues deep enough that neither phase sheds a request
TENANTS = (
    TenantPolicy("t0", weight=2.0, max_active=2, max_queued=4096),
    TenantPolicy("t1", weight=1.0, max_active=2, max_queued=4096),
    TenantPolicy("t2", weight=1.0, max_active=2, max_queued=4096),
)
#: sparse-random sandpile request: 4 piles of 512 grains on a 48² grid
SANDPILE = {"config": "sparse", "size": 48, "n_piles": 4, "pile_grains": 512,
            "variant": "frontier"}
#: open-loop arrivals per second (fixed, never calibrated per host)
RATE = 60.0
#: pre-filled specs that 4 in 5 requests repeat
POOL = 10
#: share of --seconds given to the open loop
OPEN_SHARE = 0.65
#: backlog jobs per second of --seconds
BACKLOG_PER_S = 70.0
#: set-up + open-loop segment + drain, this many times per run
ROUNDS = 5
#: fresh served results re-run in-process and compared, per run
CHECK_SAMPLE = 8
#: seconds between the start of an open-loop segment and its first due time
LEAD_S = 0.05


@dataclass
class Request:
    rid: int
    spec: JobSpec
    tenant: str
    kind: str  # "sandpile" | "wordcount"
    pooled: bool
    offset: float = 0.0  # due time relative to the phase start
    key: str = ""
    due: float = 0.0
    sent: float = 0.0
    handle: object = None
    result: object = None
    error: BaseException | None = None

    @property
    def latency(self) -> float:
        return self.handle.finished_at - self.due


def _sandpile(seed: int) -> JobSpec:
    return JobSpec("easypap", "sandpile", {**SANDPILE, "seed": seed})


def _wordcount(seed: int) -> JobSpec:
    return JobSpec("mapreduce", "wordcount", {"seed": seed})


class _Blocks:
    """Exact proportions: each block of five holds 4 of *a* and 1 of *b*."""

    def __init__(self, rng: random.Random, a, b) -> None:
        self.rng, self.a, self.b, self.block = rng, a, b, []

    def next(self):
        if not self.block:
            self.block = [self.a] * 4 + [self.b]
            self.rng.shuffle(self.block)
        return self.block.pop()


def _gaps(rng: random.Random, rate: float, n: int) -> list[float]:
    """*n* exponential inter-arrival gaps at *rate*, stratified.

    The gaps are the *n* mid-quantiles of the exponential distribution in
    a seeded random order: every seed gets the same number of short gaps
    (bursts) and only their placement changes, which keeps the tail
    latency of short runs from depending on how bursty one seed happens
    to be.
    """
    u = [(i + 0.5) / n for i in range(n)]
    rng.shuffle(u)
    return [-math.log(1.0 - x) / rate for x in u]


@dataclass
class Workload:
    """Everything one run submits, generated from the seed alone.

    The run alternates open-loop segments and backlog drains, round by
    round, so both phases (and the set-ups before each round) sample the
    whole run rather than one end of it.
    """

    pool: list[JobSpec]
    rounds: list[tuple[list[Request], list[Request]]]  # (open loop, backlog)
    warmup: list[JobSpec]

    @property
    def open_loop(self) -> list[Request]:
        return [r for open_, _ in self.rounds for r in open_]

    @property
    def backlog(self) -> list[Request]:
        return [r for _, backlog in self.rounds for r in backlog]

    @property
    def requests(self) -> list[Request]:
        return [r for open_, backlog in self.rounds for r in open_ + backlog]

    def key_digest(self) -> str:
        h = hashlib.sha256()
        for r in self.requests:
            h.update(r.key.encode())
        return h.hexdigest()[:16]


def make_workload(seed: int, seconds: float) -> Workload:
    """Seeded specs, tenants and due times at *seconds* per run."""
    kinds = _Blocks(random.Random(f"{seed}:kinds"), "sandpile", "wordcount")
    repeats = _Blocks(random.Random(f"{seed}:repeats"), True, False)
    pick = random.Random(f"{seed}:pool")
    tenants = random.Random(f"{seed}:tenants")
    arrivals = random.Random(f"{seed}:arrivals")
    next_seed = iter(range(seed * 1_000_000, (seed + 1) * 1_000_000))

    def fresh() -> JobSpec:
        make = _sandpile if kinds.next() == "sandpile" else _wordcount
        return make(next(next_seed))

    pool = [_sandpile(next(next_seed)) for _ in range(POOL * 4 // 5)]
    pool += [_wordcount(next(next_seed)) for _ in range(POOL - len(pool))]
    rid = iter(range(1, 1 << 30))

    def request() -> Request:
        pooled = repeats.next()
        # a fresh JobSpec object per request, so the trace can tell them apart
        spec = JobSpec(**vars(pick.choice(pool))) if pooled else fresh()
        tenant = tenants.choices([p.name for p in TENANTS], weights=[p.weight for p in TENANTS])[0]
        return Request(next(rid), spec, tenant, spec.workload, pooled, key=spec.key())

    n_open = round(RATE * OPEN_SHARE * seconds / ROUNDS)
    n_backlog = round(BACKLOG_PER_S * seconds / ROUNDS)
    rounds = []
    for _ in range(ROUNDS):
        open_, t = [], 0.0
        for gap in _gaps(arrivals, RATE, n_open):
            t += gap
            r = request()
            r.offset = t
            open_.append(r)
        rounds.append((open_, [request() for _ in range(n_backlog)]))
    # warm-up specs live outside every workload's seed range
    warmup = [_sandpile(10**12 + i) for i in range(2)] + [_wordcount(10**12)]
    return Workload(pool, rounds, warmup)


def warm_imports() -> None:
    """Load the substrate adapters and steppers once, before anything is timed."""
    registered_workloads()
    for spec in (_sandpile(10**12 + 99), _wordcount(10**12 + 99)):
        with spec.build() as job:
            Supervisor(job).run()


# -- set-up ------------------------------------------------------------------------


@dataclass
class Setup:
    service: JobService
    directory: Path
    fingerprints: dict[str, str]
    seconds: float


async def set_up(work: Path, wl: Workload) -> Setup:
    """Fresh cache directory, pool pre-fill, service start, one warm-up request
    per worker (so the executor threads exist before timing starts)."""
    t0 = time.monotonic()
    directory = Path(tempfile.mkdtemp(prefix="cache-", dir=work))
    fingerprints = {}
    filler = ResultCache(directory)
    for spec in wl.pool:
        with spec.build() as job:
            result = Supervisor(job).run()
        key = spec.key()
        filler.put(key, result)
        fingerprints[key] = result_fingerprint(result)
    service = JobService(TENANTS, workers=WORKERS, cache=ResultCache(directory))
    await service.start()
    handles = [service.submit(s, tenant=TENANTS[0].name) for s in wl.warmup]
    for h in handles:
        if isinstance(await h.result(), Rejected):
            raise RuntimeError(f"warm-up request was rejected: {h.spec}")
    return Setup(service, directory, fingerprints, time.monotonic() - t0)


async def tear_down(setup: Setup) -> None:
    await setup.service.stop()
    shutil.rmtree(setup.directory, ignore_errors=True)


# -- the two phases ------------------------------------------------------------------


async def _settle(requests: list[Request]) -> None:
    results = await asyncio.gather(
        *(r.handle.result() for r in requests), return_exceptions=True
    )
    for r, res in zip(requests, results):
        if isinstance(res, BaseException):
            r.error = res
        else:
            r.result = res


def _submit(service: JobService, r: Request, recorder) -> None:
    r.sent = time.monotonic()
    if recorder is not None:
        recorder.set_request(r.rid)
    r.handle = service.submit(r.spec, tenant=r.tenant)


async def open_loop(service: JobService, requests: list[Request], recorder=None) -> None:
    """Submit each request at its due time (never earlier), then await all."""
    base = time.monotonic() + LEAD_S
    for r in requests:
        r.due = base + r.offset
        delay = r.due - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        _submit(service, r, recorder)
    await _settle(requests)


async def drain(service: JobService, requests: list[Request], recorder=None) -> float:
    """Submit the whole backlog at once; seconds until the last result."""
    t0 = time.monotonic()
    for r in requests:
        r.due = t0
        _submit(service, r, recorder)
    await _settle(requests)
    return max(r.handle.finished_at for r in requests) - t0


# -- checks ---------------------------------------------------------------------------


def _outcome(r: Request) -> str:
    if isinstance(r.error, JobCancelled):
        return "cancelled"
    if r.error is not None:
        return "failed"
    if isinstance(r.result, Rejected):
        return "rejected"
    return "completed"


def check(wl: Workload, fingerprints: dict[str, str], seed: int) -> tuple[dict, list[str]]:
    """Count outcomes and wrong results; returns (counts, problems).

    Every completed sandpile result must be stable and conserve its
    grains; every cache hit must match the pre-filled fingerprint (a fresh
    spec must never hit); a seeded sample of fresh results
    must equal a new in-process ``Supervisor`` run of the same spec.
    """
    requests = wl.requests
    counts = {"completed": 0, "failed": 0, "rejected": 0, "cancelled": 0, "wrong": 0}
    problems: list[str] = []

    def wrong(r: Request, why: str) -> None:
        counts["wrong"] += 1
        counts["completed"] -= 1
        if len(problems) < 5:
            problems.append(f"request {r.rid} ({r.kind}, key {r.key[:12]}): {why}")

    fresh = []
    for r in requests:
        counts[_outcome(r)] += 1
        if _outcome(r) != "completed":
            if len(problems) < 5:
                problems.append(f"request {r.rid}: {_outcome(r)} ({r.error or r.result})")
            continue
        if r.handle.cached:
            want = fingerprints.get(r.key)
            if want is None:
                wrong(r, "unexpected cache hit")
            elif result_fingerprint(r.result) != want:
                wrong(r, "cache hit differs from the stored result_fingerprint")
            continue
        if r.kind == "sandpile":
            grid = r.result["grid"]
            total = SANDPILE["n_piles"] * SANDPILE["pile_grains"]
            if grid.max() > 3 or int(grid.sum()) + r.result["sink_absorbed"] != total:
                wrong(r, "sandpile result unstable or not grain-conserving")
                continue
        fresh.append(r)
    sample = random.Random(f"{seed}:check").sample(fresh, min(CHECK_SAMPLE, len(fresh)))
    for r in sample:
        with r.spec.build() as job:
            expect = result_fingerprint(Supervisor(job).run())
        if result_fingerprint(r.result) != expect:
            wrong(r, "served result differs from a fresh in-process run")
    return counts, problems


# -- metrics ----------------------------------------------------------------------------


@dataclass
class ServeRun:
    """A pass over the workload's rounds, one entry per round."""

    setup_s: list[float] = field(default_factory=list)
    drain_s: list[float] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    fingerprints: dict[str, str] = field(default_factory=dict)


async def run_round(work: Path, wl: Workload, i: int, run: ServeRun, *, recorder=None,
                    install=None) -> None:
    """Run round *i* on a freshly set-up service and add it to *run*.

    ``install(recorder, workload)`` patches the entry points after set-up
    and the patches come off before tear-down, so set-up is never traced.
    """
    open_, backlog = wl.rounds[i]
    setup = await set_up(work, wl)
    try:
        if install is not None:
            install(recorder, wl)
        try:
            await open_loop(setup.service, open_, recorder)
            drain_s = await drain(setup.service, backlog, recorder)
        finally:
            if recorder is not None:
                recorder.uninstall()
        run.setup_s.append(setup.seconds)
        run.drain_s.append(drain_s)
        run.cache_hits += setup.service.cache.hits
        run.cache_misses += setup.service.cache.misses
        run.fingerprints = setup.fingerprints
    finally:
        await tear_down(setup)


async def run_pass(work: Path, wl: Workload) -> ServeRun:
    """Run every round, untraced, each on its own service."""
    run = ServeRun()
    for i in range(len(wl.rounds)):
        await run_round(work, wl, i, run)
    return run


async def run_interleaved(work: Path, wl: Workload, ref: Workload, recorder, install
                          ) -> tuple[ServeRun, ServeRun]:
    """Run each round of *ref* untraced, then the same round of *wl* traced.

    *ref* holds the same specs as *wl* (same seed), so the two passes have
    the same shape and alternate through the run; the untraced one is the
    base of ``trace.overhead_share``.  Returns (traced, untraced).
    """
    traced, untraced = ServeRun(), ServeRun()
    for i in range(len(wl.rounds)):
        await run_round(work, ref, i, untraced)
        await run_round(work, wl, i, traced, recorder=recorder, install=install)
    return traced, untraced


def end_to_end(wl: Workload, run: ServeRun) -> dict[str, tuple[float | None, int]]:
    """``name -> (value, samples)`` for every end-to-end metric.

    Each round yields its own latency percentiles, sandpile fixpoint time
    and drain time; the run reports their lower quartile (see
    :mod:`perfbench.stats`), and the capacity is one round's backlog over
    the lower quartile of the drain times.
    """
    p50, p90, fix = [], [], []
    n_lat = n_fix = 0
    for open_, _backlog in wl.rounds:
        done = [r for r in open_ if _outcome(r) == "completed"]
        lat = [r.latency for r in done]
        served = [r.handle.finished_at - r.handle.admitted_at
                  for r in done if r.kind == "sandpile" and not r.handle.cached]
        p50.append(quantile(lat, 0.5).value)
        p90.append(quantile(lat, 0.9).value)
        fix.append(quantile(served, 0.5).value)
        n_lat += len(lat)
        n_fix += len(served)
    ms = {k: (None if v is None else v * 1e3)
          for k, v in (("p50", lower_quartile(p50)), ("p90", lower_quartile(p90)))}
    per_round = len(wl.rounds[0][1])
    return {
        "latency_p50_ms": (ms["p50"], n_lat),
        "latency_p90_ms": (ms["p90"], n_lat),
        "capacity_rps": (per_round / lower_quartile(run.drain_s), len(wl.backlog)),
        "fixpoint_s": (lower_quartile(fix), n_fix),
        "setup_s": (statistics.median(run.setup_s), len(run.setup_s)),
    }
