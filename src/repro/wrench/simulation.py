"""The discrete-event workflow execution simulator.

This is the WRENCH/SimGrid stand-in: given a :class:`~repro.wrench.platform.Platform`,
a :class:`~repro.wrench.workflow.Workflow`, and a *placement* (task ->
site), it simulates a greedy list-scheduled execution and reports the
three numbers the assignment's in-browser simulator shows students —
"execution time, power consumed, and gCO2e generated" — plus per-task and
per-transfer records for deeper analysis.

Execution model (deliberately WRENCH-like but minimal):

* every resource (cluster node / cloud VM) runs one task at a time;
* a task may start when all parents are done and a resource of its
  placed site is idle; ties break by (level, name) so runs are fully
  deterministic;
* inputs missing at the task's site are fetched over the shared FCFS
  link before computing (and cached at the site — data locality);
* energy integrates busy/idle power per resource over the makespan;
  CO2 = energy x site carbon intensity.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.common.errors import ConfigurationError, SimulationError
from repro.common.units import grams_co2e
from repro.wrench.platform import LOCAL, Platform
from repro.wrench.storage import StorageService
from repro.wrench.workflow import Task, Workflow

__all__ = ["TaskExecution", "SimulationResult", "WorkflowSimulation", "simulate", "FaultModel"]


@dataclass(frozen=True)
class FaultModel:
    """Transient task-failure injection (WRENCH's host-failure teaching case).

    Each *attempt* of a task fails independently with ``failure_prob``;
    failures surface after ``detect_factor`` of the attempt's compute time
    (a heartbeat timeout), and the task is retried on the next free
    resource of its site, up to ``max_attempts``.  Failure draws are keyed
    by ``(seed, task name, attempt)`` so they do not depend on dispatch
    order — runs stay deterministic and placement-comparable.
    """

    failure_prob: float = 0.0
    max_attempts: int = 4
    detect_factor: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 <= self.failure_prob < 1.0):
            raise ConfigurationError("failure_prob must be in [0, 1)")
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if not (0.0 < self.detect_factor <= 1.0):
            raise ConfigurationError("detect_factor must be in (0, 1]")

    def attempt_fails(self, task_name: str, attempt: int) -> bool:
        """Deterministic failure draw for (task, attempt)."""
        if self.failure_prob == 0.0:
            return False
        if attempt >= self.max_attempts:
            return False  # the final permitted attempt always succeeds
        from repro.common.rng import derive_seed, make_rng

        rng = make_rng(derive_seed(self.seed, task_name, attempt))
        return bool(rng.random() < self.failure_prob)


@dataclass(frozen=True)
class TaskExecution:
    """Timing record of one executed task attempt."""

    task: str
    category: str
    level: int
    site: str
    resource: str
    ready: float
    start: float
    compute_start: float
    end: float
    attempt: int = 1
    failed: bool = False

    @property
    def transfer_time(self) -> float:
        """Seconds spent fetching inputs before computing."""
        return self.compute_start - self.start

    @property
    def compute_time(self) -> float:
        """Seconds spent computing (transfers excluded)."""
        return self.end - self.compute_start


@dataclass
class SimulationResult:
    """Outputs of one simulated execution."""

    makespan: float
    executions: list[TaskExecution]
    energy_joules: dict[str, float]
    co2_grams: dict[str, float]
    link_bytes: float
    link_busy: float

    @property
    def total_energy(self) -> float:
        """Energy over all sites, in joules."""
        return sum(self.energy_joules.values())

    @property
    def total_co2(self) -> float:
        """CO2 over all sites, in grams."""
        return sum(self.co2_grams.values())

    @property
    def mean_power_watts(self) -> float:
        """Average platform power draw over the makespan."""
        return self.total_energy / self.makespan if self.makespan > 0 else 0.0

    def site_task_counts(self) -> dict[str, int]:
        """Successful task count per site."""
        counts: dict[str, int] = {}
        for ex in self.executions:
            if not ex.failed:
                counts[ex.site] = counts.get(ex.site, 0) + 1
        return counts

    @property
    def failures(self) -> int:
        """Number of failed task attempts (0 without a fault model)."""
        return sum(1 for ex in self.executions if ex.failed)


class WorkflowSimulation:
    """One executable simulation instance (platform state is consumed)."""

    def __init__(
        self,
        platform: Platform,
        workflow: Workflow,
        placement: dict[str, str] | None = None,
        *,
        initial_data_site: str = LOCAL,
        fault_model: FaultModel | None = None,
    ) -> None:
        self.platform = platform
        self.workflow = workflow
        self.placement = dict(placement or {})
        self.initial_data_site = initial_data_site
        self.fault_model = fault_model
        # default placement: everything local
        for t in workflow.tasks:
            self.placement.setdefault(t.name, LOCAL)
        for name, site in self.placement.items():
            if site not in platform.sites:
                raise ConfigurationError(f"task {name!r} placed on unknown site {site!r}")
            if platform.site(site).n_resources == 0:
                raise ConfigurationError(
                    f"task {name!r} placed on site {site!r} which has no resources"
                )

    # -- internals ------------------------------------------------------------------

    def _dispatch(
        self,
        task: Task,
        resource,
        now: float,
        ready_time: float,
        storages: dict[str, StorageService],
        levels: dict[str, int],
        attempt: int = 1,
    ) -> TaskExecution:
        site = resource.site
        store = storages[site]
        start = now
        compute_start = start
        for f in sorted(task.inputs, key=lambda f: f.name):
            if store.has(f.name):
                continue
            src = next((s for s, st in storages.items() if st.has(f.name)), None)
            if src is None:
                raise SimulationError(f"input {f.name!r} of {task.name!r} exists nowhere")
            end = self.platform.link.transfer(f.name, f.size, compute_start, src, site)
            store.put(f.name, f.size)
            compute_start = end
        duration = task.flops / resource.speed
        failed = (
            self.fault_model is not None
            and self.fault_model.attempt_fails(task.name, attempt)
        )
        if failed:
            # the failure surfaces part-way through; no outputs materialise
            duration *= self.fault_model.detect_factor
        end = compute_start + duration
        resource.available_at = end
        resource.busy_time += duration
        resource.tasks_run += 1
        if not failed:
            for f in task.outputs:
                store.put(f.name, f.size)
        return TaskExecution(
            task=task.name,
            category=task.category,
            level=levels[task.name],
            site=site,
            resource=resource.name,
            ready=ready_time,
            start=start,
            compute_start=compute_start,
            end=end,
            attempt=attempt,
            failed=failed,
        )

    # -- public ----------------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Execute the batch; returns the resulting schedule placement."""
        wf = self.workflow
        graph = wf.graph()
        levels = wf.levels()
        storages = {name: StorageService(name) for name in self.platform.sites}
        for f in wf.input_files():
            storages[self.initial_data_site].put(f.name, f.size)

        remaining = {name: graph.in_degree(name) for name in graph.nodes}
        ready_time = {name: 0.0 for name in graph.nodes}
        # per-site priority queues of ready tasks, keyed (level, name)
        site_names = sorted(self.platform.sites)
        pending: dict[str, list[tuple[int, str]]] = {s: [] for s in site_names}
        n_pending = 0
        for n, d in remaining.items():
            if d == 0:
                heapq.heappush(pending[self.placement[n]], (levels[n], n))
                n_pending += 1
        # per-site pools of idle resources (order by name for determinism)
        idle: dict[str, list] = {
            s: sorted(self.platform.site(s).resources, key=lambda r: r.name, reverse=True)
            for s in site_names
        }
        events: list[tuple[float, int, str, object]] = []
        seq = 0
        executions: list[TaskExecution] = []
        now = 0.0

        attempts = {name: 0 for name in graph.nodes}

        def try_dispatch() -> None:
            nonlocal seq, n_pending
            for site in site_names:
                queue = pending[site]
                free = idle[site]
                while queue and free:
                    _, name = heapq.heappop(queue)
                    resource = free.pop()
                    n_pending -= 1
                    attempts[name] += 1
                    ex = self._dispatch(
                        wf.task(name), resource, now, ready_time[name], storages, levels,
                        attempt=attempts[name],
                    )
                    executions.append(ex)
                    heapq.heappush(events, (ex.end, seq, name, resource, ex.failed))
                    seq += 1

        try_dispatch()
        while events:
            now, _, done, resource, failed = heapq.heappop(events)
            idle[resource.site].append(resource)
            if failed:
                # re-execution: the task goes back in its site's queue
                ready_time[done] = now
                heapq.heappush(pending[self.placement[done]], (levels[done], done))
                n_pending += 1
            else:
                for child in graph.successors(done):
                    remaining[child] -= 1
                    if remaining[child] == 0:
                        ready_time[child] = now
                        heapq.heappush(pending[self.placement[child]], (levels[child], child))
                        n_pending += 1
            try_dispatch()

        if n_pending or any(v > 0 for v in remaining.values()):
            stuck = [n for n, v in remaining.items() if v > 0]
            raise SimulationError(f"simulation stalled; unfinished tasks: {stuck[:5]}...")

        makespan = max((ex.end for ex in executions), default=0.0)
        energy: dict[str, float] = {}
        co2: dict[str, float] = {}
        for site_name, site in self.platform.sites.items():
            e = 0.0
            for r in site.resources:
                idle_time = max(makespan - r.busy_time, 0.0)
                e += r.busy_time * r.pstate.busy_power + idle_time * r.pstate.idle_power
            e += site.overhead_watts * makespan
            energy[site_name] = e
            co2[site_name] = grams_co2e(e, site.carbon_intensity)

        return SimulationResult(
            makespan=makespan,
            executions=executions,
            energy_joules=energy,
            co2_grams=co2,
            link_bytes=self.platform.link.total_bytes,
            link_busy=self.platform.link.busy_time,
        )


def simulate(
    workflow: Workflow,
    platform: Platform,
    placement: dict[str, str] | None = None,
    *,
    initial_data_site: str = LOCAL,
    fault_model: FaultModel | None = None,
) -> SimulationResult:
    """One-shot convenience wrapper around :class:`WorkflowSimulation`."""
    return WorkflowSimulation(
        platform,
        workflow,
        placement,
        initial_data_site=initial_data_site,
        fault_model=fault_model,
    ).run()
