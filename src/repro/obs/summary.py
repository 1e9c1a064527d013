"""Trace summaries and side-by-side diffs.

The numeric counterpart of the timeline views: makespan, per-lane busy
time and busy fraction, span counts per lane and per category.
``summarize(iteration_view(tracer, i))`` (see
:mod:`repro.easypap.monitor`) is the per-iteration summary of a tiled
run: tasks, makespan, ``worker_busy`` and imbalance.

:func:`diff_summaries` is the paper's Fig. 3 operation generalised: the
same workload traced under two configurations (two scheduling policies,
two backends), compared lane by lane.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.obs.records import SpanRecord
from repro.obs.tracer import Tracer

__all__ = ["LaneSummary", "TraceSummary", "summarize", "diff_summaries", "SummaryDiff"]


@dataclass(frozen=True)
class LaneSummary:
    """Aggregates for one ``(pid, tid)`` lane."""

    pid: str
    tid: int | str
    span_count: int
    busy: float

    def busy_fraction(self, makespan: float) -> float:
        """Busy seconds over the trace makespan (0 when empty)."""
        return self.busy / makespan if makespan > 0 else 0.0


@dataclass
class TraceSummary:
    """Aggregate statistics over (a filtered view of) one trace."""

    span_count: int
    t0: float
    t1: float
    lanes: dict[tuple, LaneSummary] = field(default_factory=dict)
    by_cat: dict[str, int] = field(default_factory=dict)
    #: degradation instants counted by ``(substrate pid, component:action)``
    degradations: dict[tuple, int] = field(default_factory=dict)
    #: counter tracks: name -> {series: last-sampled value} (e.g. the
    #: process backend's dispatch metrics projected by the easypap adapter)
    counters: dict[str, dict] = field(default_factory=dict)

    @property
    def makespan(self) -> float:
        """Last end minus first start."""
        return self.t1 - self.t0

    @property
    def total_busy(self) -> float:
        """Summed busy seconds over all lanes (serial-equivalent work)."""
        return sum(lane.busy for lane in self.lanes.values())

    @property
    def worker_busy(self) -> dict:
        """Busy seconds keyed by ``tid`` (for easypap tiles: by worker).

        Only meaningful when tids are unique across pids (single-substrate
        traces); colliding tids sum.
        """
        out: dict = defaultdict(float)
        for lane in self.lanes.values():
            out[lane.tid] += lane.busy
        return dict(out)

    @property
    def task_counts(self) -> dict:
        """Span counts keyed by ``tid``."""
        out: dict = defaultdict(int)
        for lane in self.lanes.values():
            out[lane.tid] += lane.span_count
        return dict(out)

    @property
    def imbalance(self) -> float:
        """``max(busy)/mean(busy) - 1`` over lanes (0 when empty)."""
        busy = [lane.busy for lane in self.lanes.values()]
        if not busy:
            return 0.0
        mean = sum(busy) / len(busy)
        return max(busy) / mean - 1.0 if mean > 0 else 0.0

    def render(self, *, title: str = "trace") -> str:
        """Human-readable multi-line report."""
        lines = [
            f"{title}: {self.span_count} spans, makespan {self.makespan:.6g}s, "
            f"total work {self.total_busy:.6g}s, imbalance {self.imbalance:.3f}"
        ]
        if self.by_cat:
            cats = ", ".join(f"{c}={n}" for c, n in sorted(self.by_cat.items()))
            lines.append(f"  by category: {cats}")
        for (pid, tid), lane in sorted(self.lanes.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))):
            lines.append(
                f"  {pid}/{tid}: {lane.span_count} spans, busy {lane.busy:.6g}s "
                f"({100 * lane.busy_fraction(self.makespan):.1f}%)"
            )
        if self.degradations:
            total = sum(self.degradations.values())
            lines.append(f"  degradations: {total} event(s)")
            for (pid, kind), n in sorted(self.degradations.items()):
                lines.append(f"    {pid}: {kind} x{n}")
        if self.counters:
            lines.append("  counters:")
            for name, series in sorted(self.counters.items()):
                body = ", ".join(f"{k}={v:.6g}" for k, v in sorted(series.items()))
                lines.append(f"    {name}: {body}")
        return "\n".join(lines)


def summarize(
    tracer: Tracer,
    *,
    pid: str | None = None,
    where=None,
) -> TraceSummary:
    """Aggregate the trace's spans (optionally one pid, optionally filtered).

    *where* is a predicate over :class:`SpanRecord` — e.g.
    ``lambda s: s.args.get("iteration") == 7`` to summarise one iteration
    of an easypap run.

    Degradation instants (``cat="degradation"``, the shape every
    substrate adapter and the job supervisor emit) are counted by
    ``(pid, name)`` — substrate by fallback kind — so retries, pool
    rebuilds, and checkpoint rejections are visible in ``repro-trace
    summary`` without opening Perfetto.
    """
    degradations: dict[tuple, int] = defaultdict(int)
    for rec in tracer.instants():
        if rec.cat == "degradation" and (pid is None or rec.pid == pid):
            degradations[(rec.pid, rec.name)] += 1
    # counter tracks keep their *last* sample per series: totals (like the
    # dispatch metrics) read as the run's final count, decaying tracks
    # (like the frontier window) as where they ended up
    counters: dict[str, dict] = {}
    for rec in tracer.counters():
        if pid is None or rec.pid == pid:
            counters.setdefault(rec.name, {}).update(rec.values)
    spans: list[SpanRecord] = [
        s
        for s in tracer.spans()
        if (pid is None or s.pid == pid) and (where is None or where(s))
    ]
    if not spans:
        return TraceSummary(
            span_count=0, t0=0.0, t1=0.0,
            degradations=dict(degradations), counters=counters,
        )
    busy: dict[tuple, float] = defaultdict(float)
    counts: dict[tuple, int] = defaultdict(int)
    by_cat: dict[str, int] = defaultdict(int)
    for s in spans:
        key = (s.pid, s.tid)
        busy[key] += s.duration
        counts[key] += 1
        by_cat[s.cat] += 1
    lanes = {
        key: LaneSummary(pid=key[0], tid=key[1], span_count=counts[key], busy=busy[key])
        for key in busy
    }
    return TraceSummary(
        span_count=len(spans),
        t0=min(s.start for s in spans),
        t1=max(s.end for s in spans),
        lanes=lanes,
        by_cat=dict(by_cat),
        degradations=dict(degradations),
        counters=counters,
    )


@dataclass(frozen=True)
class SummaryDiff:
    """Two summaries of the same workload, side by side."""

    left: TraceSummary
    right: TraceSummary
    left_name: str = "left"
    right_name: str = "right"

    @property
    def makespan_ratio(self) -> float:
        """Left makespan over right makespan (inf when right is empty)."""
        if self.right.makespan == 0:
            return float("inf") if self.left.makespan else 1.0
        return self.left.makespan / self.right.makespan

    @property
    def span_ratio(self) -> float:
        """Left span count over right span count."""
        if self.right.span_count == 0:
            return float("inf") if self.left.span_count else 1.0
        return self.left.span_count / self.right.span_count

    def render(self) -> str:
        """Side-by-side comparison text (the Fig. 3 exercise)."""
        a, b = self.left, self.right
        lines = [
            f"{self.left_name} vs {self.right_name}",
            f"  spans     : {a.span_count} vs {b.span_count} (ratio {self.span_ratio:.2f})",
            f"  makespan  : {a.makespan:.6g} vs {b.makespan:.6g} "
            f"(ratio {self.makespan_ratio:.2f})",
            f"  total work: {a.total_busy:.6g} vs {b.total_busy:.6g}",
            f"  imbalance : {a.imbalance:.3f} vs {b.imbalance:.3f}",
        ]
        tids = sorted(
            set(a.worker_busy) | set(b.worker_busy), key=lambda t: (str(type(t)), str(t))
        )
        for tid in tids:
            la = a.worker_busy.get(tid, 0.0)
            lb = b.worker_busy.get(tid, 0.0)
            fa = 100 * la / a.makespan if a.makespan > 0 else 0.0
            fb = 100 * lb / b.makespan if b.makespan > 0 else 0.0
            lines.append(f"  lane {tid}: busy {fa:5.1f}% vs {fb:5.1f}%")
        return "\n".join(lines)


def diff_summaries(
    left: TraceSummary,
    right: TraceSummary,
    *,
    left_name: str = "left",
    right_name: str = "right",
) -> SummaryDiff:
    """Pair two summaries for rendering/ratio queries."""
    return SummaryDiff(left=left, right=right, left_name=left_name, right_name=right_name)
