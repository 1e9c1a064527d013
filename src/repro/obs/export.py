"""Exporters: Chrome trace-event JSON (Perfetto) and ASCII timelines.

:func:`to_chrome_trace` projects a :class:`~repro.obs.tracer.Tracer` onto
the Chrome trace-event JSON format, loadable at https://ui.perfetto.dev —
the modern stand-in for EASYPAP's SDL trace-explorer window.  Track
groups (``pid``) become Perfetto processes, lanes (``tid``) become
threads, both named via ``"M"`` metadata events; spans become complete
``"X"`` events; flows (MPI send→recv, mapreduce shuffle) become
``"s"``/``"f"`` arrow pairs; counter samples become ``"C"`` tracks.

Timestamps are converted from seconds to integer-friendly microseconds.
Virtual clocks export unchanged — Perfetto does not care whether a
microsecond was real.

:func:`ascii_timeline` is the terminal fallback and EASYPAP's Gantt view
(one iteration of tile spans via :func:`repro.easypap.monitor.iteration_view`):
one lane per track, a legend, and a per-lane busy%% column.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict

from repro.obs.records import CounterRecord, FlowRecord, InstantRecord, SpanRecord
from repro.obs.tracer import Tracer

__all__ = [
    "chrome_trace_events",
    "to_chrome_trace",
    "save_chrome_trace",
    "ascii_timeline",
]

_US = 1e6  # seconds -> microseconds

#: timeline marks by category; unlisted categories use their first letter
_CAT_MARKS = {"compute": "#", "comm": "c", "gpu": "G"}


def _mark_for(cat: str) -> str:
    mark = _CAT_MARKS.get(cat)
    if mark is None:
        mark = cat[0] if cat else "#"
    return mark


def _lane_tables(tracer: Tracer):
    """Stable integer ids for pids and (pid, tid) lanes.

    Chrome wants integer pid/tid; names go into ``"M"`` metadata events.
    Sorting by name keeps the mapping deterministic across runs.
    """
    pids: set[str] = set()
    lanes: set[tuple[str, object]] = set()
    for r in tracer.records:
        if isinstance(r, FlowRecord):
            pids.update((r.src.pid, r.dst.pid))
            lanes.update({(r.src.pid, r.src.tid), (r.dst.pid, r.dst.tid)})
        elif isinstance(r, CounterRecord):
            pids.add(r.pid)
        else:
            pids.add(r.pid)
            lanes.add((r.pid, r.tid))
    pid_ids = {name: i + 1 for i, name in enumerate(sorted(pids))}
    tid_ids: dict[tuple, int] = {}
    by_pid: dict[str, list] = defaultdict(list)
    for pid, tid in lanes:
        by_pid[pid].append(tid)
    def lane_order(tid):
        # numeric lanes first in numeric order, then named lanes
        if isinstance(tid, bool) or not isinstance(tid, (int, float)):
            return (1, 0, str(tid))
        return (0, tid, "")

    for pid, tids in by_pid.items():
        for i, tid in enumerate(sorted(tids, key=lane_order)):
            tid_ids[(pid, tid)] = i + 1
    return pid_ids, tid_ids


def chrome_trace_events(tracer: Tracer) -> list[dict]:
    """The ``traceEvents`` list for one tracer."""
    pid_ids, tid_ids = _lane_tables(tracer)
    events: list[dict] = []
    for name, p in sorted(pid_ids.items()):
        events.append(
            {"name": "process_name", "ph": "M", "pid": p, "args": {"name": name}}
        )
        events.append(
            {"name": "process_sort_index", "ph": "M", "pid": p, "args": {"sort_index": p}}
        )
    for (pid, tid), t in sorted(tid_ids.items(), key=lambda kv: (kv[1], str(kv[0]))):
        label = tid if isinstance(tid, str) else f"worker {tid}"
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid_ids[pid],
                "tid": t,
                "args": {"name": str(label)},
            }
        )
    for r in tracer.records:
        if isinstance(r, SpanRecord):
            events.append(
                {
                    "name": r.name,
                    "cat": r.cat,
                    "ph": "X",
                    "ts": r.start * _US,
                    "dur": max(r.end - r.start, 0.0) * _US,
                    "pid": pid_ids[r.pid],
                    "tid": tid_ids[(r.pid, r.tid)],
                    "args": r.args,
                }
            )
        elif isinstance(r, InstantRecord):
            events.append(
                {
                    "name": r.name,
                    "cat": r.cat,
                    "ph": "i",
                    "s": r.scope,
                    "ts": r.ts * _US,
                    "pid": pid_ids[r.pid],
                    "tid": tid_ids.get((r.pid, r.tid), 0),
                    "args": r.args,
                }
            )
        elif isinstance(r, FlowRecord):
            common = {"name": r.name, "cat": r.cat, "id": r.flow_id}
            events.append(
                {
                    **common,
                    "ph": "s",
                    "ts": r.src.ts * _US,
                    "pid": pid_ids[r.src.pid],
                    "tid": tid_ids[(r.src.pid, r.src.tid)],
                }
            )
            events.append(
                {
                    **common,
                    "ph": "f",
                    "bp": "e",
                    "ts": r.dst.ts * _US,
                    "pid": pid_ids[r.dst.pid],
                    "tid": tid_ids[(r.dst.pid, r.dst.tid)],
                }
            )
        elif isinstance(r, CounterRecord):
            events.append(
                {
                    "name": r.name,
                    "ph": "C",
                    "ts": r.ts * _US,
                    "pid": pid_ids[r.pid],
                    "args": r.values,
                }
            )
    return events


def to_chrome_trace(tracer: Tracer) -> dict:
    """The full Chrome trace JSON object (Perfetto-loadable)."""
    return {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.obs", "process": tracer.process},
    }


def save_chrome_trace(tracer: Tracer, path: str | os.PathLike) -> None:
    """Write :func:`to_chrome_trace` as a ``.json`` file."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_chrome_trace(tracer), fh)


def ascii_timeline(
    tracer: Tracer,
    *,
    width: int = 72,
    pid: str | None = None,
) -> str:
    """Render spans as one ASCII lane per ``(pid, tid)``.

    Includes a legend (mark -> category) and a busy%% column per lane —
    the self-describing version of the EASYPAP Gantt view.  *pid*
    restricts the view to one track group.
    """
    spans = [s for s in tracer.spans() if pid is None or s.pid == pid]
    if not spans:
        where = f" for pid {pid!r}" if pid else ""
        return f"<no spans{where}>"
    t0 = min(s.start for s in spans)
    t1 = max(s.end for s in spans)
    span = max(t1 - t0, 1e-12)
    lanes: dict[tuple, list[SpanRecord]] = defaultdict(list)
    for s in spans:
        lanes[(s.pid, s.tid)].append(s)
    cats = sorted({s.cat for s in spans})
    legend = "legend: " + "  ".join(f"{_mark_for(c)}={c}" for c in cats) + "  .=idle"
    lines = [
        f"{len(spans)} spans over {span:.4g}s across {len(lanes)} lanes",
        legend,
    ]
    show_pid = pid is None and len({p for p, _ in lanes}) > 1
    for (p, tid), rows in sorted(lanes.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))):
        row = ["."] * width
        busy = 0.0
        for s in rows:
            a = int((s.start - t0) / span * (width - 1))
            b = int((s.end - t0) / span * (width - 1))
            mark = _mark_for(s.cat)
            for i in range(a, max(b, a) + 1):
                row[i] = mark
            busy += s.duration
        label = f"{p}/{tid}" if show_pid else f"{tid}"
        lines.append(
            f"{label:<12.12} |{''.join(row)}| {100 * busy / span:5.1f}% busy, "
            f"{len(rows)} spans"
        )
    return "\n".join(lines)
