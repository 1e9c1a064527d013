"""Span/event collection: the write side of the observability layer.

:class:`Tracer` is an append-only store of the records defined in
:mod:`repro.obs.records`, safe to share between threads (the simmpi ranks,
the thread-pool backends).  Worker *processes* cannot share it; they
record into their own tracer and the parent calls :meth:`Tracer.absorb`
on the drained records at harvest time — the same parent-drains-results
pattern :class:`~repro.easypap.executor.ProcessBackend` already uses for
tile spans.

:class:`NullTracer` is the disabled-by-default stand-in.  It is *falsy*,
so hot paths guard with a single truthiness check::

    if tracer:                     # one branch when disabled
        with tracer.span("step"):
            stepper()
    else:
        stepper()

and pay essentially nothing when tracing is off (``bench_hotpath.py
--check`` enforces <= 5% overhead on the lazy tiled hot path).  Every
recording method is also a no-op, so code that received a NullTracer and
calls it unconditionally still works.

Timestamps for context-manager spans come from the tracer's clock
(:class:`~repro.obs.clock.WallClock` by default); substrates with virtual
time record via :meth:`Tracer.add_span` with explicit start/end instead.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
from contextlib import contextmanager

from repro.obs.clock import WallClock
from repro.obs.records import (
    SCHEMA_VERSION,
    CounterRecord,
    FlowPoint,
    FlowRecord,
    InstantRecord,
    SpanRecord,
    record_to_row,
    row_to_record,
)

__all__ = ["Tracer", "NullTracer", "NULL_TRACER"]


def _as_point(p) -> FlowPoint:
    if isinstance(p, FlowPoint):
        return p
    if isinstance(p, SpanRecord):
        # default binding: the span's start (callers needing the end pass
        # an explicit FlowPoint)
        return FlowPoint(p.pid, p.tid, p.start)
    pid, tid, ts = p
    return FlowPoint(pid, tid, float(ts))


class Tracer:
    """Thread-safe append-only collector of trace records."""

    enabled = True

    def __init__(self, *, clock=None, process: str = "main") -> None:
        self.clock = clock if clock is not None else WallClock()
        #: default ``pid`` (track group) for records that do not name one
        self.process = process
        self._records: list = []
        self._lock = threading.Lock()
        self._span_ids = itertools.count(1)
        self._flow_ids = itertools.count(1)

    def __bool__(self) -> bool:
        return True

    def __len__(self) -> int:
        return len(self._records)

    # -- recording ---------------------------------------------------------------

    def add_span(
        self,
        name: str,
        *,
        start: float,
        end: float,
        cat: str = "compute",
        pid: str | None = None,
        tid: int | str = 0,
        args: dict | None = None,
    ) -> SpanRecord:
        """Record a span with explicit times (virtual-clock substrates)."""
        rec = SpanRecord(
            name=name,
            cat=cat,
            pid=pid if pid is not None else self.process,
            tid=tid,
            start=float(start),
            end=float(end),
            args=dict(args) if args else {},
            span_id=next(self._span_ids),
        )
        with self._lock:
            self._records.append(rec)
        return rec

    @contextmanager
    def span(
        self,
        name: str,
        *,
        cat: str = "compute",
        pid: str | None = None,
        tid: int | str = 0,
        args: dict | None = None,
    ):
        """Measure a ``with`` body on this tracer's clock.

        Yields a mutable dict of args (extend it inside the body); the
        finished :class:`SpanRecord` is appended on exit, exceptions
        included (the span is marked ``error=True``).
        """
        live_args = dict(args) if args else {}
        t0 = self.clock()
        try:
            yield live_args
        except BaseException:
            live_args.setdefault("error", True)
            raise
        finally:
            self.add_span(
                name, start=t0, end=self.clock(), cat=cat, pid=pid, tid=tid, args=live_args
            )

    def instant(
        self,
        name: str,
        *,
        ts: float | None = None,
        cat: str = "event",
        pid: str | None = None,
        tid: int | str = 0,
        args: dict | None = None,
        scope: str = "t",
    ) -> InstantRecord:
        """Record a point event (defaults to *now* on the tracer clock)."""
        rec = InstantRecord(
            name=name,
            cat=cat,
            pid=pid if pid is not None else self.process,
            tid=tid,
            ts=float(ts) if ts is not None else self.clock(),
            args=dict(args) if args else {},
            scope=scope,
        )
        with self._lock:
            self._records.append(rec)
        return rec

    def new_flow_id(self) -> int:
        """Reserve a flow id (e.g. stamped on a message at send time)."""
        return next(self._flow_ids)

    def flow(
        self,
        name: str,
        src,
        dst,
        *,
        cat: str = "flow",
        flow_id: int | None = None,
    ) -> FlowRecord:
        """Record an arrow between two lane points.

        *src*/*dst* accept a :class:`FlowPoint`, a ``(pid, tid, ts)``
        tuple, or a :class:`SpanRecord` (bound at its start).
        """
        rec = FlowRecord(
            name=name,
            cat=cat,
            flow_id=flow_id if flow_id is not None else self.new_flow_id(),
            src=_as_point(src),
            dst=_as_point(dst),
        )
        with self._lock:
            self._records.append(rec)
        return rec

    def counter(
        self,
        name: str,
        values: dict,
        *,
        ts: float | None = None,
        pid: str | None = None,
    ) -> CounterRecord:
        """Sample a counter track (series name -> numeric value)."""
        rec = CounterRecord(
            name=name,
            pid=pid if pid is not None else self.process,
            ts=float(ts) if ts is not None else self.clock(),
            values=dict(values),
        )
        with self._lock:
            self._records.append(rec)
        return rec

    # -- access ------------------------------------------------------------------

    @property
    def records(self) -> list:
        """All records, in insertion order (a copy)."""
        return list(self._records)

    def spans(self) -> list[SpanRecord]:
        """All span records."""
        return [r for r in self._records if isinstance(r, SpanRecord)]

    def instants(self) -> list[InstantRecord]:
        """All instant records."""
        return [r for r in self._records if isinstance(r, InstantRecord)]

    def flows(self) -> list[FlowRecord]:
        """All flow records."""
        return [r for r in self._records if isinstance(r, FlowRecord)]

    def counters(self) -> list[CounterRecord]:
        """All counter records."""
        return [r for r in self._records if isinstance(r, CounterRecord)]

    def pids(self) -> list[str]:
        """Sorted track-group names present."""
        out = set()
        for r in self._records:
            if isinstance(r, FlowRecord):
                out.add(r.src.pid)
                out.add(r.dst.pid)
            else:
                out.add(r.pid)
        return sorted(out)

    # -- multiprocess collection --------------------------------------------------

    def drain(self) -> list:
        """Remove and return every record (worker side of the harvest)."""
        with self._lock:
            out, self._records = self._records, []
        return out

    def absorb(self, records) -> None:
        """Append records drained from another tracer (parent side)."""
        records = list(records)
        with self._lock:
            self._records.extend(records)
            # keep locally-minted span ids unique w.r.t. absorbed ones
            top = max(
                (r.span_id for r in records if isinstance(r, SpanRecord)), default=0
            )
            if top > 0:
                self._span_ids = itertools.count(
                    max(top, next(self._span_ids)) + 1
                )

    # -- persistence ---------------------------------------------------------------

    def save_jsonl(self, path: str | os.PathLike) -> None:
        """Write the session as JSON lines (one meta row, then records)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(
                json.dumps(
                    {"type": "meta", "schema": SCHEMA_VERSION, "process": self.process}
                )
                + "\n"
            )
            for r in self._records:
                fh.write(json.dumps(record_to_row(r)) + "\n")

    @classmethod
    def load_jsonl(cls, path: str | os.PathLike) -> "Tracer":
        """Load a session written by :meth:`save_jsonl`.

        Unknown row types and unknown keys are skipped, so traces written
        by newer code stay loadable.
        """
        tracer = cls()
        records = []
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                row = json.loads(line)
                if row.get("type") == "meta":
                    tracer.process = row.get("process", tracer.process)
                    continue
                rec = row_to_record(row)
                if rec is not None:
                    records.append(rec)
        tracer.absorb(records)  # also re-seats the span-id counter past loaded ids
        return tracer


class _NullContext:
    """Reusable no-op context manager (no allocation per use)."""

    __slots__ = ("_args",)

    def __init__(self) -> None:
        self._args: dict = {}

    def __enter__(self) -> dict:
        self._args.clear()
        return self._args

    def __exit__(self, *exc) -> None:
        return None


class NullTracer:
    """The disabled tracer: falsy, never records, near-zero overhead."""

    enabled = False

    def __init__(self) -> None:
        self._ctx = _NullContext()

    def __bool__(self) -> bool:
        return False

    def __len__(self) -> int:
        return 0

    def span(self, name, **kwargs):
        """No-op context manager."""
        return self._ctx

    def add_span(self, name, **kwargs) -> None:
        """No-op."""
        return None

    def instant(self, name, **kwargs) -> None:
        """No-op."""
        return None

    def flow(self, name, src, dst, **kwargs) -> None:
        """No-op."""
        return None

    def counter(self, name, values, **kwargs) -> None:
        """No-op."""
        return None

    def new_flow_id(self) -> int:
        """Flow ids from a disabled tracer are all zero."""
        return 0

    @property
    def records(self) -> list:
        """Always empty."""
        return []

    def spans(self) -> list:
        """Always empty."""
        return []

    def instants(self) -> list:
        """Always empty."""
        return []

    def flows(self) -> list:
        """Always empty."""
        return []

    def counters(self) -> list:
        """Always empty."""
        return []

    def pids(self) -> list:
        """Always empty."""
        return []

    def drain(self) -> list:
        """Always empty."""
        return []

    def absorb(self, records) -> None:
        """Discard (the tracer is disabled)."""
        return None


#: a process-wide shared disabled tracer, for defaulting keyword arguments
NULL_TRACER = NullTracer()
