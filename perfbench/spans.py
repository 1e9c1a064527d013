"""In-memory span recording around the program's public entry points.

The traced run installs timing wrappers from this file around the calls
the benchmark names as layer boundaries (``Recorder.patch``).  Each
wrapper records a :class:`Span` — layer, start, end, parent span and
request id — on the calling thread's span stack, so a call made inside
another wrapped call becomes its child.  Spans stay in memory until the
run ends; :func:`self_times` derives per-layer self time (a span's
duration minus the part of it its children cover) and :func:`save_trace`
writes them once as a Chrome/Perfetto trace, one track group per layer.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

__all__ = ["Span", "Recorder", "self_times", "save_trace"]


@dataclass(slots=True)
class Span:
    """One timed call: times are ``time.monotonic()`` seconds."""

    sid: int
    layer: str
    name: str
    start: float
    end: float = 0.0
    rid: int | None = None
    parent: int | None = None
    thread: str = ""
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans from patched entry points; :meth:`uninstall` restores them."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- request context -----------------------------------------------------------

    def set_request(self, rid: int | None) -> None:
        """Attribute this thread's parentless spans to request *rid* from now on."""
        self._local.rid = rid

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def new_span(self, layer: str, name: str, start: float, end: float, **kw) -> Span:
        """Record a span measured elsewhere (e.g. from a handle's timestamps)."""
        span = Span(next(self._ids), layer, name, start, end, **kw)
        self.spans.append(span)
        return span

    # -- patching -----------------------------------------------------------------

    def patch(self, owner, attr: str, layer: str, *, request=None, before=None,
              after=None) -> None:
        """Time every call of ``owner.attr`` as a *layer* span.

        ``request(args)`` names the request of a call that has no parent
        span on this thread; without it a parentless span takes the
        thread's :meth:`set_request` id.  ``before(args)`` runs ahead of the
        call; ``after(span, args, result)`` may annotate the span or return
        False to drop it.
        """
        orig = owner.__dict__[attr]
        rec = self
        name = f"{getattr(owner, '__name__', owner)}.{attr}"

        def timed(*args, **kwargs):
            stack = rec._stack()
            parent = stack[-1] if stack else None
            if parent is not None:
                rid = parent.rid
            elif request is not None:
                rid = request(args)
            else:
                rid = getattr(rec._local, "rid", None)
            span = Span(
                next(rec._ids), layer, name, 0.0, rid=rid,
                parent=parent.sid if parent is not None else None,
                thread=threading.current_thread().name,
            )
            if before is not None:
                before(args)
            stack.append(span)
            result = None
            span.start = time.monotonic()
            try:
                result = orig(*args, **kwargs)
                return result
            finally:
                span.end = time.monotonic()
                stack.pop()
                if after is None or after(span, args, result) is not False:
                    rec.spans.append(span)

        timed.__wrapped__ = orig
        setattr(owner, attr, timed)
        self._patches.append((owner, attr, orig))

    def uninstall(self) -> None:
        """Put every patched attribute back."""
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- queries ------------------------------------------------------------------

    def by_layer(self, layer: str) -> list[Span]:
        return [s for s in self.spans if s.layer == layer]


def _covered(start: float, end: float, children: list[Span]) -> float:
    """Length of [start, end] covered by the union of the children's intervals."""
    total = 0.0
    cur_s = cur_e = None
    for c in sorted(children, key=lambda c: c.start):
        s, e = max(c.start, start), min(c.end, end)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per-layer self time: span duration minus the part its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.layer] += s.duration - _covered(s.start, s.end, children.get(s.sid, []))
    return dict(out)


def save_trace(spans: list[Span], path) -> None:
    """Write *spans* as a Chrome/Perfetto trace: one track group per layer,
    one track per thread (or worker) inside it."""
    from repro.obs import Tracer
    from repro.obs.export import save_chrome_trace

    tracer = Tracer(process="perfbench")
    t0 = min((s.start for s in spans), default=0.0)
    for s in sorted(spans, key=lambda s: s.start):
        tracer.add_span(
            s.name, start=s.start - t0, end=s.end - t0, cat=s.layer, pid=s.layer,
            tid=s.thread or "main",
            args={"request": s.rid, "span": s.sid, "parent": s.parent},
        )
    save_chrome_trace(tracer, path)
