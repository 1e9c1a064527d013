#!/usr/bin/env python
"""Trace explorer: compare two scheduling policies through `repro.obs`.

The Fig. 3 classroom exercise — "run the same workload under two OpenMP
schedules and explain the Gantt charts" — done with the observability
subsystem instead of eyeballs:

1. stabilise the same sandpile twice on the *simulated* backend (virtual
   clocks, so the comparison is deterministic and machine-independent),
   once with ``policy="static"`` and once with ``policy="dynamic"``;
2. pick the iteration where static scheduling is most imbalanced (lazy
   tile skipping makes per-worker loads uneven) and summarise it under
   both policies;
3. diff the two summaries side by side (makespan ratio, per-lane busy%);
4. render the ASCII timeline of that iteration for each policy;
5. export the two timelines as Chrome trace-event JSON — load them at
   https://ui.perfetto.dev to scrub the same iteration interactively.

Usage::

    python examples/trace_explorer.py [output-dir]
"""

import sys
from pathlib import Path

from repro.easypap.monitor import iteration_view
from repro.obs import Tracer, ascii_timeline, diff_summaries, save_chrome_trace, summarize
from repro.sandpile import center_pile, run_to_fixpoint


def traced_run(policy: str) -> tuple[Tracer, int]:
    """Stabilise the same centre pile under one schedule; return its tracer."""
    grid = center_pile(48, 48, 4_000)
    tracer = Tracer()
    result = run_to_fixpoint(
        grid,
        "sandpile",
        "omp",
        tile_size=8,
        nworkers=4,
        policy=policy,
        backend="simulated",
        lazy=True,          # uneven tile activity -> the schedules actually differ
        tracer=tracer,
    )
    return tracer, result.iterations


def main(argv: list[str]) -> int:
    out_dir = Path(argv[0]) if argv else Path(".")

    tracers = {}
    iterations = 0
    for policy in ("static", "dynamic"):
        tracers[policy], iterations = traced_run(policy)
        print(f"{policy:>8}: stable after {iterations} iterations, "
              f"{len(tracers[policy].spans())} tile tasks traced")

    # the iteration where the static schedule hurts the most: virtual
    # clocks make this a property of the workload, not of this machine
    pick = max(
        range(iterations),
        key=lambda i: summarize(iteration_view(tracers["static"], i)).imbalance,
    )
    print(f"most static-imbalanced iteration: {pick}\n")

    views = {p: iteration_view(t, pick) for p, t in tracers.items()}
    summaries = {p: summarize(v) for p, v in views.items()}
    for policy, s in summaries.items():
        print(s.render(title=f"{policy} iteration {pick}"))
    print()

    diff = diff_summaries(
        summaries["static"], summaries["dynamic"],
        left_name="static", right_name="dynamic",
    )
    print(diff.render())
    print()

    for policy, view in views.items():
        print(f"{policy} iteration {pick}:")
        print(ascii_timeline(view, width=64))
        print()

    for policy, view in views.items():
        path = out_dir / f"trace_{policy}.json"
        save_chrome_trace(view, path)
        print(f"wrote {path} — open it at https://ui.perfetto.dev")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
