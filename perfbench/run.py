"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-repeat --seed 1 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs the workload again with timing wrappers around every
layer entry point, prints the per-layer metrics and writes the spans as a
Chrome/Perfetto trace under ``.perfbench/traces/``.  Metric names, units
and directions come from ``BENCHMARK.json``.  The report goes to standard
output; its last line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

``failed`` counts failed, rejected, cancelled and wrong-result requests
(for ``fixpoint-pfrontier``, wrong runs), so ``failed / attempted`` is the
workload's failed share.  The exit code is non-zero, with no JSON line,
when the program under test is missing.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("serve-repeat", "fixpoint-pfrontier")
#: the counts that must repeat exactly for a given seed (traced run)
EXACT = ("stepper.iterations", "supervisor.steps", "dispatch.commands", "dispatch.bytes",
         "cache.lookups")


@dataclass
class Outcome:
    """What one workload run reports."""

    attempted: int
    failed: int
    metrics: dict[str, tuple[float | None, int | None]]
    problems: list[str] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)


def provenance(seed: int) -> str:
    import numpy

    try:
        import numba  # noqa: F401

        compiled = "numba present"
    except ImportError:
        compiled = "numba absent (compiled kernels fall back to NumPy)"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "none (not a git checkout)"
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode())
        src.update(path.read_bytes())
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} {compiled} commit={commit} "
            f"src_sha256={src.hexdigest()[:16]} seed={seed}")


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus *workers* times the largest child's peak.

    Worker processes have ended by the time this is read; pages they share
    with this process count once in each.
    """
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (me + workers * kids) / 1024.0


def _child_pids() -> list[int]:
    """Live or unreaped processes whose parent is this one (from /proc)."""
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:  # ended while we looked
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry))
    return pids


def reap_children() -> None:
    """Stop and wait for every process this run started.

    ``ProcessBackend`` joins its workers on close, but creating shared
    memory also starts multiprocessing's resource tracker, which is meant
    to outlive its parent and is never waited for; left alone it would end
    after this process as an orphan.  Stop it here (closing its pipe makes
    it exit), then terminate and wait for anything else still attached,
    such as a worker that outlived the backend's own bounded join.
    """
    import signal
    import time

    try:
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()
    except (ImportError, AttributeError, ChildProcessError, OSError):
        pass
    if not Path("/proc").is_dir():
        return
    for pid in _child_pids():
        deadline = time.monotonic() + 2.0
        sig = signal.SIGTERM
        try:
            os.kill(pid, sig)
            while os.waitpid(pid, os.WNOHANG)[0] == 0:
                if sig == signal.SIGTERM and time.monotonic() > deadline:
                    sig = signal.SIGKILL
                    os.kill(pid, sig)
                time.sleep(0.01)
        except (ProcessLookupError, ChildProcessError):  # already ended and reaped
            pass


def run_serve(seed: int, seconds: float, trace: bool, work: Path, traces: Path) -> Outcome:
    from perfbench import layers, serve
    from perfbench.spans import Recorder
    from perfbench.stats import lower_quartile

    serve.warm_imports()
    wl = serve.make_workload(seed, seconds)
    lines = [
        f"load: {serve.ROUNDS} rounds of an open-loop segment (Poisson at {serve.RATE:g} "
        f"req/s) and a backlog submitted at once: {len(wl.open_loop)} open-loop requests "
        f"and {len(wl.backlog)} backlog jobs in all; 3 tenants weighted 2/1/1, "
        f"{serve.WORKERS} service workers; 4 in 5 requests repeat a pool of "
        f"{serve.POOL} pre-filled specs",
        f"spec keys sha256 (prefix): {wl.key_digest()}",
    ]
    checked = [wl]
    if not trace:
        run = asyncio.run(serve.run_pass(work, wl))
        metrics = serve.end_to_end(wl, run)
        metrics["peak_rss_mb"] = (peak_rss_mb(0), None)
        lines.append(f"cache lookups: {run.cache_hits + run.cache_misses} "
                     f"({run.cache_hits} hits)")
    else:
        # every traced round follows an untraced run of the same round (same
        # specs, own handles): the base of trace.overhead_share
        ref = serve.make_workload(seed, seconds)
        checked.append(ref)
        rec, progress = Recorder(), [0]
        run, untraced = asyncio.run(serve.run_interleaved(
            work, wl, ref, rec, lambda r, w: layers.install_serve(r, w, progress)))
        layers.attach_requests(rec, wl.requests)
        traced_s = lower_quartile(run.drain_s)
        untraced_s = lower_quartile(untraced.drain_s)
        metrics = layers.per_layer(rec, requests=wl.requests, open_loop=wl.open_loop,
                                   progress=progress[0],
                                   overhead_share=traced_s / untraced_s - 1.0)
        lines.append(f"backlog drain per round, lower quartile: {traced_s:.3f} s traced, "
                     f"{untraced_s:.3f} s untraced")
        lines += _write_trace(rec, traces / "serve-repeat.json")
    attempted = completed = 0
    problems = []
    for w, label in zip(checked, ("", " of the untraced rounds")):
        counts, found = serve.check(w, run.fingerprints, seed)
        lines.append(f"outcomes{label}: " + ", ".join(f"{k}={v}" for k, v in counts.items()))
        attempted += len(w.requests)
        completed += counts["completed"]
        problems += found
    return Outcome(attempted, attempted - completed, metrics, problems, lines)


def run_fixpoint(seed: int, seconds: float, trace: bool, traces: Path) -> Outcome:
    from perfbench import fixpoint, layers
    from perfbench.spans import Recorder
    from perfbench.stats import lower_quartile

    oracle = fixpoint.oracle_digest()
    lines = [f"load: closed loop, one {fixpoint.SIZE}x{fixpoint.SIZE} pile of "
             f"{fixpoint.GRAINS} grains at a time, pfrontier with {fixpoint.OPTIONS}; "
             f"the seed does not change this input"]
    if not trace:
        runs = [fixpoint.run_once(oracle) for _ in range(fixpoint.run_count(seconds))]
        metrics = fixpoint.end_to_end(runs)
        metrics["peak_rss_mb"] = (peak_rss_mb(fixpoint.OPTIONS["nworkers"]), None)
        lines.append("fixpoint runs (s): " + " ".join(f"{r.fixpoint_s:.3f}" for r in runs))
    else:
        # untraced and traced runs alternate; the untraced ones are the base
        # of trace.overhead_share
        rec = Recorder()
        untraced, traced = [], []
        for i in range(fixpoint.OVERHEAD_PAIRS):
            untraced.append(fixpoint.run_once(oracle))
            layers.install_fixpoint(rec)
            try:
                traced.append(fixpoint.run_once(oracle, recorder=rec, rid=i + 1))
            finally:
                rec.uninstall()
        layers.adopt_orphans(rec)
        traced_s = lower_quartile([r.fixpoint_s for r in traced])
        untraced_s = lower_quartile([r.fixpoint_s for r in untraced])
        metrics = layers.per_layer(rec, runs=traced,
                                   overhead_share=traced_s / untraced_s - 1.0)
        total, overhead, busiest, n = layers.dispatch_account(rec)
        lines.append(
            f"ProcessBackend.run: {total:.3f} s over {n} batches = dispatch overhead "
            f"{overhead:.3f} s + busiest-worker kernel time {busiest:.3f} s "
            f"(kernel busy over all workers {metrics['kernel.busy_s'][0]:.3f} s)")
        lines.append(f"fixpoint, lower quartile: {traced_s:.3f} s traced, "
                     f"{untraced_s:.3f} s untraced")
        lines += _write_trace(rec, traces / "fixpoint-pfrontier.json")
        runs = untraced + traced
    problems = [f"run {i}: {p}" for i, r in enumerate(runs) for p in r.problems]
    return Outcome(len(runs), sum(1 for r in runs if r.problems), metrics, problems, lines)


def _write_trace(rec, path: Path) -> list[str]:
    from perfbench.spans import save_trace

    save_trace(rec.spans, path)
    return [f"trace: {len(rec.spans)} spans written to {path.relative_to(ROOT)}"]


def _fmt(value: float, unit: str) -> str:
    return f"{value:.0f}" if unit in ("count", "bytes") else f"{value:.6g}"


def report(args, out: Outcome, spec: dict) -> dict:
    """Print the human-readable report; return the result object."""
    section = "per_layer" if args.trace else "end_to_end"
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"host: {provenance(args.seed)}")
    for line in out.lines:
        print(line)
    print(f"{section.replace('_', '-')} metrics:")
    metrics = {}
    problems = list(out.problems)
    for m in spec[section]:
        value, n = out.metrics[m["name"]]
        count = "" if n is None else f" (n={n})"
        if value is None:
            print(f"  {m['name']:28s} suppressed: too few samples in a window{count}")
            if not args.trace:
                problems.append(f"{m['name']} has too few samples{count}")
            value = 0.0
        else:
            print(f"  {m['name']:28s} {_fmt(value, m['unit']):>12s} {m['unit']}{count}")
        metrics[m["name"]] = {"value": float(value), "unit": m["unit"]}
    share = out.failed / out.attempted if out.attempted else 1.0
    print(f"failed_share: {out.failed}/{out.attempted} = {share:.4f}")
    if args.trace:
        print("exact counts: " + " ".join(
            f"{k}={int(out.metrics[k][0])}" for k in EXACT))
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print("checks: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return {"correct": not problems and out.failed == 0, "attempted": out.attempted,
            "failed": out.failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one perfbench workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: the program under test is missing ({ROOT / 'src' / 'repro'})",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    state = ROOT / ".perfbench"
    traces = state / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=state))
    try:
        if args.workload == "fixpoint-pfrontier":
            out = run_fixpoint(args.seed, args.seconds, bool(args.trace), traces)
        else:
            out = run_serve(args.seed, args.seconds, bool(args.trace), work, traces)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        reap_children()
    print(json.dumps(report(args, out, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
