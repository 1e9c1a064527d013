"""Workflow DAGs and the Montage-like generator.

The carbon assignment executes "an astronomy scientific workflow (738
tasks with a 7.5GB total data footprint)" — an instance of Montage.  This
module provides the general DAG machinery (tasks, file-based dependencies,
levels) plus :func:`montage_workflow`, a structural generator matching the
published Montage shape: a wide projection level, a wider difference-fit
level, a serial fitting bottleneck, a wide background-correction level,
and a serial mosaic tail.  The default parameters produce exactly 738
tasks and ~7.5 GB of files.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from repro.common.errors import ConfigurationError
from repro.common.units import MB

__all__ = ["WorkflowFile", "Task", "Workflow", "montage_workflow"]


@dataclass(frozen=True)
class WorkflowFile:
    """A named data product with a size in bytes."""

    name: str
    size: float  # bytes

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ConfigurationError(f"file {self.name}: negative size")


@dataclass
class Task:
    """One workflow task.

    ``flops`` is the task's work; dependencies are induced by files: a task
    consuming a file produced by another task runs after it.
    """

    name: str
    flops: float
    inputs: tuple[WorkflowFile, ...] = ()
    outputs: tuple[WorkflowFile, ...] = ()
    category: str = ""  # e.g. "mProject" — used by reports

    def __post_init__(self) -> None:
        if self.flops < 0:
            raise ConfigurationError(f"task {self.name}: negative flops")

    @property
    def input_bytes(self) -> float:
        """Total size of the task's inputs."""
        return sum(f.size for f in self.inputs)

    @property
    def output_bytes(self) -> float:
        """Total size of the task's outputs."""
        return sum(f.size for f in self.outputs)


class Workflow:
    """A DAG of tasks with file-induced dependencies."""

    def __init__(self, name: str = "workflow") -> None:
        self.name = name
        self._tasks: dict[str, Task] = {}
        self._producer: dict[str, str] = {}  # file name -> producing task name
        self._graph: nx.DiGraph | None = None
        self._levels: dict[str, int] | None = None

    # -- construction ------------------------------------------------------------

    def add_task(self, task: Task) -> Task:
        """Add a task, registering its outputs' producer."""
        if task.name in self._tasks:
            raise ConfigurationError(f"duplicate task {task.name!r}")
        for f in task.outputs:
            if f.name in self._producer:
                raise ConfigurationError(
                    f"file {f.name!r} produced by both {self._producer[f.name]!r} "
                    f"and {task.name!r}"
                )
            self._producer[f.name] = task.name
        self._tasks[task.name] = task
        self._graph = None
        self._levels = None
        return task

    # -- structure ----------------------------------------------------------------

    @property
    def tasks(self) -> list[Task]:
        """All tasks, in insertion order."""
        return list(self._tasks.values())

    def task(self, name: str) -> Task:
        """Look up a task by name."""
        return self._tasks[name]

    def __len__(self) -> int:
        return len(self._tasks)

    def producer_of(self, file_name: str) -> str | None:
        """Name of the task producing *file_name* (None for workflow inputs)."""
        return self._producer.get(file_name)

    def graph(self) -> nx.DiGraph:
        """The dependency graph (cached); raises on cycles."""
        if self._graph is None:
            g = nx.DiGraph()
            g.add_nodes_from(self._tasks)
            for t in self._tasks.values():
                for f in t.inputs:
                    producer = self._producer.get(f.name)
                    if producer is not None and producer != t.name:
                        g.add_edge(producer, t.name)
            if not nx.is_directed_acyclic_graph(g):
                cycle = nx.find_cycle(g)
                raise ConfigurationError(f"workflow has a cycle: {cycle}")
            self._graph = g
        return self._graph

    def parents(self, task_name: str) -> list[str]:
        """Names of tasks this one depends on."""
        return sorted(self.graph().predecessors(task_name))

    def children(self, task_name: str) -> list[str]:
        """Names of tasks depending on this one."""
        return sorted(self.graph().successors(task_name))

    def levels(self) -> dict[str, int]:
        """Task -> level (longest path from an entry task; entries are 0).

        The assignment's Tab-2 placement choices are phrased per *workflow
        level* ("execute fractions of some workflow levels on the cloud").
        """
        if self._levels is None:
            g = self.graph()
            lv: dict[str, int] = {}
            for name in nx.topological_sort(g):
                preds = list(g.predecessors(name))
                lv[name] = 0 if not preds else 1 + max(lv[p] for p in preds)
            self._levels = lv
        return self._levels

    def level_tasks(self, level: int) -> list[Task]:
        """Tasks at one level, in name order."""
        lv = self.levels()
        return [self._tasks[n] for n in sorted(lv) if lv[n] == level]

    @property
    def depth(self) -> int:
        """Number of levels."""
        lv = self.levels()
        return max(lv.values()) + 1 if lv else 0

    def total_flops(self) -> float:
        """Sum of every task's flops."""
        return sum(t.flops for t in self._tasks.values())

    def total_bytes(self) -> float:
        """Total unique file footprint (workflow inputs + all outputs)."""
        seen: dict[str, float] = {}
        for t in self._tasks.values():
            for f in (*t.inputs, *t.outputs):
                seen[f.name] = f.size
        return sum(seen.values())

    def input_files(self) -> list[WorkflowFile]:
        """Files consumed but never produced — the workflow's external inputs."""
        out: dict[str, WorkflowFile] = {}
        for t in self._tasks.values():
            for f in t.inputs:
                if f.name not in self._producer:
                    out[f.name] = f
        return [out[k] for k in sorted(out)]

    # -- persistence (WfCommons-flavoured JSON) -----------------------------------

    def to_dict(self) -> dict:
        """Serialisable description: name + tasks with files and flops.

        The shape follows the WfCommons/WRENCH workflow-instance idea
        (tasks with per-file input/output lists) so real instances can be
        hand-converted easily.
        """
        return {
            "name": self.name,
            "tasks": [
                {
                    "name": t.name,
                    "flops": t.flops,
                    "category": t.category,
                    "inputs": [{"name": f.name, "size": f.size} for f in t.inputs],
                    "outputs": [{"name": f.name, "size": f.size} for f in t.outputs],
                }
                for t in self.tasks
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Workflow":
        """Inverse of :meth:`to_dict`; validates structure on the way in."""
        try:
            wf = cls(str(data["name"]))
            for t in data["tasks"]:
                wf.add_task(
                    Task(
                        name=str(t["name"]),
                        flops=float(t["flops"]),
                        category=str(t.get("category", "")),
                        inputs=tuple(
                            WorkflowFile(str(f["name"]), float(f["size"])) for f in t["inputs"]
                        ),
                        outputs=tuple(
                            WorkflowFile(str(f["name"]), float(f["size"])) for f in t["outputs"]
                        ),
                    )
                )
        except (KeyError, TypeError) as exc:
            raise ConfigurationError(f"malformed workflow document: {exc!r}") from exc
        wf.graph()  # validate acyclicity eagerly
        return wf

    def save_json(self, path) -> None:
        """Write the workflow as a JSON document."""
        import json

        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=1)

    @classmethod
    def load_json(cls, path) -> "Workflow":
        """Load a workflow previously written by :meth:`save_json`."""
        import json

        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def critical_path_flops(self) -> float:
        """Maximum total flops along any dependency chain (ideal-speedup bound)."""
        g = self.graph()
        best: dict[str, float] = {}
        for name in nx.topological_sort(g):
            preds = list(g.predecessors(name))
            base = max((best[p] for p in preds), default=0.0)
            best[name] = base + self._tasks[name].flops
        return max(best.values(), default=0.0)


def montage_workflow(
    *,
    n_projections: int = 182,
    n_difffits: int = 368,
    gflop_scale: float = 1.0,
    seed: int = 7,
) -> Workflow:
    """A Montage-shaped workflow: 738 tasks / ~7.5 GB with the defaults.

    Level structure (category: count with defaults):

    0. ``mProject``    : 182 — reproject one input image each (wide)
    1. ``mDiffFit``    : 368 — fit pairwise overlaps (widest)
    2. ``mConcatFit``  : 1   — concatenate the fits (serial bottleneck)
    3. ``mBgModel``    : 1   — model background corrections (serial)
    4. ``mBackground`` : 182 — apply corrections per image (wide)
    5. ``mImgtbl``     : 1   — build the image table
    6. ``mAdd``        : 1   — co-add into the mosaic (heavy serial)
    7. ``mShrink``     : 1   — shrink the mosaic
    8. ``mJPEG``       : 1   — render the JPEG

    File sizes are drawn deterministically around Montage-realistic
    magnitudes and normalised so the *total* footprint is ~7.5 GB.
    ``gflop_scale`` scales every task's flops, letting experiments tune
    absolute runtimes without touching the structure.
    """
    from repro.common.rng import make_rng

    if n_projections < 2:
        raise ConfigurationError("need at least two projections")
    if n_difffits < 1:
        raise ConfigurationError("need at least one difffit")
    rng = make_rng(seed)
    wf = Workflow("montage-738")
    G = 1e9 * gflop_scale

    def mkfile(name: str, mean_mb: float) -> WorkflowFile:
        size = float(rng.uniform(0.8, 1.2) * mean_mb * MB)
        return WorkflowFile(name, size)

    # Level 0: mProject — each consumes a raw image, produces a projected one.
    projected: list[WorkflowFile] = []
    for i in range(n_projections):
        raw = mkfile(f"raw_{i:04d}.fits", 8.0)
        proj = mkfile(f"proj_{i:04d}.fits", 16.0)
        projected.append(proj)
        wf.add_task(
            Task(f"mProject_{i:04d}", flops=rng.uniform(8, 12) * G, inputs=(raw,),
                 outputs=(proj,), category="mProject")
        )

    # Level 1: mDiffFit — each consumes two neighbouring projections.
    fit_files: list[WorkflowFile] = []
    for j in range(n_difffits):
        a = j % n_projections
        b = (j + 1 + (j // n_projections)) % n_projections
        if a == b:
            b = (b + 1) % n_projections
        fit = mkfile(f"fit_{j:04d}.tbl", 0.02)
        fit_files.append(fit)
        wf.add_task(
            Task(f"mDiffFit_{j:04d}", flops=rng.uniform(1.5, 2.5) * G,
                 inputs=(projected[a], projected[b]), outputs=(fit,), category="mDiffFit")
        )

    # Level 2: mConcatFit — consumes all fits.
    concat = mkfile("fits_all.tbl", 1.0)
    wf.add_task(Task("mConcatFit", flops=6 * G, inputs=tuple(fit_files),
                     outputs=(concat,), category="mConcatFit"))

    # Level 3: mBgModel.
    corrections = mkfile("corrections.tbl", 0.5)
    wf.add_task(Task("mBgModel", flops=25 * G, inputs=(concat,),
                     outputs=(corrections,), category="mBgModel"))

    # Level 4: mBackground — per projected image, needs the corrections.
    corrected: list[WorkflowFile] = []
    for i in range(n_projections):
        corr = mkfile(f"corr_{i:04d}.fits", 16.0)
        corrected.append(corr)
        wf.add_task(
            Task(f"mBackground_{i:04d}", flops=rng.uniform(4, 6) * G,
                 inputs=(projected[i], corrections), outputs=(corr,), category="mBackground")
        )

    # Level 5-8: serial tail.
    imgtbl = mkfile("images.tbl", 0.3)
    wf.add_task(Task("mImgtbl", flops=4 * G, inputs=tuple(corrected),
                     outputs=(imgtbl,), category="mImgtbl"))
    mosaic = mkfile("mosaic.fits", 900.0)
    wf.add_task(Task("mAdd", flops=60 * G, inputs=(*corrected, imgtbl),
                     outputs=(mosaic,), category="mAdd"))
    shrunk = mkfile("mosaic_small.fits", 120.0)
    wf.add_task(Task("mShrink", flops=12 * G, inputs=(mosaic,),
                     outputs=(shrunk,), category="mShrink"))
    jpeg = mkfile("mosaic.jpg", 8.0)
    wf.add_task(Task("mJPEG", flops=6 * G, inputs=(shrunk,),
                     outputs=(jpeg,), category="mJPEG"))

    # Normalise the footprint to ~7.5 GB, matching the paper's number.
    target = 7.5e9
    actual = wf.total_bytes()
    scale = target / actual
    scaled = Workflow(wf.name)
    for t in wf.tasks:
        scaled.add_task(
            Task(
                t.name,
                t.flops,
                tuple(WorkflowFile(f.name, f.size * scale) for f in t.inputs),
                tuple(WorkflowFile(f.name, f.size * scale) for f in t.outputs),
                t.category,
            )
        )
    return scaled
