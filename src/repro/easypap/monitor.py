"""Per-iteration views over the tile trace (Figs. 3 and 4).

EASYPAP "features performance graph plot tools, real-time monitoring
facilities, and off-line trace exploration utilities"; Fig. 3 of the paper
shows two such traces (which tasks ran, on which core, during iteration
500) and Fig. 4 a per-tile owner map of a hybrid CPU+GPU run.

Every easypap backend records one span per executed tile into an
:class:`~repro.obs.tracer.Tracer` through :func:`record_tile`:
``pid="easypap"``, ``tid`` = worker, ``cat`` = task kind (``compute``,
``gpu``...), and args ``iteration``, ``task``, ``tile_ty``, ``tile_tx``.
The Fig. 3 operations are then the generic ones over
:func:`iteration_view`: ``summarize(iteration_view(tracer, i))``,
``ascii_timeline(iteration_view(tracer, i))`` and ``diff_summaries``.
:func:`tile_owner_map` turns a view into the Fig. 4 data.
"""

from __future__ import annotations

import numpy as np

from repro.obs.tracer import Tracer

__all__ = ["EASYPAP_PID", "record_tile", "iteration_view", "tile_owner_map"]

#: track group of every easypap tile span
EASYPAP_PID = "easypap"


def record_tile(
    tracer,
    iteration: int,
    task: int,
    worker: int,
    start: float,
    end: float,
    kind: str,
    tile_ty: int,
    tile_tx: int,
) -> None:
    """Append one executed tile to *tracer* as an ``easypap`` span."""
    tracer.add_span(
        f"i{iteration}:t{task}",
        start=start,
        end=end,
        cat=kind,
        pid=EASYPAP_PID,
        tid=worker,
        args={"iteration": iteration, "task": task, "tile_ty": tile_ty, "tile_tx": tile_tx},
    )


def iteration_view(tracer, iteration: int) -> Tracer:
    """The tile spans of one iteration, as a tracer of their own."""
    view = Tracer(process=EASYPAP_PID)
    view.absorb(
        s
        for s in tracer.spans()
        if s.pid == EASYPAP_PID and s.args.get("iteration") == iteration
    )
    return view


def tile_owner_map(view, tiles_y: int, tiles_x: int) -> np.ndarray:
    """Per-tile worker index of a view (-1 = tile not computed).

    This is exactly the data behind Fig. 4: tiles that were skipped
    (stable, under lazy evaluation) stay at -1 and render black; others
    are coloured by the worker that computed them.
    """
    owners = np.full((tiles_y, tiles_x), -1, dtype=np.int32)
    for s in view.spans():
        ty, tx = s.args.get("tile_ty", -1), s.args.get("tile_tx", -1)
        if 0 <= ty < tiles_y and 0 <= tx < tiles_x:
            owners[ty, tx] = s.tid
    return owners
