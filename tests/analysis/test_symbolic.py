"""Tests for symbolic footprint inference (the AST abstract interpreter).

Covers the three wirings of :mod:`repro.analysis.symbolic`:

* verification — every hand declaration is reproduced (or soundly
  over-approximated) by inference, and a seeded under-declaration is
  caught and fails the CLI gate;
* certification — undeclared gallery kernels get ``source="inferred"``
  footprints and sound race/halo verdicts; uninterpretable kernels are
  refused with a reason, never silently traced;
* the soundness chain itself, as a hypothesis property: one observed
  shadow execution ⊆ inferred may-sets ⊆ declared model (where one
  exists), across random grid geometries, clamped edge tiles, and fused
  step counts k > 1.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.gallery  # noqa: F401 - registers heat_tile / life_tile
import repro.sandpile.simulate  # noqa: F401 - registers the sandpile kernels
from repro.analysis.footprint import (
    Footprint,
    declare_footprint,
    declared_footprint,
    footprint_for,
    rect_cells,
    sync_tile_footprint,
)
from repro.analysis.halo import footprint_halo_radius
from repro.analysis.shadow import trace_tile_kernel
from repro.analysis.symbolic import (
    SymbolicRefusal,
    certify_kernel,
    certify_kernels,
    infer_footprint,
    inference_refusal,
    kernel_verdict_table,
    verdicts_to_json,
    verify_declaration,
    verify_declarations,
)
from repro.common.errors import KernelError
from repro.easypap import executor
from repro.easypap.executor import TileTask, register_tile_kernel
from repro.easypap.tiling import Tile, TileGrid

#: every kernel the stock registry holds after the imports above
STOCK_KERNELS = (
    "async_tile_relax",
    "heat_tile",
    "life_tile",
    "sync_tile",
    "sync_tile_k",
    "sync_tile_kc",
    "sync_tile_nc",
)


def middle_task(kernel, height=12, width=12, tile_size=4, arg=None):
    grid = TileGrid(height, width, tile_size)
    tiles = list(grid)
    return TileTask(kernel, 0, 1, tiles[len(tiles) // 2], arg=arg), (height + 2, width + 2)


class TestInferFootprint:
    def test_sync_tile_matches_hand_declaration(self):
        task, shape = middle_task("sync_tile")
        inferred = infer_footprint(task, shape)
        assert inferred == declared_footprint(task, shape)
        assert inferred.source == "inferred"

    def test_heat_tile_cross_stencil(self):
        # interior tile at rows 4:8, cols 4:8 (framed 5:9, 5:9)
        task, shape = middle_task("heat_tile")
        fp = infer_footprint(task, shape)
        t = task.tile
        writes = rect_cells(1, t.y0 + 1, t.y1 + 1, t.x0 + 1, t.x1 + 1)
        assert fp.writes == writes
        centre = rect_cells(0, t.y0 + 1, t.y1 + 1, t.x0 + 1, t.x1 + 1)
        assert centre <= fp.reads
        # cross halo, no corners
        assert (0, t.y0, t.x0 + 1) in fp.reads
        assert (0, t.y0, t.x0) not in fp.reads

    def test_life_tile_includes_diagonal_corners(self):
        # the Moore stencil is the shape the hand-written cross model
        # cannot express — inference must include the corner cells
        task, shape = middle_task("life_tile")
        fp = infer_footprint(task, shape)
        t = task.tile
        for dy, dx in ((0, 0), (0, t.w + 1), (t.h + 1, 0), (t.h + 1, t.w + 1)):
            assert (0, t.y0 + dy, t.x0 + dx) in fp.reads
        assert fp.writes == rect_cells(1, t.y0 + 1, t.y1 + 1, t.x0 + 1, t.x1 + 1)

    def test_edge_tile_is_clamped(self):
        # corner tile: the inferred halo must not reach outside the frame
        grid = TileGrid(10, 11, 4)
        task = TileTask("life_tile", 0, 1, list(grid)[0])
        fp = infer_footprint(task, (12, 13))
        assert all(y >= 0 and x >= 0 for _p, y, x in fp.touched)

    def test_fused_k_footprint_grows_with_k(self):
        t1, shape = middle_task("sync_tile_k", arg=1)
        t3, _ = middle_task("sync_tile_k", arg=3)
        f1 = infer_footprint(t1, shape)
        f3 = infer_footprint(t3, shape)
        assert f1.reads < f3.reads

    def test_refusal_carries_kernel_name(self, refused_kernel):
        task, shape = middle_task(refused_kernel)
        with pytest.raises(SymbolicRefusal, match=refused_kernel):
            infer_footprint(task, shape)


class TestVerifyDeclarations:
    @pytest.mark.parametrize(
        "kernel", ["sync_tile", "sync_tile_nc", "async_tile_relax"]
    )
    def test_hand_declarations_reproduced_exactly(self, kernel):
        check = verify_declaration(kernel)
        assert check.status == "exact", check.detail
        assert check.ok

    @pytest.mark.parametrize("kernel", ["sync_tile_k", "sync_tile_kc"])
    def test_fused_declarations_over_declared_but_sound(self, kernel):
        # the hand model declares the grown rect's corner ring the kernel
        # never reads at k=1 — conservative, so sound: warn, don't fail
        check = verify_declaration(kernel)
        assert check.status == "over-declared", check.detail
        assert check.ok

    def test_undeclared_kernel_reports_none(self):
        assert verify_declaration("heat_tile").status == "none"

    def test_verify_declarations_skips_undeclared(self):
        names = {c.kernel for c in verify_declarations()}
        assert "heat_tile" not in names
        assert "sync_tile" in names
        assert all(c.ok for c in verify_declarations())

    def test_seeded_under_declaration_caught(self):
        # shrink sync_tile's model to the tile interior (drops the halo
        # reads inference finds) — the verifier must flag it as an error
        def too_small(task, shape):
            t = task.tile
            rect = rect_cells(task.src, t.y0 + 1, t.y1 + 1, t.x0 + 1, t.x1 + 1)
            return Footprint.of(rect, rect_cells(task.dst, t.y0 + 1, t.y1 + 1,
                                                 t.x0 + 1, t.x1 + 1))

        declare_footprint("sync_tile", too_small, overwrite=True)
        try:
            check = verify_declaration("sync_tile")
            assert check.status == "UNDER-DECLARED"
            assert not check.ok
            assert "missing from the declaration" in check.detail
            verdict = certify_kernel("sync_tile")
            assert not verdict.ok
        finally:
            declare_footprint("sync_tile", sync_tile_footprint, overwrite=True)
        assert verify_declaration("sync_tile").status == "exact"

    def test_seeded_under_declaration_fails_cli_gate(self, capsys):
        from repro.cli import symbolic_main

        def too_small(task, shape):
            t = task.tile
            rect = rect_cells(task.src, t.y0 + 1, t.y1 + 1, t.x0 + 1, t.x1 + 1)
            return Footprint.of(rect, rect_cells(task.dst, t.y0 + 1, t.y1 + 1,
                                                 t.x0 + 1, t.x1 + 1))

        declare_footprint("sync_tile", too_small, overwrite=True)
        try:
            assert symbolic_main([]) == 1
            captured = capsys.readouterr()
            assert "UNDER-DECLARED" in captured.out
            assert "FAIL" in captured.err
        finally:
            declare_footprint("sync_tile", sync_tile_footprint, overwrite=True)
        assert symbolic_main([]) == 0


@pytest.fixture
def refused_kernel():
    """Register a kernel the interpreter must refuse (list comprehension)."""
    name = "_test_refused_kernel"

    def kernel(planes, task):
        src = planes[task.src]
        vals = [src[y, task.tile.x0 + 1] for y in range(task.tile.y0 + 1,
                                                        task.tile.y1 + 1)]
        planes[task.dst][task.tile.y0 + 1, task.tile.x0 + 1] = sum(vals)

    register_tile_kernel(name, kernel, overwrite=True)
    try:
        yield name
    finally:
        executor._TILE_KERNELS.pop(name, None)
        executor._TILE_KERNEL_TAGS.pop(name, None)
        executor._REGISTRY_VERSION += 1  # invalidate the inference cache


class TestRefusal:
    def test_inference_refusal_names_the_construct(self, refused_kernel):
        reason = inference_refusal(refused_kernel)
        assert reason is not None
        assert "ListComp" in reason or "comprehension" in reason.lower()

    def test_inference_refusal_none_for_unregistered(self):
        assert inference_refusal("no_such_kernel") is None

    def test_inference_refusal_none_for_inferable(self):
        assert inference_refusal("heat_tile") is None

    def test_certify_refused_with_reason(self, refused_kernel):
        verdict = certify_kernel(refused_kernel)
        assert verdict.source == "refused"
        assert verdict.verdict_word() == "refused-with-reason"
        assert verdict.reason
        assert verdict.ok  # refusal is honest, not a gate failure

    def test_footprint_for_refuses_without_trace(self, refused_kernel):
        task, shape = middle_task(refused_kernel)
        with pytest.raises(KernelError, match="refused"):
            footprint_for(task, shape, allow_trace=False)

    def test_footprint_for_trace_fallback_warns(self, refused_kernel):
        # the fallback is loud: a UserWarning carrying the refusal reason
        task, shape = middle_task(refused_kernel)
        with pytest.warns(UserWarning, match="refused"):
            fp = footprint_for(task, shape)
        assert fp.source == "traced"


class TestCertification:
    def test_every_stock_kernel_certifies_ok(self):
        verdicts = certify_kernels(list(STOCK_KERNELS))
        assert all(v.ok for v in verdicts), kernel_verdict_table(verdicts)

    def test_gallery_kernels_certified_by_inference(self):
        for name in ("heat_tile", "life_tile"):
            v = certify_kernel(name)
            assert v.source == "inferred"
            assert v.race == "race-free"
            assert v.halo_radius == 1

    def test_async_relax_is_racy_by_design(self):
        v = certify_kernel("async_tile_relax")
        assert v.race == "racy"
        assert v.expected == "racy-by-design"
        assert v.verdict_word() == "racy-by-design"
        assert v.ok

    def test_fused_kernel_halo_radius_matches_declared_model(self):
        # the declared k-model at arg=None covers the grown rect + ring
        v = certify_kernel("sync_tile_k")
        assert v.halo_radius == 2

    def test_footprint_for_inferred_provenance(self):
        task, shape = middle_task("heat_tile")
        assert footprint_for(task, shape).source == "inferred"
        task, shape = middle_task("sync_tile")
        assert footprint_for(task, shape).source == "declared"

    def test_verdict_table_renders_all_kernels(self):
        table = kernel_verdict_table(certify_kernels(list(STOCK_KERNELS)))
        for name in STOCK_KERNELS:
            assert name in table
        assert "refused" not in table

    def test_json_report_round_trips(self):
        verdicts = certify_kernels(list(STOCK_KERNELS))
        checks = verify_declarations(list(STOCK_KERNELS))
        report = verdicts_to_json(verdicts, checks)
        assert json.loads(json.dumps(report)) == report
        assert report["ok"] is True
        assert {k["kernel"] for k in report["kernels"]} == set(STOCK_KERNELS)


class TestHaloRadius:
    TILE = Tile(0, 1, 1, 4, 4, 4, 4)  # framed rect rows 5:9, cols 5:9

    def test_tile_local_reads_radius_zero(self):
        fp = Footprint.of(rect_cells(0, 5, 9, 5, 9), set())
        assert footprint_halo_radius(fp, self.TILE) == 0

    def test_cross_and_diagonal_neighbours_radius_one(self):
        assert footprint_halo_radius(Footprint.of({(0, 4, 6)}, set()), self.TILE) == 1
        assert footprint_halo_radius(Footprint.of({(0, 4, 4)}, set()), self.TILE) == 1

    def test_two_cell_reach_radius_two(self):
        fp = Footprint.of({(0, 3, 6), (0, 8, 8)}, set())
        assert footprint_halo_radius(fp, self.TILE) == 2

    def test_writes_do_not_count(self):
        fp = Footprint.of(set(), {(1, 0, 0)})
        assert footprint_halo_radius(fp, self.TILE) == 0


@st.composite
def geometries(draw):
    height = draw(st.integers(6, 14))
    width = draw(st.integers(6, 14))
    tile_size = draw(st.integers(3, 5))
    grid = TileGrid(height, width, tile_size)
    tiles = list(grid)
    tile = tiles[draw(st.integers(0, len(tiles) - 1))]
    arg = draw(st.sampled_from([None, 1, 2, 3]))
    return height, width, tile, arg


class TestSoundnessChain:
    """observed ⊆ inferred ⊆ declared, per kernel, across random geometry."""

    @settings(max_examples=25, deadline=None)
    @given(geom=geometries(), kernel=st.sampled_from(STOCK_KERNELS))
    def test_observed_subset_inferred_subset_declared(self, geom, kernel):
        height, width, tile, arg = geom
        shape = (height + 2, width + 2)
        task = TileTask(kernel, 0, 1, tile, arg=arg)
        inferred = infer_footprint(task, shape)  # refusing a stock kernel fails
        observed = trace_tile_kernel(task, shape)
        assert observed.reads <= inferred.reads, (kernel, tile, arg)
        assert observed.writes <= inferred.writes, (kernel, tile, arg)
        declared = declared_footprint(task, shape)
        if declared is not None:
            assert inferred.reads <= declared.reads, (kernel, tile, arg)
            assert inferred.writes <= declared.writes, (kernel, tile, arg)
