"""Tests for variant-level race certification."""

import pytest

from repro.analysis.variants import (
    RACY_TAG,
    certify_all,
    certify_variant,
    variant_phases,
    verdict_table,
)
from repro.common.errors import KernelError
from repro.easypap.kernel import REGISTRY, KernelRegistry


class TestVariantPhases:
    def test_sync_cell_model_is_per_interior_cell(self):
        phases = variant_phases("sandpile", "seq", height=3, width=4, tile_size=2)
        assert len(phases) == 1
        assert len(phases[0]) == 12

    def test_async_waves_are_serialised_phases(self):
        phases = variant_phases("asandpile", "omp", height=8, width=8, tile_size=4)
        assert len(phases) == 4  # checkerboard waves
        assert sum(len(p) for p in phases) == 4  # 2x2 tiles total

    def test_pfrontier_model_is_one_row_band_per_row(self):
        # tile_size plays no part: pfrontier cuts row bands, not tiles
        phases = variant_phases("sandpile", "pfrontier", height=6, width=5, tile_size=2)
        assert len(phases) == 1
        assert len(phases[0]) == 6
        assert all(len(fp.writes) == 5 for fp in phases[0])
        assert certify_variant("sandpile", "pfrontier").verdict == "race-free"

    def test_unknown_variant_has_no_model(self):
        assert variant_phases("sandpile", "cuda", height=4, width=4, tile_size=2) is None


class TestCertifyVariant:
    def test_sync_tiled_certifies_race_free(self):
        v = certify_variant("sandpile", "tiled")
        assert v.verdict == "race-free" and v.expected == "race-free" and v.ok

    def test_async_sweep_flagged_racy_and_expected(self):
        # the deliberately-racy variant: flagged, and the whitelist tag
        # makes the flag the *expected* outcome
        v = certify_variant("asandpile", "seq")
        assert v.verdict == "racy"
        assert v.expected == "racy"
        assert v.ok
        assert RACY_TAG in REGISTRY.get("asandpile", "seq").tags

    def test_async_waves_certify_race_free(self):
        v = certify_variant("asandpile", "omp")
        assert v.verdict == "race-free" and v.ok

    def test_unit_tiles_break_the_wave_guarantee(self):
        # checker sensitivity: with 1-cell tiles the wave partition no
        # longer separates write halos, and certification must fail
        v = certify_variant("asandpile", "omp", tile_size=1)
        assert v.verdict == "racy"
        assert not v.ok

    def test_unmodelled_variant_fails_certification(self):
        reg = KernelRegistry()
        reg.register("sandpile", "mystery", lambda grid: None)
        v = certify_variant("sandpile", "mystery", registry=reg)
        assert v.verdict == "unmodelled"
        assert not v.ok

    def test_unknown_variant_raises(self):
        with pytest.raises(KernelError):
            certify_variant("sandpile", "nope")


class TestCertifyAll:
    def test_every_registered_variant_certifies(self):
        verdicts = certify_all()
        assert len(verdicts) == len(REGISTRY)
        assert all(v.ok for v in verdicts), verdict_table(verdicts)

    def test_exactly_the_tagged_variants_are_racy(self):
        verdicts = certify_all()
        racy = {v.qualified_name for v in verdicts if v.verdict == "racy"}
        tagged = {
            info.qualified_name for info in REGISTRY.all_variants() if RACY_TAG in info.tags
        }
        assert racy == tagged
        assert racy == {"asandpile/seq", "asandpile/vec", "asandpile/frontier"}

    def test_verdict_table_lists_all_variants(self):
        verdicts = certify_all()
        table = verdict_table(verdicts)
        for v in verdicts:
            assert v.qualified_name in table
        assert "FAIL" not in table


class TestCertifyDynamicFrontier:
    """End-to-end certification of the frontier's per-iteration plans."""

    def test_real_run_certifies_race_free(self):
        from repro.analysis.variants import certify_dynamic_frontier

        cert = certify_dynamic_frontier(
            height=20, width=20, nworkers=4, max_iterations=120
        )
        assert cert.ok
        assert cert.iterations > 0
        # the off-centre seed shrinks the frontier: dynamic batches happen
        assert cert.dynamic_batches > 0
        assert len(cert.crosses) == cert.iterations
        for cc in cert.crosses:
            assert cc.sound and cc.ok
            assert not cc.static.racy
        text = cert.summary()
        assert "race-free" in text
        assert str(cert.iterations) in text

    def test_k1_certifies_the_band_batches_the_stepper_submits(self, monkeypatch):
        """At k=1 every captured batch is ``nworkers`` (or fewer) full-window
        ``sync_tile_k`` row bands, and the verdict is race-free."""
        import repro.analysis.variants as variants

        seen = []
        real = variants.dynamic_check

        def spy(specs, planes, **kw):
            seen.append(list(specs))
            return real(specs, planes, **kw)

        monkeypatch.setattr(variants, "dynamic_check", spy)
        cert = variants.certify_dynamic_frontier(
            height=20, width=20, nworkers=4, k=1, max_iterations=120
        )
        assert cert.ok and cert.halo is None
        assert len(seen) == cert.iterations > 0
        for specs in seen:
            assert 1 <= len(specs) <= 4
            assert {(t.kernel, t.src, t.dst, t.arg) for t in specs} == {("sync_tile_k", 0, 1, 1)}
            # full-width bands cutting one window into contiguous row runs
            assert len({(t.tile.x0, t.tile.w) for t in specs}) == 1
            assert all(a.tile.y1 == b.tile.y0 for a, b in zip(specs, specs[1:]))

    def test_certifies_under_static_policy_too(self):
        from repro.analysis.variants import certify_dynamic_frontier

        cert = certify_dynamic_frontier(
            height=16, width=16, nworkers=2, policy="static",
            max_iterations=120,
        )
        assert cert.ok
        assert "policy=static" in cert.summary()
