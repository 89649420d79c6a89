"""Unit tests for the error-bound advisor."""

import pytest

from repro.compressors import SZCompressor, ZFPCompressor
from repro.core.advisor import ErrorBoundAdvisor
from repro.data import load_field


@pytest.fixture(scope="module")
def field():
    return load_field("cesm-atm", "T", scale=24)


@pytest.fixture(scope="module")
def advisor(field):
    return ErrorBoundAdvisor(SZCompressor(), field)


class TestProfiles:
    def test_profiles_ordered_coarse_to_fine(self, advisor):
        ebs = [p.error_bound for p in advisor.profiles]
        assert ebs == sorted(ebs, reverse=True)

    def test_ratio_decreases_with_finer_bounds(self, advisor):
        ratios = [p.ratio for p in advisor.profiles]
        assert ratios == sorted(ratios, reverse=True)

    def test_psnr_increases_with_finer_bounds(self, advisor):
        psnrs = [p.psnr_db for p in advisor.profiles]
        assert psnrs == sorted(psnrs)

    def test_bounds_respected_in_profiles(self, advisor):
        for p in advisor.profiles:
            assert p.max_error <= p.error_bound * (1 + 1e-9)

    def test_table_rows(self, advisor):
        rows = advisor.table()
        assert len(rows) == len(advisor.profiles)
        assert set(rows[0]) == {"error_bound", "ratio", "psnr_db", "max_error"}


class TestInversion:
    def test_bound_for_ratio_achieves_target(self, advisor, field):
        target = 6.0
        eb = advisor.bound_for_ratio(target)
        achieved = SZCompressor().compress(field, eb).ratio
        assert achieved == pytest.approx(target, rel=0.25)

    def test_bound_for_psnr_achieves_target(self, advisor, field):
        target = 65.0
        eb = advisor.bound_for_psnr(target)
        codec = SZCompressor()
        buf, rec = codec.roundtrip(field, eb)
        from repro.compressors.metrics import psnr

        assert psnr(field, rec) == pytest.approx(target, abs=6.0)

    def test_higher_ratio_needs_coarser_bound(self, advisor):
        assert advisor.bound_for_ratio(10.0) > advisor.bound_for_ratio(3.0)

    def test_higher_psnr_needs_finer_bound(self, advisor):
        assert advisor.bound_for_psnr(80.0) < advisor.bound_for_psnr(50.0)

    def test_targets_clamped_to_profiled_range(self, advisor):
        hi = advisor.bound_for_ratio(1e9)
        lo = advisor.bound_for_ratio(1e-9)
        ebs = [p.error_bound for p in advisor.profiles]
        assert min(ebs) * 0.99 <= hi <= max(ebs) * 1.01
        assert min(ebs) * 0.99 <= lo <= max(ebs) * 1.01

    def test_invalid_ratio(self, advisor):
        with pytest.raises(ValueError):
            advisor.bound_for_ratio(0.0)


class TestConstruction:
    def test_works_with_zfp(self, field):
        adv = ErrorBoundAdvisor(ZFPCompressor(), field, bounds=(1e-1, 1e-2, 1e-3))
        assert len(adv.profiles) == 3

    def test_too_few_bounds(self, field):
        with pytest.raises(ValueError, match="at least 2"):
            ErrorBoundAdvisor(SZCompressor(), field, bounds=(1e-2,))

    def test_nonpositive_bounds(self, field):
        with pytest.raises(ValueError, match="positive"):
            ErrorBoundAdvisor(SZCompressor(), field, bounds=(1e-2, 0.0))
