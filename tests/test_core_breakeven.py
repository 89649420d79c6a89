"""Unit tests for the compress-or-not break-even analysis."""

import pytest

from repro.core.breakeven import (
    breakeven_bandwidth_bps,
    breakeven_clients,
    compare_strategies,
)
from repro.hardware.cpu import BROADWELL_D1548, SKYLAKE_4114
from repro.hardware.workload import WorkloadKind
from repro.iosim.nfs import NfsTarget

KIND = WorkloadKind.COMPRESS_SZ


class TestCompareStrategies:
    def test_outcomes_structure(self):
        out = compare_strategies(BROADWELL_D1548, KIND, 6.0, 1e-2, int(1e9))
        assert set(out) == {"raw", "compressed"}
        assert out["raw"].time_s > 0 and out["compressed"].energy_j > 0

    def test_fast_link_favours_raw_time(self):
        # Default NFS (~650 MB/s effective) outruns SZ (~240 MB/s):
        # the paper's caveat — compression can outweigh the transfer.
        out = compare_strategies(BROADWELL_D1548, KIND, 6.0, 1e-2, int(1e9))
        assert out["raw"].time_s < out["compressed"].time_s

    def test_slow_link_favours_compression(self):
        slow = NfsTarget(network_gbps=0.5)  # ~60 MB/s link
        out = compare_strategies(BROADWELL_D1548, KIND, 6.0, 1e-2, int(1e9), nfs=slow)
        assert out["compressed"].time_s < out["raw"].time_s
        assert out["compressed"].energy_j < out["raw"].energy_j

    def test_contention_flips_the_verdict(self):
        nfs = NfsTarget()
        alone = compare_strategies(
            BROADWELL_D1548, KIND, 6.0, 1e-2, int(1e9), nfs=nfs, concurrent_clients=1
        )
        crowded = compare_strategies(
            BROADWELL_D1548, KIND, 6.0, 1e-2, int(1e9), nfs=nfs, concurrent_clients=32
        )
        assert alone["raw"].time_s < alone["compressed"].time_s
        assert crowded["compressed"].time_s < crowded["raw"].time_s

    def test_scales_linearly_with_bytes(self):
        small = compare_strategies(BROADWELL_D1548, KIND, 4.0, 1e-2, int(1e9))
        large = compare_strategies(BROADWELL_D1548, KIND, 4.0, 1e-2, int(4e9))
        assert large["compressed"].time_s == pytest.approx(
            4 * small["compressed"].time_s
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            compare_strategies(BROADWELL_D1548, KIND, 0.0, 1e-2, 100)
        with pytest.raises(ValueError):
            compare_strategies(BROADWELL_D1548, WorkloadKind.WRITE, 2.0, 1e-2, 100)


class TestBreakevenBandwidth:
    def test_time_formula(self):
        # v* = v_c (1 - 1/r) exactly at the crossover.
        r = 5.0
        v_star = breakeven_bandwidth_bps(BROADWELL_D1548, KIND, r, 1e-2, "time")
        nbytes = int(1e9)
        v_c = breakeven_bandwidth_bps(BROADWELL_D1548, KIND, 1e12, 1e-2, "time")
        # At the threshold the two strategies tie (up to rounding).
        t_raw = nbytes / v_star
        t_comp = nbytes / v_c + nbytes / (r * v_star)
        assert t_raw == pytest.approx(t_comp, rel=1e-9)

    def test_higher_ratio_raises_threshold(self):
        lo = breakeven_bandwidth_bps(BROADWELL_D1548, KIND, 2.0, 1e-2)
        hi = breakeven_bandwidth_bps(BROADWELL_D1548, KIND, 20.0, 1e-2)
        assert hi > lo

    def test_ratio_one_never_wins(self):
        assert breakeven_bandwidth_bps(BROADWELL_D1548, KIND, 1.0, 1e-2) == 0.0

    def test_finer_bound_lowers_threshold(self):
        coarse = breakeven_bandwidth_bps(BROADWELL_D1548, KIND, 6.0, 1e-1)
        fine = breakeven_bandwidth_bps(BROADWELL_D1548, KIND, 6.0, 1e-4)
        assert fine < coarse  # slower compression → needs a slower link

    def test_energy_threshold_differs_from_time(self):
        t = breakeven_bandwidth_bps(BROADWELL_D1548, KIND, 6.0, 1e-2, "time")
        e = breakeven_bandwidth_bps(BROADWELL_D1548, KIND, 6.0, 1e-2, "energy")
        assert t != e
        # Writing draws more power than compressing, so energy break-even
        # tolerates a faster link than time break-even.
        assert e > t

    def test_invalid_criterion(self):
        with pytest.raises(ValueError, match="criterion"):
            breakeven_bandwidth_bps(BROADWELL_D1548, KIND, 6.0, 1e-2, "latency")


class TestBreakevenClients:
    def test_crossover_exists_for_decent_ratio(self):
        n = breakeven_clients(BROADWELL_D1548, KIND, 6.0, 1e-2)
        assert n is not None
        assert 2 <= n <= 64

    def test_crossover_consistent_with_compare(self):
        nfs = NfsTarget()
        n = breakeven_clients(BROADWELL_D1548, KIND, 6.0, 1e-2, nfs=nfs)
        below = compare_strategies(
            BROADWELL_D1548, KIND, 6.0, 1e-2, int(1e9), nfs=nfs,
            concurrent_clients=max(1, n - 1),
        )
        above = compare_strategies(
            BROADWELL_D1548, KIND, 6.0, 1e-2, int(1e9), nfs=nfs,
            concurrent_clients=n,
        )
        assert above["compressed"].time_s < above["raw"].time_s
        if n > 1:
            assert below["raw"].time_s <= below["compressed"].time_s

    def test_no_crossover_for_marginal_ratio(self):
        n = breakeven_clients(
            BROADWELL_D1548, KIND, 1.01, 1e-2, max_clients=64
        )
        assert n is None

    def test_skylake_crossover_earlier_or_equal(self):
        # The faster chip compresses faster, so compression pays off at
        # the same or lower contention.
        n_bw = breakeven_clients(BROADWELL_D1548, KIND, 6.0, 1e-2)
        n_sky = breakeven_clients(SKYLAKE_4114, KIND, 6.0, 1e-2)
        assert n_sky <= n_bw
