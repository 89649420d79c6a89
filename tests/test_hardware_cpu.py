"""Unit tests for CPU specs (Table II)."""

import numpy as np
import pytest

from repro.hardware.cpu import (
    BROADWELL_D1548,
    SKYLAKE_4114,
    CpuSpec,
    get_cpu,
    table2_rows,
)


class TestPaperSpecs:
    def test_broadwell_matches_table2(self):
        assert BROADWELL_D1548.model == "Intel Xeon D-1548"
        assert BROADWELL_D1548.fmin_ghz == 0.8
        assert BROADWELL_D1548.fmax_ghz == 2.0
        assert BROADWELL_D1548.cloudlab_type == "m510"
        assert BROADWELL_D1548.tdp_watts == 45.0

    def test_skylake_matches_table2(self):
        assert SKYLAKE_4114.model == "Intel Xeon Silver 4114"
        assert SKYLAKE_4114.fmin_ghz == 0.8
        assert SKYLAKE_4114.fmax_ghz == 2.2
        assert SKYLAKE_4114.cloudlab_type == "c220g5"
        assert SKYLAKE_4114.tdp_watts == 85.0

    def test_table2_rows(self):
        rows = table2_rows()
        assert len(rows) == 2
        assert rows[0]["clock_range_ghz"] == "0.8GHz - 2.0GHz"
        assert rows[1]["series"] == "Skylake"


class TestFrequencyGrid:
    def test_grid_endpoints(self):
        grid = BROADWELL_D1548.available_frequencies()
        assert grid[0] == 0.8
        assert grid[-1] == 2.0

    def test_grid_step_50mhz(self):
        grid = SKYLAKE_4114.available_frequencies()
        assert np.allclose(np.diff(grid), 0.05)
        assert len(grid) == 29  # (2.2 - 0.8)/0.05 + 1

    def test_broadwell_grid_size(self):
        assert len(BROADWELL_D1548.available_frequencies()) == 25

    def test_non_multiple_span_includes_fmax(self):
        cpu = CpuSpec("x", "broadwell", "t", 0.8, 2.03, 0.05, 45, 4)
        grid = cpu.available_frequencies()
        assert grid[-1] == pytest.approx(2.03)

    def test_grid_built_once_and_read_only(self):
        grid = BROADWELL_D1548.available_frequencies()
        assert BROADWELL_D1548.available_frequencies() is grid
        with pytest.raises(ValueError, match="read-only"):
            grid[0] = 1.0
        # Equal specs share the grid; the spec itself carries no cache,
        # so cache fingerprints (declared fields only) are unchanged.
        twin = CpuSpec("y", "skylake", "t", 0.8, 2.0, 0.05, 85, 10)
        assert twin.available_frequencies() is grid
        assert "grid" not in " ".join(vars(BROADWELL_D1548))


class TestSnap:
    def test_snap_to_nearest(self):
        assert BROADWELL_D1548.snap_frequency(1.76) == pytest.approx(1.75)
        assert BROADWELL_D1548.snap_frequency(1.78) == pytest.approx(1.8)

    def test_snap_exact_grid_point(self):
        assert BROADWELL_D1548.snap_frequency(1.5) == 1.5

    def test_snap_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            BROADWELL_D1548.snap_frequency(2.5)
        with pytest.raises(ValueError, match="outside"):
            BROADWELL_D1548.snap_frequency(0.5)


class TestLookup:
    @pytest.mark.parametrize("key,expected", [
        ("broadwell", "Intel Xeon D-1548"),
        ("skylake", "Intel Xeon Silver 4114"),
        ("m510", "Intel Xeon D-1548"),
        ("C220G5", "Intel Xeon Silver 4114"),
    ])
    def test_lookup_by_arch_or_node(self, key, expected):
        assert get_cpu(key).model == expected

    def test_unknown(self):
        with pytest.raises(KeyError):
            get_cpu("epyc")


class TestValidation:
    def test_inverted_range_rejected(self):
        with pytest.raises(ValueError):
            CpuSpec("x", "a", "t", 2.0, 0.8, 0.05, 45, 4)

    def test_bad_step(self):
        with pytest.raises(ValueError):
            CpuSpec("x", "a", "t", 0.8, 2.0, 0.0, 45, 4)

    def test_bad_tdp(self):
        with pytest.raises(ValueError):
            CpuSpec("x", "a", "t", 0.8, 2.0, 0.05, -1, 4)
