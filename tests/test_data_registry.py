"""Unit tests for the dataset registry (Table I)."""

import numpy as np
import pytest

from repro.data.registry import (
    available_datasets,
    get_dataset,
    load_dataset,
    load_field,
    table1_rows,
)


class TestRegistryLookups:
    def test_all_paper_datasets_registered(self):
        for name in ("cesm-atm", "hacc", "nyx", "hurricane-isabel"):
            assert name in available_datasets()

    def test_get_dataset_case_insensitive(self):
        assert get_dataset("NYX").name == "nyx"

    def test_unknown_dataset(self):
        with pytest.raises(KeyError, match="unknown dataset"):
            get_dataset("does-not-exist")


class TestGeometry:
    def test_table1_full_sizes_match_paper(self):
        rows = {r["dataset"]: r for r in table1_rows()}
        # Paper's Table I: 673.9 MB, 536.9 MB (HACC differs slightly —
        # see EXPERIMENTS.md; 280953867 floats are 1123.8 MB).
        assert rows["cesm-atm"]["field_size_mb"] == pytest.approx(673.9)
        assert rows["nyx"]["field_size_mb"] == pytest.approx(536.9)
        assert rows["cesm-atm"]["dimensions"] == "26 x 1800 x 3600"
        assert rows["hacc"]["dimensions"] == "1 x 280953867"
        assert rows["nyx"]["dimensions"] == "512 x 512 x 512"

    def test_scaled_shape_volumetric(self):
        nyx = get_dataset("nyx")
        assert nyx.scaled_shape(8) == (64, 64, 64)

    def test_scaled_shape_1d_uses_cubed_divisor(self):
        hacc = get_dataset("hacc")
        shape = hacc.scaled_shape(16)
        n = shape[1]
        assert shape[0] == 1
        # 280953867 / 16^3 ~ 68592
        assert abs(n - 280953867 / 16**3) < 2

    def test_scaled_shape_clamps_small_axes(self):
        cesm = get_dataset("cesm-atm")
        shape = cesm.scaled_shape(16)
        assert shape[0] >= 4

    def test_scale_one_is_identity(self):
        nyx = get_dataset("nyx")
        assert nyx.scaled_shape(1) == nyx.full_shape

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            get_dataset("nyx").scaled_shape(0)


class TestLoading:
    def test_load_field_shape_and_dtype(self):
        arr = load_field("nyx", "velocity_x", scale=16)
        assert arr.shape == (32, 32, 32)
        assert arr.dtype == np.float32

    def test_load_field_deterministic(self):
        a = load_field("cesm-atm", "T", scale=32, seed=7)
        b = load_field("cesm-atm", "T", scale=32, seed=7)
        assert np.array_equal(a, b)

    def test_seed_changes_data(self):
        a = load_field("cesm-atm", "T", scale=32, seed=1)
        b = load_field("cesm-atm", "T", scale=32, seed=2)
        assert not np.array_equal(a, b)

    def test_fields_decorrelated(self):
        u = load_field("hurricane-isabel", "U", scale=32).astype(float).ravel()
        v = load_field("hurricane-isabel", "V", scale=32).astype(float).ravel()
        corr = np.corrcoef(u, v)[0, 1]
        assert abs(corr) < 0.5

    def test_unknown_field(self):
        with pytest.raises(KeyError, match="no field"):
            load_field("nyx", "nope")

    def test_hacc_is_1d(self):
        arr = load_field("hacc", "x", scale=32)
        assert arr.ndim == 1

    def test_load_dataset_all_fields(self):
        fields = load_dataset("hurricane-isabel", scale=32)
        assert set(fields) == {"PRECIP", "P", "TC", "U", "V", "W"}
        for arr in fields.values():
            assert arr.ndim == 3

    def test_isabel_dimensions_match_paper(self):
        spec = get_dataset("hurricane-isabel")
        assert spec.full_shape == (100, 500, 500)
        # Paper: six 95 MB fields. 100*500*500*4 B = 100 MB (1e6-MB).
        assert spec.full_field_megabytes == pytest.approx(100.0)
