"""Unit + property tests for the SZ2-style regression predictor."""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressors import SZCompressor
from repro.compressors.sz.regression import (
    fit_block_planes,
    pack_coefficients,
    predict_from_planes,
    unpack_coefficients,
)
from repro.data import load_field


class TestPlaneFit:
    def test_exact_on_linear_field(self):
        # A field that IS a plane per block predicts (almost) exactly.
        x = np.arange(12, dtype=np.int64)
        g = np.add.outer(3 * x, 5 * x)
        coeffs = fit_block_planes(g)
        pred = predict_from_planes(coeffs, g.shape)
        assert np.max(np.abs(pred - g)) <= 1  # fixed-point rounding only

    def test_coefficient_shape(self):
        g = np.zeros((13, 7), dtype=np.int64)
        coeffs = fit_block_planes(g)
        # ceil(13/6)=3, ceil(7/6)=2 blocks; ndim+1=3 coefficients each.
        assert coeffs.shape == (6, 3)

    def test_constant_field_zero_slopes(self):
        g = np.full((6, 6), 42, dtype=np.int64)
        coeffs = fit_block_planes(g)
        scale = 1 << 10
        assert coeffs[0, 0] == 42 * scale
        assert coeffs[0, 1] == 0 and coeffs[0, 2] == 0

    def test_5d_rejected(self):
        with pytest.raises(ValueError):
            fit_block_planes(np.zeros((2,) * 5, dtype=np.int64))

    def test_predict_shape_validation(self):
        g = np.zeros((6, 6), dtype=np.int64)
        coeffs = fit_block_planes(g)
        with pytest.raises(ValueError, match="does not match"):
            predict_from_planes(coeffs, (12, 12))

    @pytest.mark.parametrize("shape", [(6, 6), (7, 11), (6, 6, 6), (5, 9, 13)])
    def test_residuals_smaller_than_values_on_smooth_fields(self, shape):
        rng = np.random.default_rng(3)
        # Smooth integer field: cumulative sums of small steps.
        g = np.cumsum(rng.integers(-3, 4, size=shape), axis=0).astype(np.int64) * 10
        coeffs = fit_block_planes(g)
        pred = predict_from_planes(coeffs, shape)
        assert np.abs(g - pred).mean() < np.abs(g).mean()


class TestCoefficientPacking:
    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        coeffs = rng.integers(-(2**20), 2**20, size=(17, 4))
        packed = pack_coefficients(coeffs)
        assert np.array_equal(unpack_coefficients(packed, 17, 3), coeffs)

    def test_delta_shrinks_smooth_coefficients(self):
        base = np.arange(50, dtype=np.int64)[:, None] * np.array([100, 1, 1, 1])
        packed = pack_coefficients(base)
        assert np.abs(packed[4:]).max() <= 100

    @given(st.integers(1, 30), st.integers(1, 4), st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, nblocks, ndim, seed):
        rng = np.random.default_rng(seed)
        coeffs = rng.integers(-(2**30), 2**30, size=(nblocks, ndim + 1))
        packed = pack_coefficients(coeffs)
        assert np.array_equal(unpack_coefficients(packed, nblocks, ndim), coeffs)


class TestCodecIntegration:
    def test_forced_predictors_both_respect_bound(self):
        arr = load_field("cesm-atm", "T", scale=24)
        for predictor in ("lorenzo", "regression", "auto"):
            codec = SZCompressor(predictor=predictor)
            buf, rec = codec.roundtrip(arr, 1e-3)
            err = np.max(np.abs(arr.astype(float) - rec.astype(float)))
            assert err <= 1e-3, predictor

    def test_auto_never_worse_than_either(self):
        # Exact selection: auto keeps the smaller encoding.
        for ds, fl in (("cesm-atm", "T"), ("nyx", "velocity_x")):
            arr = load_field(ds, fl, scale=24)
            sizes = {
                p: SZCompressor(predictor=p).compress(arr, 1e-2).nbytes
                for p in ("lorenzo", "regression", "auto")
            }
            assert sizes["auto"] <= min(sizes["lorenzo"], sizes["regression"])

    def test_regression_wins_on_planar_data(self):
        # A piecewise-planar field is regression's best case.
        x = np.linspace(0, 50, 60)
        arr = (np.add.outer(x, 2 * x)).astype(np.float32)
        lorenzo = SZCompressor(predictor="lorenzo").compress(arr, 1e-3)
        regression = SZCompressor(predictor="regression").compress(arr, 1e-3)
        assert regression.nbytes <= lorenzo.nbytes * 1.05

    def test_1d_falls_back_to_lorenzo(self):
        arr = np.cumsum(np.random.default_rng(0).normal(size=500)).astype(np.float32)
        codec = SZCompressor(predictor="regression")  # not viable in 1-D
        buf, rec = codec.roundtrip(arr, 1e-2)
        assert np.max(np.abs(arr - rec)) <= 1e-2

    def test_invalid_predictor(self):
        with pytest.raises(ValueError, match="predictor"):
            SZCompressor(predictor="spline")

    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_regression_mode_bound_property(self, data):
        shape = (data.draw(st.integers(6, 14)), data.draw(st.integers(6, 14)))
        n = shape[0] * shape[1]
        values = data.draw(
            st.lists(st.floats(-100, 100, width=32), min_size=n, max_size=n)
        )
        arr = np.array(values, dtype=np.float32).reshape(shape)
        codec = SZCompressor(predictor="regression")
        _, rec = codec.roundtrip(arr, 1e-2)
        err = np.max(np.abs(arr.astype(np.float64) - rec.astype(np.float64)))
        assert err <= 1e-2 * (1 + 1e-9)


class TestCrossProcessDeterminism:
    def test_load_field_stable_across_processes(self):
        # Guards against PYTHONHASHSEED-dependent data generation (a
        # real bug: seed mixing once used the salted builtin hash()).
        snippet = (
            "from repro.data import load_field; import numpy as np; "
            "print(float(np.sum(load_field('cesm-atm','T',scale=32).astype('f8'))))"
        )
        outs = {
            subprocess.run(
                [sys.executable, "-c", snippet],
                capture_output=True, text=True, check=True,
            ).stdout.strip()
            for _ in range(2)
        }
        assert len(outs) == 1
