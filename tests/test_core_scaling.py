"""Unit tests for max-clock scaling."""

import pytest

from repro.core.samples import SampleSet
from repro.core.scaling import add_scaled_columns, scale_to_reference


class TestScaleToReference:
    def test_reference_is_max_frequency_value(self):
        scaled, ref = scale_to_reference([1.0, 2.0, 0.8], [10.0, 20.0, 8.0])
        assert ref == 20.0
        assert scaled.tolist() == [0.5, 1.0, 0.4]

    def test_unordered_frequencies(self):
        scaled, ref = scale_to_reference([2.0, 0.8], [40.0, 10.0])
        assert ref == 40.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            scale_to_reference([], [])

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            scale_to_reference([1.0], [1.0, 2.0])

    def test_nonpositive_reference_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            scale_to_reference([1.0, 2.0], [5.0, 0.0])


class TestAddScaledColumns:
    def _set(self):
        return SampleSet(
            [
                {"cpu": "bw", "freq_ghz": 0.8, "power_w": 15.0, "runtime_s": 20.0},
                {"cpu": "bw", "freq_ghz": 2.0, "power_w": 20.0, "runtime_s": 10.0},
                {"cpu": "sky", "freq_ghz": 0.8, "power_w": 24.0, "runtime_s": 9.0},
                {"cpu": "sky", "freq_ghz": 2.2, "power_w": 30.0, "runtime_s": 6.0},
            ]
        )

    def test_per_series_scaling(self):
        out = add_scaled_columns(self._set(), group_keys=("cpu",))
        by = {(r["cpu"], r["freq_ghz"]): r for r in out}
        assert by[("bw", 2.0)]["scaled_power_w"] == pytest.approx(1.0)
        assert by[("bw", 0.8)]["scaled_power_w"] == pytest.approx(0.75)
        assert by[("sky", 2.2)]["scaled_runtime_s"] == pytest.approx(1.0)
        assert by[("sky", 0.8)]["scaled_runtime_s"] == pytest.approx(1.5)

    def test_missing_group_keys_ignored(self):
        # "compressor" is absent from these records; scaling still works.
        out = add_scaled_columns(self._set(), group_keys=("cpu", "compressor"))
        assert len(out) == 4
        assert all("scaled_power_w" in r for r in out)

    def test_original_fields_preserved(self):
        out = add_scaled_columns(self._set(), group_keys=("cpu",))
        assert all("power_w" in r and "runtime_s" in r for r in out)

    def test_scaled_value_at_fmax_is_one_per_group(self):
        out = add_scaled_columns(self._set(), group_keys=("cpu",))
        for _, group in out.group_by("cpu").items():
            top = group.sort_by("freq_ghz")[len(group) - 1]
            assert top["scaled_power_w"] == pytest.approx(1.0)
            assert top["scaled_runtime_s"] == pytest.approx(1.0)
