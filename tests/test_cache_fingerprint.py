"""Unit tests for canonical fingerprinting.

The fingerprint is the cache's correctness foundation: it must be
stable across processes and dict orderings, sensitive to every
result-shaping input, and *strict* — an unfingerprintable object raises
rather than degrading to ``repr``/``id`` (which vary per process and
would quietly break the disk tier).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.cache import (
    CanonicalForm,
    canonical_json,
    canonicalize,
    describe_node,
    fingerprint,
)
from repro.hardware.cpu import BROADWELL_D1548, SKYLAKE_4114
from repro.hardware.node import SimulatedNode
from repro.hardware.workload import WorkloadKind, compression_workload


class TestCanonicalize:
    def test_scalars_pass_through(self):
        assert canonicalize(None) is None
        assert canonicalize(True) is True
        assert canonicalize(3) == 3
        assert canonicalize("x") == "x"
        assert canonicalize(np.float64(1.5)) == 1.5
        assert isinstance(canonicalize(np.int32(7)), int)
        assert isinstance(canonicalize(np.bool_(True)), bool)

    def test_ndarray_contributes_content_digest(self):
        a = np.arange(6, dtype=np.float32).reshape(2, 3)
        doc = canonicalize(a)["__ndarray__"]
        assert doc["dtype"] == "float32" and doc["shape"] == [2, 3]
        # Same contents, different instance: same digest. F-order copy
        # canonicalizes through ascontiguousarray to the same bytes.
        assert canonicalize(a.copy()) == canonicalize(np.asfortranarray(a))
        b = a.copy()
        b[0, 0] += 1
        assert canonicalize(b) != canonicalize(a)

    def test_bytes_are_digested_not_embedded(self):
        doc = canonical_json(b"\x00" * 1024)
        assert len(doc) < 200 and "__bytes__" in doc

    def test_dict_order_is_sorted_away(self):
        assert canonical_json({"a": 1, "b": 2}) == canonical_json({"b": 2, "a": 1})

    def test_set_order_is_sorted_away(self):
        assert canonical_json({3, 1, 2}) == canonical_json({2, 3, 1})

    def test_list_order_is_preserved(self):
        assert canonical_json([1, 2]) != canonical_json([2, 1])

    def test_enum_keeps_class_and_value(self):
        doc = canonicalize(WorkloadKind.WRITE)
        assert doc["__enum__"][0] == "WorkloadKind"
        assert canonicalize(WorkloadKind.WRITE) != canonicalize(
            WorkloadKind.READ
        )

    def test_dataclass_uses_declared_fields(self):
        wl = compression_workload(WorkloadKind.COMPRESS_SZ, int(1e9), 1e-3)
        doc = canonicalize(wl)
        assert doc["__dataclass__"] == "Workload"
        assert set(doc["fields"]) == {
            f.name for f in type(wl).__dataclass_fields__.values()
        }

    def test_nan_is_representable(self):
        # Sweep payloads carry NaN ratios; the canonical form must not
        # reject them (and NaN != NaN must not destabilize the text).
        assert canonical_json(float("nan")) == canonical_json(float("nan"))

    def test_rng_state_pins_the_stream_position(self):
        r1 = np.random.default_rng(7)
        r2 = np.random.default_rng(7)
        assert canonical_json(r1) == canonical_json(r2)
        r2.random()
        assert canonical_json(r1) != canonical_json(r2)

    def test_unfingerprintable_raises_typeerror(self):
        with pytest.raises(TypeError, match="cannot fingerprint"):
            canonicalize(object())
        with pytest.raises(TypeError, match="cannot fingerprint"):
            canonicalize({"f": lambda: None})


class TestFingerprint:
    def test_shape_and_determinism(self):
        f = fingerprint(kind="t", x=1)
        assert len(f) == 64 and f == fingerprint(kind="t", x=1)

    def test_sensitive_to_part_names_and_values(self):
        base = fingerprint(kind="t", x=1)
        assert fingerprint(kind="t", x=2) != base
        assert fingerprint(kind="t", y=1) != base
        assert fingerprint(kind="u", x=1) != base

    def test_cpu_specs_distinguish(self):
        assert fingerprint(cpu=SKYLAKE_4114) != fingerprint(cpu=BROADWELL_D1548)


_PART_VALUES = st.one_of(
    st.none(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=8),
    arrays(
        st.sampled_from([np.float32, np.float64, np.int16]),
        array_shapes(min_dims=0, max_dims=3, max_side=4),
    ),
    st.builds(compression_workload, st.just(WorkloadKind.COMPRESS_SZ),
              st.integers(1, 10**9), st.floats(1e-6, 1.0)),
)


class TestCanonicalForm:
    @settings(max_examples=80, deadline=None)
    @given(
        value=st.one_of(_PART_VALUES, st.lists(_PART_VALUES, max_size=3),
                        st.dictionaries(st.text(max_size=4), _PART_VALUES,
                                        max_size=3)),
        other=_PART_VALUES,
    )
    def test_key_equals_the_fingerprint_of_the_value(self, value, other):
        assert (fingerprint(kind="t", field=CanonicalForm(value), other=other)
                == fingerprint(kind="t", field=value, other=other))

    def test_form_is_taken_at_construction(self):
        arr = np.arange(6.0)
        form = CanonicalForm(arr)
        arr[0] = 9.0
        assert fingerprint(field=form) != fingerprint(field=arr)
        assert fingerprint(field=CanonicalForm(arr)) == fingerprint(field=arr)


class TestDescribeNode:
    def test_same_construction_same_description(self):
        a = SimulatedNode(SKYLAKE_4114, seed=3)
        b = SimulatedNode(SKYLAKE_4114, seed=3)
        assert canonical_json(describe_node(a)) == canonical_json(describe_node(b))

    def test_advanced_noise_stream_changes_description(self):
        a = SimulatedNode(SKYLAKE_4114, seed=3)
        b = SimulatedNode(SKYLAKE_4114, seed=3)
        b._rng.random()
        assert canonical_json(describe_node(a)) != canonical_json(describe_node(b))

    def test_rapl_counter_state_is_output_neutral_and_excluded(self):
        a = SimulatedNode(SKYLAKE_4114, seed=3)
        b = SimulatedNode(SKYLAKE_4114, seed=3)
        wl = compression_workload(WorkloadKind.COMPRESS_SZ, int(1e9), 1e-3)
        b.run(wl)  # advances RAPL accumulation and the RNG
        # Rewind the RNG; only RAPL state now differs.
        b._rng.bit_generator.state = a._rng.bit_generator.state
        assert canonical_json(describe_node(a)) == canonical_json(describe_node(b))
