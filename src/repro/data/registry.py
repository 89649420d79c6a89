"""Dataset registry reproducing Table I (plus the Fig. 5 validation set).

Each :class:`DatasetSpec` records the paper's full-resolution geometry
and a generator that synthesizes a *scaled-down* field with the same
dimensionality and smoothness. ``scale`` divides each spatial extent, so
``scale=8`` on NYX's 512³ gives a 64³ working field; the workload model
in :mod:`repro.hardware.workload` extrapolates costs back to full size
linearly in the element count, exactly as the paper concatenates NYX
snapshots to reach 512 GB.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field as dc_field
from typing import Callable, Dict, Mapping, Tuple

import numpy as np

from repro.data import fields as _fields

__all__ = [
    "FieldSpec",
    "DatasetSpec",
    "DATASETS",
    "available_datasets",
    "get_dataset",
    "load_field",
    "load_dataset",
    "table1_rows",
]


@dataclass(frozen=True)
class FieldSpec:
    """One named field of a dataset and how to synthesize it."""

    name: str
    generator: Callable[..., np.ndarray]
    kwargs: Mapping[str, object] = dc_field(default_factory=dict)


@dataclass(frozen=True)
class DatasetSpec:
    """A Table I dataset: geometry at paper scale plus synthesis recipe."""

    name: str
    domain: str
    full_shape: Tuple[int, ...]
    dtype: str
    fields: Tuple[FieldSpec, ...]
    reference: str = ""

    @property
    def full_elements(self) -> int:
        return int(np.prod(self.full_shape, dtype=np.int64))

    @property
    def full_field_bytes(self) -> int:
        return self.full_elements * np.dtype(self.dtype).itemsize

    @property
    def full_field_megabytes(self) -> float:
        """Size of one full-resolution field in MB (10^6 bytes, as in Table I)."""
        return self.full_field_bytes / 1e6

    def scaled_shape(self, scale: int) -> Tuple[int, ...]:
        """Shrink the geometry so the element count drops by ~``scale**3``.

        ``scale`` is defined volumetrically: a 3-D dataset divides each
        axis by ``scale``; lower-dimensional datasets divide their axes
        by ``scale**(3/k)`` (k = number of non-trivial extents) so that
        every dataset shrinks by a comparable factor — otherwise HACC's
        single 280 M-element axis would dwarf the 3-D fields at the same
        scale. Extents of 1 stay 1; others are clamped to [4, original].
        """
        if scale < 1:
            raise ValueError(f"scale must be >= 1, got {scale}")
        nontrivial = sum(1 for s in self.full_shape if s > 1)
        per_axis = float(scale) ** (3.0 / max(nontrivial, 1))
        return tuple(
            1 if s == 1 else min(s, max(4, int(round(s / per_axis))))
            for s in self.full_shape
        )


def _squeeze_leading_ones(shape: Tuple[int, ...]) -> Tuple[int, ...]:
    out = tuple(s for s in shape if s > 1)
    return out if out else (1,)


def load_field(
    dataset: "DatasetSpec | str",
    field_name: str,
    scale: int = 8,
    seed: int = 0,
) -> np.ndarray:
    """Synthesize one field of *dataset* at ``1/scale`` resolution.

    The seed is mixed with a hash of dataset/field names so distinct
    fields are decorrelated but every call is reproducible.
    """
    spec = get_dataset(dataset) if isinstance(dataset, str) else dataset
    fspec = next((f for f in spec.fields if f.name == field_name), None)
    if fspec is None:
        names = [f.name for f in spec.fields]
        raise KeyError(f"{spec.name} has no field {field_name!r}; available: {names}")

    shape = _squeeze_leading_ones(spec.scaled_shape(scale))
    # zlib.crc32, not hash(): Python string hashing is salted per
    # process, which would make "seeded" fields differ between runs.
    name_hash = zlib.crc32(f"{spec.name}/{fspec.name}".encode())
    mixed_seed = (name_hash ^ (seed * 0x9E3779B1)) & 0x7FFFFFFF
    kwargs = dict(fspec.kwargs)
    if fspec.generator is _fields.particle_coordinates:
        return fspec.generator(count=int(np.prod(shape)), seed=mixed_seed, **kwargs)
    return fspec.generator(shape=shape, seed=mixed_seed, **kwargs)


def load_dataset(
    dataset: "DatasetSpec | str", scale: int = 8, seed: int = 0
) -> Dict[str, np.ndarray]:
    """Synthesize every field of *dataset*; returns ``{field name: array}``."""
    spec = get_dataset(dataset) if isinstance(dataset, str) else dataset
    return {f.name: load_field(spec, f.name, scale=scale, seed=seed) for f in spec.fields}


DATASETS: Dict[str, DatasetSpec] = {}


def _register(spec: DatasetSpec) -> DatasetSpec:
    DATASETS[spec.name] = spec
    return spec


CESM_ATM = _register(
    DatasetSpec(
        name="cesm-atm",
        domain="Climate (atmosphere)",
        full_shape=(26, 1800, 3600),
        dtype="float32",
        fields=(
            FieldSpec("CLDHGH", _fields.smooth_layered_field, {"spectral_slope": 3.5}),
            FieldSpec("T", _fields.smooth_layered_field, {"spectral_slope": 3.8, "layer_trend": 2.0}),
            FieldSpec("Q", _fields.smooth_layered_field, {"spectral_slope": 3.0}),
        ),
        reference="Kay et al., BAMS 2015",
    )
)

HACC = _register(
    DatasetSpec(
        name="hacc",
        domain="Cosmology (N-body particles)",
        full_shape=(1, 280953867),
        dtype="float32",
        fields=(
            FieldSpec("x", _fields.particle_coordinates, {"cluster_fraction": 0.6}),
            FieldSpec("vx", _fields.particle_coordinates, {"cluster_fraction": 0.3}),
        ),
        reference="Habib et al., CACM 2016",
    )
)

NYX = _register(
    DatasetSpec(
        name="nyx",
        domain="Cosmology (AMR hydrodynamics)",
        full_shape=(512, 512, 512),
        dtype="float32",
        fields=(
            FieldSpec("baryon_density", _fields.lognormal_density_field, {"spectral_slope": 2.5}),
            FieldSpec("velocity_x", _fields.gaussian_random_field, {"spectral_slope": 2.8}),
            FieldSpec("temperature", _fields.lognormal_density_field, {"spectral_slope": 3.0, "contrast": 1.0}),
        ),
        reference="Almgren et al., ApJ 2013",
    )
)

HURRICANE_ISABEL = _register(
    DatasetSpec(
        name="hurricane-isabel",
        domain="Weather (WRF hurricane simulation)",
        full_shape=(100, 500, 500),
        dtype="float32",
        fields=(
            FieldSpec("PRECIP", _fields.lognormal_density_field, {"spectral_slope": 2.2, "contrast": 1.8}),
            FieldSpec("P", _fields.smooth_layered_field, {"spectral_slope": 3.6, "layer_trend": 3.0}),
            FieldSpec("TC", _fields.smooth_layered_field, {"spectral_slope": 3.4, "layer_trend": 2.0}),
            FieldSpec("U", _fields.vortex_velocity_field, {"component": 0}),
            FieldSpec("V", _fields.vortex_velocity_field, {"component": 1}),
            FieldSpec("W", _fields.vortex_velocity_field, {"component": 2}),
        ),
        reference="WRF model, NCAR (Fig. 5 validation set)",
    )
)

SCALE_LETKF = _register(
    DatasetSpec(
        name="scale-letkf",
        domain="Weather (ensemble data assimilation)",
        full_shape=(98, 1200, 1200),
        dtype="float32",
        fields=(
            FieldSpec("QG", _fields.lognormal_density_field, {"spectral_slope": 2.4, "contrast": 1.6}),
            FieldSpec("V", _fields.vortex_velocity_field, {"component": 1, "swirl": 1.2}),
        ),
        reference="SDRBench (extension; not in the paper's Table I)",
    )
)

QMCPACK = _register(
    DatasetSpec(
        name="qmcpack",
        domain="Quantum chemistry (Monte Carlo orbitals)",
        full_shape=(288, 115, 69, 69),
        dtype="float32",
        fields=(
            FieldSpec("einspline", _fields.gaussian_random_field, {"spectral_slope": 3.2}),
        ),
        reference="SDRBench (extension; not in the paper's Table I)",
    )
)

#: The three datasets the paper's models are trained on (Table I).
TABLE1_DATASETS = ("cesm-atm", "hacc", "nyx")


def available_datasets() -> Tuple[str, ...]:
    """Names of all registered datasets."""
    return tuple(sorted(DATASETS))


def get_dataset(name: str) -> DatasetSpec:
    """Look up a dataset by name (case-insensitive)."""
    key = name.lower()
    if key not in DATASETS:
        raise KeyError(f"unknown dataset {name!r}; available: {available_datasets()}")
    return DATASETS[key]


def table1_rows() -> Tuple[Dict[str, object], ...]:
    """Rows of Table I: domain, dimensions, size of one field in MB."""
    rows = []
    for name in TABLE1_DATASETS:
        spec = DATASETS[name]
        dims = " x ".join(str(s) for s in spec.full_shape)
        rows.append(
            {
                "dataset": spec.name,
                "domain": spec.domain,
                "dimensions": dims,
                "field_size_mb": round(spec.full_field_megabytes, 1),
            }
        )
    return tuple(rows)
