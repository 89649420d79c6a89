"""Synthesis kernels for scientific-looking floating-point fields.

Lossy-compressor behaviour (ratio, work per element) is governed mostly
by field smoothness and dimensionality, not by the physics that produced
the data. Each kernel below produces a seeded, reproducible field with a
controllable spectral slope: steeper slopes give smoother fields that
compress like CESM temperature layers; shallow slopes give rough fields
that compress like HACC particle coordinates.

All kernels vectorize through FFTs or closed-form NumPy expressions —
no per-element Python loops.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.utils.validation import check_positive, check_shape_dims

__all__ = [
    "gaussian_random_field",
    "smooth_layered_field",
    "lognormal_density_field",
    "particle_coordinates",
    "vortex_velocity_field",
]


def _rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def gaussian_random_field(
    shape: Sequence[int],
    spectral_slope: float = 3.0,
    seed=0,
    dtype=np.float32,
) -> np.ndarray:
    """Isotropic Gaussian random field with power spectrum ``k**-slope``.

    Built in Fourier space: white complex noise shaped by an isotropic
    power-law filter, then inverse-transformed. Output is normalized to
    zero mean, unit variance.

    Parameters
    ----------
    shape:
        Field shape, 1-D to 4-D.
    spectral_slope:
        Exponent of the power spectrum decay. ~1 is rough/noisy,
        ~3-4 is smooth and highly compressible.
    seed:
        Integer seed or a ``numpy.random.Generator``.
    """
    shape = check_shape_dims(shape, allowed_ndims=(1, 2, 3, 4))
    rng = _rng(seed)

    freqs = np.meshgrid(*[np.fft.fftfreq(n) for n in shape], indexing="ij", sparse=True)
    k2 = sum(f**2 for f in freqs)
    k = np.sqrt(k2)
    # Avoid the singular DC mode; its amplitude is irrelevant after
    # mean-removal below.
    k_floor = np.where(k == 0, np.inf, k)
    amplitude = k_floor ** (-spectral_slope / 2.0)

    noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    field = np.fft.ifftn(noise * amplitude).real

    field -= field.mean()
    std = field.std()
    if std > 0:
        field /= std
    return field.astype(dtype)


def smooth_layered_field(
    shape: Sequence[int],
    spectral_slope: float = 3.5,
    layer_trend: float = 1.0,
    seed=0,
    dtype=np.float32,
) -> np.ndarray:
    """Atmosphere-like field: smooth horizontal structure with a vertical trend.

    Mimics CESM-ATM variables (e.g. temperature at 26 pressure levels):
    the leading axis is "altitude"; each level is a smooth 2-D field and
    a monotone cross-level trend of magnitude *layer_trend* is added,
    which is what makes level-stacked climate data compress well.
    """
    shape = check_shape_dims(shape, allowed_ndims=(2, 3))
    base = gaussian_random_field(shape, spectral_slope, seed, dtype=np.float64)
    levels = np.arange(shape[0], dtype=np.float64)
    trend = layer_trend * (levels / max(shape[0] - 1, 1) - 0.5)
    base += trend.reshape((-1,) + (1,) * (len(shape) - 1))
    return base.astype(dtype)


def lognormal_density_field(
    shape: Sequence[int],
    spectral_slope: float = 2.5,
    contrast: float = 1.5,
    seed=0,
    dtype=np.float32,
) -> np.ndarray:
    """Cosmology-like density: exponentiated Gaussian random field.

    Mimics NYX baryon density, whose heavy-tailed positive distribution
    stresses compressors differently from symmetric fields. *contrast*
    scales the log-field before exponentiation (larger → spikier halos).
    """
    check_positive(contrast, "contrast")
    g = gaussian_random_field(shape, spectral_slope, seed, dtype=np.float64)
    rho = np.exp(contrast * g)
    rho /= rho.mean()
    return rho.astype(dtype)


def particle_coordinates(
    count: int,
    box_size: float = 256.0,
    cluster_fraction: float = 0.6,
    n_clusters: int = 64,
    seed=0,
    dtype=np.float32,
) -> np.ndarray:
    """HACC-like 1-D particle coordinate stream.

    A fraction of particles cluster tightly around halo centres and the
    rest are uniform, then the stream is sorted — matching the weakly
    smooth, locally-correlated structure of HACC position snapshots that
    makes them the hardest of the paper's datasets to compress.
    """
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    if not 0.0 <= cluster_fraction <= 1.0:
        raise ValueError(f"cluster_fraction must be in [0, 1], got {cluster_fraction}")
    check_positive(box_size, "box_size")
    if n_clusters <= 0:
        raise ValueError(f"n_clusters must be positive, got {n_clusters}")
    rng = _rng(seed)

    n_clustered = int(round(count * cluster_fraction))
    n_uniform = count - n_clustered

    centers = rng.uniform(0.0, box_size, size=n_clusters)
    assignment = rng.integers(0, n_clusters, size=n_clustered)
    spread = box_size / (8.0 * n_clusters)
    clustered = centers[assignment] + rng.normal(0.0, spread, size=n_clustered)
    uniform = rng.uniform(0.0, box_size, size=n_uniform)

    coords = np.concatenate([clustered, uniform])
    coords = np.mod(coords, box_size)
    coords.sort()
    return coords.astype(dtype)


def vortex_velocity_field(
    shape: Sequence[int],
    component: int = 0,
    swirl: float = 2.0,
    spectral_slope: float = 3.0,
    seed=0,
    dtype=np.float32,
) -> np.ndarray:
    """Hurricane-like velocity component: a swirling vortex plus turbulence.

    Mimics Hurricane-ISABEL U/V/W fields: a large-scale rotational flow
    around the domain centre superposed with a Gaussian random field.
    *component* selects 0=U (x-velocity), 1=V (y-velocity), 2=W
    (vertical, pure turbulence scaled down).
    """
    shape = check_shape_dims(shape, allowed_ndims=(2, 3))
    if component not in (0, 1, 2):
        raise ValueError(f"component must be 0, 1 or 2, got {component}")

    ny, nx = shape[-2], shape[-1]
    y = np.linspace(-1.0, 1.0, ny).reshape(-1, 1)
    x = np.linspace(-1.0, 1.0, nx).reshape(1, -1)
    r2 = x**2 + y**2
    envelope = np.exp(-2.0 * r2)
    if component == 0:
        swirl_field = -swirl * y * envelope
    elif component == 1:
        swirl_field = swirl * x * envelope
    else:
        swirl_field = np.zeros((ny, nx))

    turb = gaussian_random_field(shape, spectral_slope, seed, dtype=np.float64)
    scale = 0.3 if component < 2 else 0.15
    field = turb * scale + swirl_field  # broadcasting over the leading axis
    return field.astype(dtype)
