"""Randomized Fourier feature maps driven by spectral measures.

Frequencies are drawn i.i.d. from the normalized symmetrized measure and
paired with uniform phases; the feature map

    phi(x)_j = sqrt(2 * total_mass / m) * cos(w_j x + b_j)

makes <phi(x), phi(y)> an unbiased Monte Carlo estimate of the kernel
synthesized by the measure.

Reproducibility is part of the contract: all draws come from
``numpy.random.default_rng(seed)`` (PCG64) in a frozen order -- for each
factor of a product measure, component selectors, in-bin positions and
sign coins, then one block of phases, each a block of m uniforms.  A
measure on the line is drawn as the one-factor product.  Identical
(measure, m, seed) triples therefore yield bit-identical samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .measures import SpectralMeasure
from .product import ProductSpectralMeasure
from .spectral import _row_sums, check_elements

__all__ = ["FrequencySample", "sample_frequencies",
           "sample_product_frequencies", "feature_matrix", "approximate_kernel"]

#: 2 pi as three doubles of 30, 30 and 53 significant bits (Cody-Waite):
#: k times each of the first two is exact for |k| < 2**23, so a - 2 pi k
#: keeps a's accuracy
_TWO_PI_PARTS = tuple(map(float.fromhex, ("0x1.921fb548p+2", "-0x1.de973dc8p-29",
                                          "-0x1.9d9cceba3f91fp-60")))
#: Taylor coefficients of cos(r / 2) in z = r**2, highest power first; on
#: |r| <= pi the first one left out is below 2**-56
_HALF_COS = tuple((-1) ** n / (4 ** n * math.factorial(2 * n)) for n in range(10, -1, -1))
#: most turns k an argument may hold before _cos hands it to np.cos
_MAX_TURNS = 2 ** 22


@dataclass(frozen=True)
class FrequencySample:
    """Signed frequency draws plus phases; reproducible from the seed.

    ``frequencies`` has shape (m,) for measures on the line and (m, d)
    for factored product measures.
    """

    frequencies: np.ndarray
    phases: np.ndarray
    total_mass: float
    seed: int

    def __post_init__(self):
        freqs = np.asarray(self.frequencies, dtype=float)
        phases = np.asarray(self.phases, dtype=float)
        if freqs.shape[0] != phases.shape[0] or freqs.shape[0] < 1:
            raise ValueError("frequencies and phases must share a positive length")
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "phases", phases)

    @property
    def m(self) -> int:
        return self.frequencies.shape[0]

    @property
    def dim(self) -> int:
        return 1 if self.frequencies.ndim == 1 else self.frequencies.shape[1]

    def to_dict(self) -> dict:
        return {
            "seed": int(self.seed),
            "total_mass": float(self.total_mass),
            "freqs": self.frequencies.tolist(),
            "phases": self.phases.tolist(),
        }


def _draw_abs_frequencies(mu: SpectralMeasure, u_component, u_position):
    """|frequencies| for the given uniforms, and the two-sided total mass.

    Components, atoms first and then density bins, are selected by their
    two-sided mass; within a bin the position is uniform (the density is
    constant there).
    """
    at_zero = mu.atom_locations == 0.0
    masses = np.concatenate([np.where(at_zero, mu.atom_masses, 2.0 * mu.atom_masses),
                             2.0 * mu.bin_values * mu.bin_widths])
    total = float(np.sum(masses))
    if total <= 0.0:
        raise ValueError("cannot sample from a zero-mass measure")
    cum = np.cumsum(masses / total)
    idx = np.searchsorted(cum, u_component, side="right")
    idx = np.minimum(idx, masses.size - 1)

    n_atoms = mu.atom_locations.size
    freqs = np.empty(u_component.shape[0])
    from_atom = idx < n_atoms
    if np.any(from_atom):
        freqs[from_atom] = mu.atom_locations[idx[from_atom]]
    if np.any(~from_atom):
        bins = idx[~from_atom] - n_atoms
        lo = mu.bin_edges[bins]
        freqs[~from_atom] = lo + u_position[~from_atom] * mu.bin_widths[bins]
    return freqs, total


def sample_frequencies(mu: SpectralMeasure, m: int, seed: int) -> FrequencySample:
    """Draw m signed frequencies and phases from a measure on the line.

    The draw is that of :func:`sample_product_frequencies` on the
    one-factor product of mu, with frequencies as an (m,) array.
    """
    sample = sample_product_frequencies(ProductSpectralMeasure(factors=(mu,)), m, seed)
    return replace(sample, frequencies=sample.frequencies[:, 0])


def sample_product_frequencies(measure: ProductSpectralMeasure, m: int,
                               seed: int) -> FrequencySample:
    """Draw frequency vectors for a factored measure on R^d.

    Coordinates are independent (the measure is a product), drawn factor
    by factor from one stream: component selectors, in-bin positions and
    sign coins, where the sign is a fair coin that realizes the mirrored
    half of the measure.  A single phase block closes the draw.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    check_elements(m * measure.dim, "m x d")
    rng = np.random.default_rng(seed)
    columns = []
    total = 1.0
    for factor in measure.factors:
        u_component = rng.random(m)
        u_position = rng.random(m)
        u_sign = rng.random(m)
        freqs, factor_total = _draw_abs_frequencies(factor, u_component, u_position)
        columns.append(freqs * np.where(u_sign < 0.5, -1.0, 1.0))
        total *= factor_total
    phases = rng.random(m) * (2.0 * np.pi)
    return FrequencySample(frequencies=np.column_stack(columns), phases=phases,
                           total_mass=total, seed=int(seed))


def _points(sample: FrequencySample, x) -> tuple[np.ndarray, bool]:
    """x as an (n, d) array of points, and whether it was a single point.

    A single point is a scalar (d = 1) or a length-d vector; a batch is an
    (n,) array of points on the line or an (n, d) array.
    """
    x = np.asarray(x, dtype=float)
    one = x.ndim == 0 or (x.ndim == 1 and sample.frequencies.ndim == 2)
    if x.ndim > 2:
        raise ValueError(f"points must be a scalar, a vector or an (n, d) array, "
                         f"got shape {x.shape}")
    points = x.reshape(1, -1) if one else x.reshape(x.shape[0], -1)
    if points.shape[1] != sample.dim:
        raise ValueError(f"point has dimension {points.shape[1]}, expected {sample.dim}")
    return points, one


def _projections(sample: FrequencySample, points: np.ndarray) -> np.ndarray:
    """w_j . x for an (n, d) array of points: an (n, m) array."""
    return points @ sample.frequencies.reshape(sample.m, -1).T


def _cos(a: np.ndarray) -> np.ndarray:
    """cos(a), computed in place in a float64 array and returned.

    numpy's float64 cos calls libm once per element; these ~30 whole-array
    passes of plain arithmetic take about half as long on x86-64 (AVX2 or
    AVX-512) and stay within 1e-15 of it.  a = 2 pi k + r with |r| <= pi, and
    cos r = 2 cos(r/2)**2 - 1 with cos(r/2) a Taylor polynomial.
    Arguments past _MAX_TURNS turns go to np.cos.
    """
    k = a * (0.5 / math.pi)
    np.rint(k, out=k)
    if a.size and not (-_MAX_TURNS <= k.min() and k.max() <= _MAX_TURNS):
        return np.cos(a, out=a)
    part_k = np.empty_like(a)
    for part in _TWO_PI_PARTS:
        np.multiply(k, part, out=part_k)
        a -= part_k
    np.multiply(a, a, out=a)
    np.multiply(a, _HALF_COS[0], out=k)
    for c in _HALF_COS[1:-1]:
        k += c
        k *= a
    k += _HALF_COS[-1]
    np.multiply(k, k, out=a)
    a *= 2.0
    a -= 1.0
    return a


def feature_matrix(sample: FrequencySample, x) -> np.ndarray:
    """phi(x): the length-m randomized cosine feature vector of one point."""
    points, _ = _points(sample, x)
    if len(points) != 1:
        raise ValueError(f"feature_matrix takes one point, got {len(points)}")
    scale = np.sqrt(2.0 * sample.total_mass / sample.m)
    return scale * _cos(_projections(sample, points)[0] + sample.phases)


def approximate_kernel(sample: FrequencySample, x, y):
    """<phi(x), phi(y)>: unbiased estimate of the synthesized kernel value.

    x and y are one point each (a scalar or a length-d vector), giving a
    float, or n points each (an (n,) array on the line or an (n, d)
    array), giving the n values of the pairs (x_i, y_i).  A batch is
    evaluated on chunks of pairs (see ``spectral._row_sums``).
    """
    if np.shape(x) != np.shape(y):
        raise ValueError(f"x and y must have the same shape, got {np.shape(x)} "
                         f"and {np.shape(y)}")
    xs, one = _points(sample, x)
    ys, _ = _points(sample, y)
    d, phases = sample.dim, sample.phases

    def rows(pairs):
        cx = _projections(sample, pairs[:, :d])
        cx += phases
        cy = _projections(sample, pairs[:, d:])
        cy += phases
        cx = _cos(cx)
        cx *= _cos(cy)
        return cx.sum(axis=1)

    inner = _row_sums(np.hstack([xs, ys]), sample.m, rows)
    values = 2.0 * sample.total_mass / sample.m * inner
    return float(values[0]) if one else values
