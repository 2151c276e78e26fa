"""Randomized Fourier feature maps driven by spectral measures.

Frequencies are drawn i.i.d. from the normalized symmetrized measure and
paired with uniform phases; the feature map

    phi(x)_j = sqrt(2 * total_mass / m) * cos(w_j x + b_j)

makes <phi(x), phi(y)> an unbiased Monte Carlo estimate of the kernel
synthesized by the measure.

Reproducibility is part of the contract: all draws come from one stream,
numpy's PCG64 under ``SeedSequence(seed)``, in a frozen order -- for each
factor of a product measure, component selectors, in-bin positions and
sign coins, then one block of phases, each a block of m uniforms.  The
stream is computed in the package (``_pcg64``) and equals
``numpy.random.default_rng(seed).random`` bit for bit (tested), so samples
do not depend on numpy's ``Generator`` code, and sampling does not import
``numpy.random``.  A measure on the line is drawn as the one-factor
product.  Identical (measure, m, seed) triples therefore yield
bit-identical samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .measures import (SpectralMeasure, _count, _in_range, _number, _numbers, _scaled,
                       check_elements)
from .product import ProductSpectralMeasure
from .spectral import _chunk_rows, _row_sums

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
#: most turns k an argument may hold before _cosines hands it to np.cos
_MAX_TURNS = 2 ** 22


@dataclass(frozen=True, eq=False)
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
        freqs = _numbers(self.frequencies, "frequencies")
        phases = _numbers(self.phases, "phases")
        if freqs.shape[0] != phases.shape[0] or freqs.shape[0] < 1:
            raise ValueError("frequencies and phases must share a positive length")
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "phases", phases)
        object.__setattr__(self, "total_mass", _number(self.total_mass, "total_mass", 0,
                                                       above=True))
        object.__setattr__(self, "seed", _count(self.seed, "seed", 0))

    @property
    def m(self) -> int:
        return self.frequencies.shape[0]

    @property
    def dim(self) -> int:
        return 1 if self.frequencies.ndim == 1 else self.frequencies.shape[1]

    def to_dict(self) -> dict:
        """The sample file's fields; ``freqs`` and ``phases`` are the record's own
        arrays, which ``io.write_json`` writes a piece at a time."""
        return {
            "seed": self.seed,
            "total_mass": self.total_mass,
            "freqs": self.frequencies,
            "phases": self.phases,
        }


def _draw_abs_frequencies(mu: SpectralMeasure, u_component, u_position):
    """|frequencies| for the given uniforms, and the two-sided total mass.

    Components, atoms first and then density bins, are selected by their
    two-sided masses (``SpectralMeasure.component_masses``); within a bin
    the position is uniform (the density is constant there).
    """
    masses, total = mu.component_masses(), mu.total_mass()
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
    m, seed = _count(m, "m", 1), _count(seed, "seed", 0)
    check_elements(m * measure.dim, "m x d")
    from ._pcg64 import _uniforms  # compiled only by the commands that sample

    random = _uniforms(seed)
    columns = []
    total = 1.0
    for factor in measure.factors:
        u_component = random(m)
        u_position = random(m)
        u_sign = random(m)
        freqs, factor_total = _draw_abs_frequencies(factor, u_component, u_position)
        columns.append(freqs * np.where(u_sign < 0.5, -1.0, 1.0))
        total *= factor_total
    phases = random(m) * (2.0 * np.pi)
    return FrequencySample(frequencies=np.column_stack(columns), phases=phases,
                           total_mass=total, seed=seed)


def _points(sample: FrequencySample, x: np.ndarray) -> tuple[np.ndarray, bool]:
    """x, read by _numbers, as an (n, d) array of points, and whether it was a
    single point.

    A single point is a scalar (d = 1) or a length-d vector; a batch is an
    (n,) array of points on the line or an (n, d) array.
    """
    one = x.ndim == 0 or (x.ndim == 1 and sample.frequencies.ndim == 2)
    if x.ndim > 2:
        raise ValueError(f"points must be a scalar, a vector or an (n, d) array, "
                         f"got shape {x.shape}")
    points = x.reshape(1, -1) if one else x if x.ndim == 2 else x[:, None]
    if points.shape[1] != sample.dim:
        raise ValueError(f"point has dimension {points.shape[1]}, expected {sample.dim}")
    return points, one


def _cosines(sample: FrequencySample, points: np.ndarray, out: np.ndarray,
             work: np.ndarray) -> np.ndarray:
    """cos(w_j . x + b_j) for an (n, d) array of points, written into the (n, m)
    array out and returned; work holds two more (n, m) arrays.

    numpy's float64 cos calls libm once per element; these ~30 whole-array
    passes of plain arithmetic take about half as long on x86-64 (AVX2 or
    AVX-512) and stay within 1e-15 of it.  a = 2 pi k + r with |r| <= pi, and
    cos r = 2 cos(r/2)**2 - 1 with cos(r/2) a Taylor polynomial.
    Arguments past _MAX_TURNS turns go to np.cos.
    """
    freqs = sample.frequencies.reshape(sample.m, -1)
    if freqs.shape[1] == 1:  # the same products; a K = 1 matmul costs ~8x more
        np.multiply(points, freqs[:, 0], out=out)
    else:
        np.matmul(points, freqs.T, out=out)
    out += sample.phases
    k, part_k = work
    np.multiply(out, 0.5 / math.pi, out=k)
    np.rint(k, out=k)
    if out.size and not (-_MAX_TURNS <= k.min() and k.max() <= _MAX_TURNS):
        return np.cos(out, out=out)
    for part in _TWO_PI_PARTS:
        np.multiply(k, part, out=part_k)
        out -= part_k
    np.multiply(out, out, out=out)
    np.multiply(out, _HALF_COS[0], out=k)
    for c in _HALF_COS[1:-1]:
        k += c
        k *= out
    k += _HALF_COS[-1]
    np.multiply(k, k, out=out)
    out *= 2.0
    out -= 1.0
    return out


def feature_matrix(sample: FrequencySample, x) -> np.ndarray:
    """phi(x): the length-m randomized cosine feature vector of one point."""
    points, _ = _points(sample, _numbers(x, "points"))
    if len(points) != 1:
        raise ValueError(f"feature_matrix takes one point, got {len(points)}")
    # a cosine is NaN exactly where its projection w . x went past the float range
    block = np.empty((3, 1, sample.m))
    features = _in_range(lambda: _cosines(sample, points, block[0], block[1:])[0],
                         "a point times a frequency")
    back, mass = _scaled(sample.total_mass)
    return back(np.sqrt(2.0 * mass / sample.m) * features,
                "a feature sqrt(2 total_mass / m) cos(w x + b)", degree=0.5)


def approximate_kernel(sample: FrequencySample, x, y):
    """<phi(x), phi(y)>: unbiased estimate of the synthesized kernel value.

    x and y are one point each (a scalar or a length-d vector), giving a
    float, or n points each (an (n,) array on the line or an (n, d)
    array), giving the n values of the pairs (x_i, y_i).  A batch is
    evaluated on chunks of pairs (see ``spectral._row_sums``).
    """
    x, y = _numbers(x, "points"), _numbers(y, "points")
    if x.shape != y.shape:
        raise ValueError(f"x and y must have the same shape, got {x.shape} and {y.shape}")
    xs, one = _points(sample, x)
    ys, _ = _points(sample, y)
    r, m = min(len(xs), _chunk_rows(sample.m)), sample.m
    buf = np.empty(6 * r * m + 8)  # (3, 2r, m) floats from the first 64-byte boundary
    block = buf[-buf.ctypes.data % 64 // 8:][:6 * r * m].reshape(3, 2 * r, m)

    def rows(pairs):
        out, *work = block[:, :2 * len(pairs)]
        cx, cy = np.split(_cosines(sample, np.vstack(np.hsplit(pairs, 2)), out, work), 2)
        cx *= cy
        return cx.sum(axis=1)

    inner = _in_range(lambda: _row_sums(np.hstack([xs, ys]), sample.m, rows),
                      "a point times a frequency")
    back, mass = _scaled(sample.total_mass)
    values = back(2.0 * mass / sample.m * inner, "an estimate 2 total_mass / m <phi(x), phi(y)>")
    return float(values[0]) if one else values
