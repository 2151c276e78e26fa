"""Randomized Fourier feature maps driven by spectral measures.

Frequencies are drawn i.i.d. from the normalized symmetrized measure and
paired with uniform phases; the feature map

    phi(x)_j = sqrt(2 * total_mass / m) * cos(w_j x + b_j)

makes <phi(x), phi(y)> an unbiased Monte Carlo estimate of the kernel
synthesized by the measure.

Reproducibility is part of the contract: all draws come from
``numpy.random.default_rng(seed)`` (PCG64) in a frozen order -- component
selectors, in-bin positions, sign coins, then phases, each a block of m
uniforms (for product sampling, the three per-factor blocks come first,
factor by factor, then one block of phases).  Identical (measure, m,
seed) triples therefore yield bit-identical samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import SpectralMeasure
from .product import ProductSpectralMeasure
from .spectral import check_elements

__all__ = ["FrequencySample", "sample_frequencies",
           "sample_product_frequencies", "feature_matrix", "approximate_kernel"]


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

    @classmethod
    def from_dict(cls, data: dict) -> "FrequencySample":
        return cls(frequencies=np.asarray(data["freqs"], dtype=float),
                   phases=np.asarray(data["phases"], dtype=float),
                   total_mass=float(data["total_mass"]),
                   seed=int(data["seed"]))


def _component_table(mu: SpectralMeasure):
    """Two-sided component masses: atoms first, then density bins."""
    at_zero = mu.atom_locations == 0.0
    atom_masses = np.where(at_zero, mu.atom_masses, 2.0 * mu.atom_masses)
    bin_masses = 2.0 * mu.bin_values * mu.bin_widths
    masses = np.concatenate([atom_masses, bin_masses])
    total = float(np.sum(masses))
    return masses, total


def _draw_abs_frequencies(mu: SpectralMeasure, u_component, u_position) -> np.ndarray:
    masses, total = _component_table(mu)
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
    return freqs


def sample_frequencies(mu: SpectralMeasure, m: int, seed: int) -> FrequencySample:
    """Draw m signed frequencies and phases from a measure on the line.

    Atoms are selected categorically by two-sided mass; within a density
    bin the position is uniform (the density is constant there); the sign
    is a fair coin, which realizes the mirrored half of the measure.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    check_elements(m, "m")
    rng = np.random.default_rng(seed)
    u_component = rng.random(m)
    u_position = rng.random(m)
    u_sign = rng.random(m)
    phases = rng.random(m) * (2.0 * np.pi)

    freqs = _draw_abs_frequencies(mu, u_component, u_position)
    freqs = freqs * np.where(u_sign < 0.5, -1.0, 1.0)
    _, total = _component_table(mu)
    return FrequencySample(frequencies=freqs, phases=phases,
                           total_mass=total, seed=int(seed))


def sample_product_frequencies(measure: ProductSpectralMeasure, m: int,
                               seed: int) -> FrequencySample:
    """Draw frequency vectors for a factored measure on R^d.

    Coordinates are independent (the measure is a product), drawn factor
    by factor from one stream; a single phase block closes the draw.
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
        freqs = _draw_abs_frequencies(factor, u_component, u_position)
        columns.append(freqs * np.where(u_sign < 0.5, -1.0, 1.0))
        _, factor_total = _component_table(factor)
        total *= factor_total
    phases = rng.random(m) * (2.0 * np.pi)
    return FrequencySample(frequencies=np.column_stack(columns), phases=phases,
                           total_mass=total, seed=int(seed))


def _projections(sample: FrequencySample, x) -> np.ndarray:
    if sample.frequencies.ndim == 1:
        x = float(np.asarray(x, dtype=float))
        return sample.frequencies * x
    x = np.asarray(x, dtype=float).ravel()
    if x.size != sample.dim:
        raise ValueError(f"point has dimension {x.size}, expected {sample.dim}")
    return sample.frequencies @ x


def feature_matrix(sample: FrequencySample, x) -> np.ndarray:
    """phi(x): the length-m randomized cosine feature vector."""
    scale = np.sqrt(2.0 * sample.total_mass / sample.m)
    return scale * np.cos(_projections(sample, x) + sample.phases)


def approximate_kernel(sample: FrequencySample, x, y) -> float:
    """<phi(x), phi(y)>: unbiased estimate of the synthesized kernel value."""
    inner = np.cos(_projections(sample, x) + sample.phases) \
        @ np.cos(_projections(sample, y) + sample.phases)
    return float(2.0 * sample.total_mass / sample.m * inner)
