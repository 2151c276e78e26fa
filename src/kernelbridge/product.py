"""Separable kernels on R^d and their factored spectral measures.

A separable kernel is a product of one-dimensional translation-invariant
factors, K(x, y) = prod_i k_i(x_i - y_i); its spectral measure is the
product of the factor measures and is stored factored, never materialized
as a d-dimensional grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import SpectralMeasure, _in_range, _numbers
from .spectral import bochner_synthesis

__all__ = ["SeparableKernel", "ProductSpectralMeasure",
           "separable_eval", "product_synthesis"]


@dataclass(frozen=True)
class _Factors:
    """A non-empty tuple of one-dimensional factors, one per coordinate."""

    factors: tuple

    def __post_init__(self):
        factors = tuple(self.factors)
        if len(factors) < 1:
            raise ValueError("need at least one factor")
        object.__setattr__(self, "factors", factors)

    @property
    def dim(self) -> int:
        return len(self.factors)


class SeparableKernel(_Factors):
    """Product kernel with one KernelProfile per coordinate."""


class ProductSpectralMeasure(_Factors):
    """Factored product of one-dimensional SpectralMeasure factors."""

    def __post_init__(self):
        super().__post_init__()
        _in_range(self.total_mass, "product measure total mass")

    def total_mass(self) -> float:
        out = 1.0
        for factor in self.factors:
            out *= factor.total_mass()
        return out

    def to_dict(self) -> dict:
        return {"factors": [factor.to_dict() for factor in self.factors]}

    @classmethod
    def from_dict(cls, data: dict) -> "ProductSpectralMeasure":
        """Read the layout :meth:`to_dict` writes; ValueError for any other."""
        if not isinstance(data, dict) or not isinstance(data.get("factors"), list):
            raise ValueError('a product measure must be a JSON object '
                             '{"factors": [measure, ...]}')
        return cls(factors=tuple(SpectralMeasure.from_dict(f)
                                 for f in data["factors"]))


def _check_dim(expected: int, vec, name: str) -> np.ndarray:
    vec = _numbers(vec, name).ravel()
    if vec.size != expected:
        raise ValueError(f"{name} has dimension {vec.size}, expected {expected}")
    return vec


def separable_eval(kernel: SeparableKernel, x, y) -> float:
    """Evaluate a separable kernel at a pair of d-vectors."""
    x = _check_dim(kernel.dim, x, "x")
    y = _check_dim(kernel.dim, y, "y")
    out = 1.0
    for profile, xi, yi in zip(kernel.factors, x, y):
        out *= float(profile(xi - yi))
    return out


def product_synthesis(measure: ProductSpectralMeasure, t):
    """Kernel value synthesized from a factored measure at lag vector t.

    t is one lag vector of length d, giving a float, or an (n, d) array of
    lag vectors, giving n values from one :func:`bochner_synthesis` call
    per factor.
    """
    lags = _numbers(t, "t")
    one = lags.ndim < 2
    if one:
        lags = _check_dim(measure.dim, lags, "t")[None]
    elif lags.ndim > 2 or lags.shape[1] != measure.dim:
        raise ValueError(f"t must be a lag vector of length {measure.dim} or an "
                         f"(n, {measure.dim}) array, got shape {lags.shape}")
    out = np.ones(lags.shape[0])
    for factor, column in zip(measure.factors, lags.T):
        out *= bochner_synthesis(factor, column)
    return float(out[0]) if one else out
