"""Measure representations: atoms plus a piecewise-constant density.

:class:`SpectralMeasure` stores the one-sided half of a symmetric bounded
positive measure on the real line.  An atom at frequency 0 carries its
full (two-sided) mass; every component at tau > 0 stands for the mirrored
pair at +-tau, so the synthesized kernel is

    k(t) = m0 + sum_{tau>0 atoms} 2 m cos(t tau)
              + integral over bins of 2 cos(t tau) * value d(tau)

and k(0) equals the two-sided total mass exactly.

:class:`GammaMeasure` stores a non-decreasing weight on (0, inf) the same
way (atoms strictly above 0 plus binned density values).  Its ``law``
says how a bin value v reads as the derivative d(gamma)/ds: ``"constant"``
holds v on the bin, ``"s2"`` means v s^2.  The s^2 law is what a constant
spectral bin becomes under the change of variables s = tau/2, so converted
measures are stored exactly.  A gamma measure may be unbounded under the
quadratic-decay integral; that is what separates metrics with and without
a bounded kernel.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = [
    "SpectralMeasure",
    "GammaMeasure",
    "gaussian_measure",
    "laplacian_measure",
    "cauchy_measure",
    "cosine_measure",
    "constant_measure",
]

SQRT_2PI = np.sqrt(2.0 * np.pi)


def _normalize_atoms(atoms, allow_zero_location: bool, what: str):
    locs, masses = [], []
    for pair in atoms:
        loc, mass = pair
        locs.append(float(loc))
        masses.append(float(mass))
    locs = np.asarray(locs, dtype=float)
    masses = np.asarray(masses, dtype=float)
    if locs.size:
        if not np.all(np.isfinite(locs)) or not np.all(np.isfinite(masses)):
            raise ValueError(f"{what} atoms must be finite")
        if np.any(masses < 0):
            raise ValueError(f"{what} atom masses must be >= 0")
        if allow_zero_location:
            if np.any(locs < 0):
                raise ValueError(f"{what} atom locations must be >= 0")
        elif np.any(locs <= 0):
            raise ValueError(f"{what} has no discrete component at 0: "
                             "atom locations must be > 0")
    order = np.argsort(locs, kind="stable")
    return locs[order], masses[order]


def _normalize_density(edges, values, what: str):
    edges = np.asarray(edges, dtype=float).ravel()
    values = np.asarray(values, dtype=float).ravel()
    if edges.size == 0 and values.size == 0:
        return edges, values
    if edges.size != values.size + 1:
        raise ValueError(f"{what} density needs len(edges) == len(values) + 1")
    if not np.all(np.isfinite(edges)) or not np.all(np.isfinite(values)):
        raise ValueError(f"{what} density must be finite")
    if edges[0] < 0:
        raise ValueError(f"{what} density edges must be >= 0")
    if np.any(np.diff(edges) <= 0):
        raise ValueError(f"{what} density edges must be strictly increasing")
    if np.any(values < 0):
        raise ValueError(f"{what} density values must be >= 0")
    return edges, values


def _json_number(value, what: str, finite: bool = False) -> float:
    """A JSON number (a finite one if ``finite``) as a float; ValueError for any other value."""
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        try:
            number = float(value)
        except OverflowError:  # an integer past float range
            pass
        else:
            if not finite or math.isfinite(number):
                return number
    raise ValueError(f"{what} must be a {'finite ' if finite else ''}number, got {value!r}")


def _json_numbers(values, what: str) -> np.ndarray:
    """A JSON list of numbers as a 1-d float array; ValueError for anything else.

    A list holding strings, nulls, objects or integers past 64 bits gets a
    non-numeric dtype from numpy, and a nested list more than one dimension.
    """
    array = None
    if isinstance(values, (list, tuple)):
        try:
            array = np.asarray(values)
        except ValueError:  # ragged nesting
            pass
    if array is None or array.ndim != 1 or (array.size and array.dtype.kind not in "iuf"):
        raise ValueError(f"{what} must be a list of numbers")
    return array.astype(float)


class _BinnedMeasure:
    """Shared storage/serialization for atoms + binned density."""

    _what = "measure"
    _allow_zero_atom = True
    #: density laws this kind of measure may carry; the first is the default
    _laws = ("constant",)

    def __init__(self, atoms=(), edges=(), values=(), law="constant"):
        if law not in self._laws:
            raise ValueError(f"{self._what} density law must be one of "
                             f"{self._laws}, got {law!r}")
        self.atom_locations, self.atom_masses = _normalize_atoms(
            atoms, self._allow_zero_atom, self._what)
        self.bin_edges, self.bin_values = _normalize_density(edges, values, self._what)
        self.law = law

    @property
    def atoms(self) -> list[tuple[float, float]]:
        return list(zip(self.atom_locations.tolist(), self.atom_masses.tolist()))

    @property
    def bin_widths(self) -> np.ndarray:
        if self.bin_edges.size == 0:
            return np.zeros(0)
        return np.diff(self.bin_edges)

    def density_at(self, tau: float) -> float:
        """Density at tau under the measure's law (0 outside all bins)."""
        tau = float(tau)
        if self.bin_edges.size == 0 or tau < self.bin_edges[0] or tau > self.bin_edges[-1]:
            return 0.0
        idx = int(np.searchsorted(self.bin_edges, tau, side="right")) - 1
        idx = min(max(idx, 0), self.bin_values.size - 1)
        value = float(self.bin_values[idx])
        return value * tau ** 2 if self.law == "s2" else value

    def to_dict(self) -> dict:
        density = {"edges": self.bin_edges.tolist(), "values": self.bin_values.tolist()}
        if self.law != "constant":
            density["law"] = self.law
        return {
            "atoms": [{"loc": float(l), "mass": float(m)}
                      for l, m in zip(self.atom_locations, self.atom_masses)],
            "density": density,
        }

    @classmethod
    def from_dict(cls, data: dict):
        """Read the layout :meth:`to_dict` writes; ValueError for any other."""
        what = cls._what
        if not isinstance(data, dict):
            raise ValueError(f"{what} must be a JSON object, got {type(data).__name__}")
        atoms = data.get("atoms", [])
        density = data.get("density", {})
        if not isinstance(atoms, list) or not all(isinstance(a, dict) for a in atoms):
            raise ValueError(f'{what} atoms must be a list of {{"loc", "mass"}} objects')
        if not isinstance(density, dict):
            raise ValueError(f"{what} density must be a JSON object")
        return cls(atoms=[(_json_number(a.get("loc"), f"{what} atom loc"),
                           _json_number(a.get("mass"), f"{what} atom mass"))
                          for a in atoms],
                   edges=_json_numbers(density.get("edges", []), f"{what} density edges"),
                   values=_json_numbers(density.get("values", []),
                                        f"{what} density values"),
                   law=density.get("law", "constant"))

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return (self.law == other.law
                and np.array_equal(self.atom_locations, other.atom_locations)
                and np.array_equal(self.atom_masses, other.atom_masses)
                and np.array_equal(self.bin_edges, other.bin_edges)
                and np.array_equal(self.bin_values, other.bin_values))

    def __repr__(self):
        return (f"{type(self).__name__}(n_atoms={self.atom_locations.size}, "
                f"n_bins={self.bin_values.size})")


class SpectralMeasure(_BinnedMeasure):
    """One-sided representation of a symmetric bounded positive measure."""

    _what = "spectral measure"
    _allow_zero_atom = True

    def __init__(self, atoms=(), edges=(), values=(), law="constant"):
        super().__init__(atoms, edges, values, law)
        with np.errstate(over="ignore", invalid="ignore"):  # a Bochner measure is finite
            total = self.total_mass()
        if not math.isfinite(total):
            raise ValueError(f"{self._what} total mass overflows: {total!r}")

    @property
    def zero_atom(self) -> float:
        """Mass of the atom at frequency 0 (the constant offset of the kernel)."""
        at_zero = self.atom_locations == 0.0
        return float(np.sum(self.atom_masses[at_zero]))

    def total_mass(self) -> float:
        """Two-sided total mass; equals the synthesized kernel at 0."""
        at_zero = self.atom_locations == 0.0
        atom_part = np.sum(self.atom_masses[at_zero]) + 2.0 * np.sum(self.atom_masses[~at_zero])
        return float(atom_part + 2.0 * np.sum(self.bin_values * self.bin_widths))

    def positive_part(self):
        """Atoms and density strictly above frequency 0 (one-sided masses)."""
        pos = self.atom_locations > 0.0
        return (self.atom_locations[pos], self.atom_masses[pos],
                self.bin_edges, self.bin_values)


class GammaMeasure(_BinnedMeasure):
    """Non-decreasing weight on (0, inf) as atoms plus binned density.

    ``law="s2"`` reads a bin value v as the density v s^2 (see the module
    docstring); the default ``"constant"`` reads it as v.
    """

    _what = "gamma measure"
    _allow_zero_atom = False
    _laws = ("constant", "s2")

    def alpha(self, tau: float) -> float:
        """Partial quadratic-decay integral of s^-2 d(gamma) over (0, tau].

        Exact for both laws.  Returns inf when a constant-law bin with
        positive value touches 0; an s^2-law bin integrates to v (d - c).
        """
        tau = float(tau)
        pos = (self.atom_locations > 0.0) & (self.atom_locations <= tau)
        total = float(np.sum(self.atom_masses[pos] / self.atom_locations[pos] ** 2))
        if self.bin_edges.size:
            lo = self.bin_edges[:-1]
            hi = np.minimum(self.bin_edges[1:], tau)
            active = hi > lo
            lo, hi, vals = lo[active], hi[active], self.bin_values[active]
            if self.law == "s2":
                return total + float(np.sum(vals * (hi - lo)))
            touches_zero = (lo == 0.0) & (vals > 0)
            if np.any(touches_zero):
                return float("inf")
            keep = (lo > 0.0) & (vals > 0)
            total += float(np.sum(vals[keep] * (1.0 / lo[keep] - 1.0 / hi[keep])))
        return total


def gaussian_measure(n_bins: int = 2048, freq_max: float = 8.0,
                     scale: float = 1.0) -> SpectralMeasure:
    """Binned closed-form measure of the Gaussian kernel exp(-t^2/(2 scale^2))."""
    edges = np.linspace(0.0, freq_max, n_bins + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    values = scale * np.exp(-(scale * mid) ** 2 / 2.0) / SQRT_2PI
    return SpectralMeasure(edges=edges, values=values)


def laplacian_measure(n_bins: int = 2048, freq_max: float = 8.0,
                      scale: float = 1.0) -> SpectralMeasure:
    """Binned closed-form measure of exp(-|t|/scale): a Cauchy-shaped density."""
    edges = np.linspace(0.0, freq_max, n_bins + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    values = (scale / np.pi) / (1.0 + (scale * mid) ** 2)
    return SpectralMeasure(edges=edges, values=values)


def cauchy_measure(n_bins: int = 2048, freq_max: float = 8.0,
                   scale: float = 1.0) -> SpectralMeasure:
    """Binned closed-form measure of 2/(1+(t/scale)^2): an exponential density."""
    edges = np.linspace(0.0, freq_max, n_bins + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    values = scale * np.exp(-scale * mid)
    return SpectralMeasure(edges=edges, values=values)


def cosine_measure(omega: float = 1.0) -> SpectralMeasure:
    """Atomic measure of cos(omega t): one-sided mass 1/2 at omega."""
    if omega <= 0:
        raise ValueError("omega must be > 0")
    return SpectralMeasure(atoms=[(float(omega), 0.5)])


def constant_measure(value: float = 1.0) -> SpectralMeasure:
    """Atomic measure of the constant kernel: mass `value` at frequency 0."""
    if value < 0:
        raise ValueError("value must be >= 0")
    return SpectralMeasure(atoms=[(0.0, float(value))])
