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

Every bin grid the library builds, for the closed-form measures here and
for ``bochner_inversion``, comes from :func:`frequency_grid`: edges j w,
j = 0 .. n, of one float width w, with top edge n w <= freq_max.  So the
widths are equal bit for bit at every bin count, and the syntheses take
their angle split on them; only measures read from files whose widths
differ take the dense table.

Every scalar parameter of the library is read by :func:`_number` or
:func:`_count`, the one rule of what a valid scalar is, and every array it
reads as data (lags, points, matrices, atoms, bins, frequency samples) by
:func:`_numbers`, the one rule of what a valid array is.  The arguments of
profile and kernel call operators, which may hold +-inf, are read by
:func:`_reals`, the same rule without the finite check.  A value the
library computes from them is checked by :func:`_in_range`, the one rule
of what a value past the float range is: a ValueError, never an inf, a NaN
or a numpy warning.  The inputs being finite, a value that is not went
past the range on the way.
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
    "frequency_grid",
    "MAX_ELEMENTS",
    "check_elements",
]

SQRT_2PI = np.sqrt(2.0 * np.pi)
#: default bin count and frequency range of binned measures, closed-form or inverted
N_BINS = 2048
FREQ_MAX = 8.0
#: most float64 values one array may hold (2**24: 128 MiB); a size that
#: would need more is rejected before anything is allocated
MAX_ELEMENTS = 2 ** 24


def check_elements(count, what: str) -> None:
    """Raise ValueError when ``what`` needs more than MAX_ELEMENTS array elements."""
    if not count <= MAX_ELEMENTS:
        shown = count if count < 1e308 else math.inf  # an int past the float range
        raise ValueError(f"{what} needs {shown:.4g} array elements, "
                         f"over the budget of {MAX_ELEMENTS}")


def _normalize_atoms(atoms, allow_zero_location: bool, what: str):
    pairs = _numbers(list(atoms), f"{what} atoms")
    if pairs.size and (pairs.ndim != 2 or pairs.shape[1] != 2):
        raise ValueError(f"{what} atoms must be (location, mass) pairs")
    locs, masses = pairs.reshape(-1, 2).T
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
    edges = _numbers(edges, f"{what} density edges")
    values = _numbers(values, f"{what} density values")
    if edges.ndim != 1 or values.ndim != 1:
        raise ValueError(f"{what} density edges and values must be 1-d")
    if edges.size == 0 and values.size == 0:
        return edges, values
    if edges.size != values.size + 1:
        raise ValueError(f"{what} density needs len(edges) == len(values) + 1")
    if edges[0] < 0:
        raise ValueError(f"{what} density edges must be >= 0")
    if np.any(np.diff(edges) <= 0):
        raise ValueError(f"{what} density edges must be strictly increasing")
    if np.any(values < 0):
        raise ValueError(f"{what} density values must be >= 0")
    return edges, values


def _number(value, what: str, low: float = -math.inf, above: bool = False) -> float:
    """A finite real >= low (> low if ``above``), not a bool, as a float; else ValueError."""
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        try:
            number = float(value)
        except OverflowError:  # an integer past the float range
            pass
        else:
            if math.isfinite(number) and (number > low if above else number >= low):
                return number
    raise ValueError(f"{what} must be a finite number{_bound(low, above)}, got {value!r}")


def _count(value, what: str, low: float = -math.inf) -> int:
    """An integer >= low, not a bool, as an int; else ValueError."""
    if not isinstance(value, bool) and isinstance(value, numbers.Integral) and value >= low:
        return int(value)
    raise ValueError(f"{what} must be an integer{_bound(low, False)}, got {value!r}")


def _bound(low, above: bool) -> str:
    """The bound in the messages of _number and _count: '', ' >= low' or ' > low'."""
    return "" if low == -math.inf else f" {'>' if above else '>='} {low:g}"


def _reals(values, what: str) -> np.ndarray:
    """Real numbers, +-inf and NaN included, in any rectangular nesting, as a
    float64 array of its shape; else ValueError.

    numpy gives bools, strings, None, objects, complex numbers, datetimes and
    integers past 64 bits a dtype kind other than i, u and f.  A bool among
    numbers it upcasts, so the leaves of a list or tuple are searched once.
    """
    try:
        array = np.asarray(values)
    except ValueError:  # ragged nesting
        array = None
    if array is None or array.dtype.kind not in "iuf" or isinstance(values, (list, tuple)) \
            and {bool, np.bool_} & set(map(type, np.asarray(values, dtype=object).flat)):
        raise ValueError(f"{what} must be real numbers")
    return np.asarray(array, dtype=float)


def _numbers(values, what: str) -> np.ndarray:
    """Finite real numbers: what _reals reads, with no NaN or +-inf; else ValueError."""
    array = _reals(values, what)
    if not np.isfinite(array).all():
        raise ValueError(f"{what} must be finite")
    return array


def _in_range(compute, what: str | None):
    """``compute()``, run with numpy's overflow, invalid and divide warnings off; unless
    what is None, ValueError ``<what> overflows the float range`` if a value is not finite."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        value = compute()
    if what is not None and not np.isfinite(value).all():
        raise ValueError(f"{what} overflows the float range")
    return value


def _scaled(*values):
    """``(back, *scaled)``: the values times 2**-e, e the frexp exponent of the largest
    magnitude rounded up to even, and ``back(value, what=None, degree=1)``, a result of
    degree 1 or 1/2 in them times 2**(degree e) through _in_range.  A homogeneous transform
    keeps its bits on them unless a value below the largest times 2**-1020 turns subnormal."""
    top = max((float(np.max(np.abs(v), initial=0.0)) for v in values), default=0.0)
    exponent = int(np.frexp(top)[1])
    exponent += exponent % 2

    def back(value, what=None, degree=1):
        return _in_range(lambda: np.ldexp(value, int(degree * exponent)), what)

    return back, *(np.ldexp(v, -exponent) for v in values)


def _tau(tau) -> float:
    """A frequency argument: +-inf, or a finite number read by _number."""
    return float(tau) if tau in (math.inf, -math.inf) else _number(tau, "tau")


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
    def bin_widths(self) -> np.ndarray:
        return np.diff(self.bin_edges)

    def density_at(self, tau: float) -> float:
        """Density at tau under the measure's law (0 outside all bins, +-inf included)."""
        tau = _tau(tau)
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
        return cls(atoms=[(_number(a.get("loc"), f"{what} atom loc"),
                           _number(a.get("mass"), f"{what} atom mass"))
                          for a in atoms],
                   edges=density.get("edges", []), values=density.get("values", []),
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

    def __init__(self, atoms=(), edges=(), values=(), law="constant"):
        super().__init__(atoms, edges, values, law)
        _in_range(self.total_mass, f"{self._what} total mass")  # a Bochner measure is finite

    @property
    def zero_atom(self) -> float:
        """Mass of the atom at frequency 0 (the constant offset of the kernel)."""
        at_zero = self.atom_locations == 0.0
        return float(np.sum(self.atom_masses[at_zero]))

    def component_masses(self) -> np.ndarray:
        """Two-sided mass of each component: the atoms, then the bins.

        An atom at 0 is its own mirror image and counts once; every other
        component counts for the pair at +-tau.
        """
        at_zero = self.atom_locations == 0.0
        return np.concatenate([np.where(at_zero, 1.0, 2.0) * self.atom_masses,
                               2.0 * (self.bin_values * self.bin_widths)])

    def total_mass(self) -> float:
        """Two-sided total mass, the sum of the component masses; equals the
        synthesized kernel at 0."""
        return float(np.sum(self.component_masses()))

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

    @np.errstate(over="ignore")  # an integral past the float range is inf
    def alpha(self, tau: float) -> float:
        """Partial quadratic-decay integral of s^-2 d(gamma) over (0, tau].

        Exact for both laws.  Returns inf when a constant-law bin with
        positive value touches 0; an s^2-law bin integrates to v (d - c).
        An atom's m/s^2 is formed as (m/s)/s, never through s^2, which
        underflows below s ~ 1e-154.  ``alpha(inf)`` is the whole integral.
        """
        tau = _tau(tau)
        pos = (self.atom_locations > 0.0) & (self.atom_locations <= tau)
        locs = self.atom_locations[pos]
        total = float(np.sum(self.atom_masses[pos] / locs / locs))
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


def _bin_width(n_bins, freq_max) -> float:
    """freq_max / n_bins truncated to 52 - n_bins.bit_length() significant bits.

    Then j w and (2 j + 1) w fit in 53 bits for every j <= n_bins.
    ValueError for an n_bins that is not an integer >= 1, a freq_max that is
    not a finite number > 0, and n_bins + 1 edges over the element budget.
    """
    n_bins = _count(n_bins, "n_bins", 1)
    freq_max = _number(freq_max, "freq_max", 0, above=True)
    check_elements(n_bins + 1, "n_bins + 1 bin edges")
    bits = 52 - n_bins.bit_length()
    mant, exp = math.frexp(freq_max / n_bins)
    return math.ldexp(math.floor(math.ldexp(mant, bits)), exp - bits)


def frequency_grid(n_bins: int, freq_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Edges j w (j = 0 .. n_bins) and centres (j + 1/2) w of n_bins bins.

    Each is the exact multiple of the one float width w of _bin_width, so
    the widths are equal bit for bit at every bin count, and the top edge
    n_bins w is at most freq_max, short of it by less than
    freq_max 2**(n_bins.bit_length() - 51).  At the defaults w = 2**-8.
    """
    width = _bin_width(n_bins, freq_max)
    j = np.arange(int(n_bins) + 1.0)
    return j * width, (j[:-1] + 0.5) * width


def _binned_measure(n_bins, freq_max, scale, density) -> SpectralMeasure:
    """The bins of :func:`frequency_grid`, each valued ``density`` at its centre.

    ``scale`` is the density's, checked to be a finite number > 0.
    """
    _number(scale, "scale", 0, above=True)
    edges, centres = frequency_grid(n_bins, freq_max)
    return SpectralMeasure(edges=edges, values=density(centres))


def gaussian_measure(n_bins: int = N_BINS, freq_max: float = FREQ_MAX,
                     scale: float = 1.0) -> SpectralMeasure:
    """Binned closed-form measure of the Gaussian kernel exp(-t^2/(2 scale^2))."""
    return _binned_measure(n_bins, freq_max, scale, lambda mid: (
        scale * np.exp(-(scale * mid) ** 2 / 2.0) / SQRT_2PI))


def laplacian_measure(n_bins: int = N_BINS, freq_max: float = FREQ_MAX,
                      scale: float = 1.0) -> SpectralMeasure:
    """Binned closed-form measure of exp(-|t|/scale): a Cauchy-shaped density."""
    return _binned_measure(n_bins, freq_max, scale,
                           lambda mid: (scale / np.pi) / (1.0 + (scale * mid) ** 2))


def cauchy_measure(n_bins: int = N_BINS, freq_max: float = FREQ_MAX,
                   scale: float = 1.0) -> SpectralMeasure:
    """Binned closed-form measure of 2/(1+(t/scale)^2): an exponential density."""
    return _binned_measure(n_bins, freq_max, scale, lambda mid: scale * np.exp(-scale * mid))


def cosine_measure(omega: float = 1.0) -> SpectralMeasure:
    """Atomic measure of cos(omega t): one-sided mass 1/2 at omega."""
    return SpectralMeasure(atoms=[(_number(omega, "omega", 0, above=True), 0.5)])


def constant_measure(value: float = 1.0) -> SpectralMeasure:
    """Atomic measure of the constant kernel: mass `value` at frequency 0."""
    return SpectralMeasure(atoms=[(0.0, _number(value, "value", 0))])
