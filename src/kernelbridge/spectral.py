"""Spectral transforms between kernels, squared metrics, and measures.

The pipeline implemented here:

* ``bochner_synthesis``  -- measure -> kernel profile values (exact for the
  atoms + piecewise-constant representation: each bin integrates cosines
  in closed form).
* ``screw_synthesis``    -- gamma measure -> squared-metric values, each
  bin integrated in closed form: elementary for s^2-law bins, through the
  Si-based antiderivative of sin^2(ts)/s^2 for constant-law bins.
* ``gamma_from_spectral`` / ``spectral_from_gamma`` -- the change of
  variables linking the two representations: a component of the measure
  at frequency tau > 0 with one-sided mass m corresponds to a gamma
  component at s = tau/2 with mass 8 s^2 m, so that

      screw_synthesis(gamma, t) == 2 k(0) - 2 k(t)   for all t.

  A density bin [a, b] with value v becomes the s^2-law gamma bin
  [a/2, b/2] with value 16 v, i.e. density 16 v s^2; the map is exact and,
  its factors being powers of two, inverts bit for bit.
* ``int_bound_integral`` -- the quadratic-decay integral of a gamma
  measure; a bounded translation-invariant kernel with value k0 at the
  origin exists iff it is <= 4 k0.
* ``atom_at_zero``       -- long-run average (1/2T) int_{-T}^{T} k, the
  mass at frequency zero.
* ``bochner_inversion``  -- kernel profile -> measure, by trapezoid
  cosine-transform quadrature, with a certificate path: a clearly
  negative zero-frequency mass or clearly negative density values raise
  :class:`NotPositiveDefiniteError` instead of being silently clamped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NotPositiveDefiniteError, UnboundedMetricError
from .measures import GammaMeasure, SpectralMeasure
from .profiles import KernelProfile

__all__ = [
    "bochner_synthesis",
    "screw_synthesis",
    "gamma_from_spectral",
    "spectral_from_gamma",
    "int_bound_integral",
    "bound_report",
    "atom_at_zero",
    "bochner_inversion",
    "InversionConfig",
    "InversionResult",
]

#: relative slack of the boundedness test: integral <= 4 k0 (1 + BOUND_RTOL)
BOUND_RTOL = 1e-12
#: chunk size (in t-points x bins) for the dense trig evaluations
_CHUNK = 2 ** 22


def _as_t_array(t):
    t = np.asarray(t, dtype=float)
    return t, t.ndim == 0


def _row_sums(ts: np.ndarray, n_cols: int, rows) -> np.ndarray:
    """``rows(ts)``, evaluated on chunks of ts holding <= _CHUNK t x column cells."""
    out = np.empty(ts.shape)
    step = max(1, _CHUNK // n_cols)
    for lo in range(0, ts.size, step):
        out[lo:lo + step] = rows(ts[lo:lo + step])
    return out


def bochner_synthesis(mu: SpectralMeasure, t):
    """Evaluate the kernel synthesized from a spectral measure.

    k(t) = m0 + sum 2 m cos(t tau) + sum over bins of the exact cosine
    integral 2 v (sin(t b) - sin(t a)) / t.  Accepts scalar or array t.
    """
    t, scalar = _as_t_array(t)
    tt = np.atleast_1d(t).ravel()
    out = np.full(tt.shape, mu.zero_atom)

    locs, masses, edges, values = mu.positive_part()
    if locs.size:
        out += _row_sums(tt, locs.size,
                         lambda ts: 2.0 * np.cos(np.outer(ts, locs)) @ masses)
    if values.size:
        a, b = edges[:-1], edges[1:]
        center = 0.5 * (a + b)
        half = 0.5 * (b - a)
        nz = tt != 0.0
        out[~nz] += float(2.0 * np.sum(values * (b - a)))
        # (sin(t b) - sin(t a))/t = 2 cos(t c) sin(t h) / t, stable near 0
        out[nz] += _row_sums(tt[nz], values.size, lambda ts: 2.0 * (
            2.0 * np.cos(np.outer(ts, center)) * np.sin(np.outer(ts, half))
            / ts[:, None]) @ values)
    return float(out[0]) if scalar else out.reshape(t.shape)


def _screw_antiderivative(u: np.ndarray) -> np.ndarray:
    """F(u) = int_0^u sin^2(x)/x^2 dx = Si(2u) - sin^2(u)/u, with F(0) = 0."""
    # imported here: only constant-law gamma bins need Si, and importing
    # scipy.special takes longer than most commands
    from scipy.special import sici

    u = np.asarray(u, dtype=float)
    si, _ = sici(2.0 * u)
    ratio = np.divide(np.sin(u) ** 2, u, out=np.zeros_like(u), where=u > 0)
    return si - ratio


def screw_synthesis(gamma: GammaMeasure, t):
    """Evaluate the squared metric synthesized from a gamma measure.

    d2(t) = sum m sin^2(t s)/s^2 + the binned density integrated in closed
    form: elementary for s^2-law bins, through the Si-based antiderivative
    for constant-law bins.  Even in t; d2(0) = 0.
    """
    t, scalar = _as_t_array(t)
    tt = np.abs(np.atleast_1d(t).ravel())
    out = np.zeros(tt.shape)

    locs, masses = gamma.atom_locations, gamma.atom_masses
    if locs.size:
        weights = masses / locs ** 2
        out += _row_sums(tt, locs.size,
                         lambda ts: np.sin(np.outer(ts, locs)) ** 2 @ weights)
    edges, values = gamma.bin_edges, gamma.bin_values
    if values.size:
        c, d = edges[:-1], edges[1:]
        if gamma.law == "s2":
            # int_c^d sin^2(ts) ds = (d - c)/2 - cos(t(c + d)) sin(t(d - c)) / (2t)
            width, ends = d - c, c + d
            half = 0.5 * width

            def rows(ts):
                return (half - np.cos(np.outer(ts, ends)) * np.sin(np.outer(ts, width))
                        / (2.0 * ts[:, None])) @ values
        else:
            def rows(ts):
                return ts * ((_screw_antiderivative(np.outer(ts, d))
                              - _screw_antiderivative(np.outer(ts, c))) @ values)
        nz = tt != 0.0
        out[nz] += _row_sums(tt[nz], values.size, rows)
    return float(out[0]) if scalar else out.reshape(np.asarray(t).shape)


def gamma_from_spectral(mu: SpectralMeasure) -> tuple[GammaMeasure, float]:
    """Convert a spectral measure to its gamma representation.

    Returns ``(gamma, zero_atom)``: the atom at frequency 0 does not enter
    gamma (a constant kernel offset produces no metric) and is handed back
    separately.  Atoms and density bins both convert exactly; the bins
    become s^2-law bins (see module docstring).
    """
    locs, masses, edges, values = mu.positive_part()
    atoms = [(0.5 * loc, 8.0 * (0.5 * loc) ** 2 * mass)
             for loc, mass in zip(locs, masses)]
    gamma = GammaMeasure(atoms=atoms, edges=0.5 * edges, values=16.0 * values,
                         law="s2")
    return gamma, mu.zero_atom


def int_bound_integral(gamma: GammaMeasure) -> float:
    """Quadratic-decay integral of gamma: sum m/s^2 + binned s^-2 mass.

    Exact for the representation; equals ``gamma.alpha(inf)``.  Returns inf
    when a constant-law density bin with positive value touches 0; a
    bounded kernel with k(0) = k0 exists iff the result is at most 4 k0.
    """
    return gamma.alpha(np.inf)


def bound_report(integral: float, k0: float) -> dict:
    """Compare a quadratic-decay integral with the bound 4 k0.

    ``ok`` says a bounded kernel with k(0) = k0 exists (integral <= 4 k0
    up to ``BOUND_RTOL``); ``tight`` says the integral meets the bound, so
    that kernel has no mass at frequency 0.  ``integral`` is the value of
    :func:`int_bound_integral`, so the verdict compares two numbers only.
    """
    k0 = float(k0)
    if not np.isfinite(k0) or k0 < 0:
        raise ValueError("k0 must be finite and >= 0")
    bound = 4.0 * k0
    ok = bool(integral <= bound * (1.0 + BOUND_RTOL))
    tight = bool(ok and np.isfinite(integral)
                 and abs(integral - bound) <= BOUND_RTOL * max(bound, 1.0))
    return {"integral": integral, "bound": bound, "ok": ok, "tight": tight}


def spectral_from_gamma(gamma: GammaMeasure, k0: float) -> SpectralMeasure:
    """Convert a gamma measure back to a spectral measure with k(0) = k0.

    Inverse of :func:`gamma_from_spectral`: gamma atoms at s map to
    measure atoms at 2s with one-sided mass m/(8 s^2); an s^2-law bin
    [c, d] with value g maps exactly to [2c, 2d] with value g/16.  A
    constant-law bin takes the value g/(16 c d), its s^2 law read at the
    geometric mean of the bin ends.  The atom at frequency 0 is set to k0
    minus the converted two-sided mass, which the precondition
    (quadratic-decay integral <= 4 k0) keeps non-negative.

    Raises :class:`UnboundedMetricError` when the precondition fails; such
    gamma measures still define legitimate squared metrics (the |t| metric
    is the canonical example) but no bounded kernel.
    """
    k0 = float(k0)
    report = bound_report(int_bound_integral(gamma), k0)
    if not report["ok"]:
        raise UnboundedMetricError(integral=report["integral"], bound=report["bound"])

    atoms = [(2.0 * s, m / (8.0 * s ** 2))
             for s, m in zip(gamma.atom_locations, gamma.atom_masses)]
    edges = 2.0 * gamma.bin_edges
    if gamma.law == "s2":
        values = gamma.bin_values / 16.0
    else:
        lo, hi = gamma.bin_edges[:-1], gamma.bin_edges[1:]
        values = np.zeros_like(gamma.bin_values)
        nz = gamma.bin_values > 0  # zero-value bins stay zero even at lo == 0
        values[nz] = gamma.bin_values[nz] / (16.0 * lo[nz] * hi[nz])

    mass_without_zero_atom = float(
        2.0 * sum(m for _, m in atoms)
        + (2.0 * np.sum(values * (edges[1:] - edges[:-1])) if edges.size else 0.0))
    zero_mass = max(k0 - mass_without_zero_atom, 0.0)
    if zero_mass > 0.0:
        atoms.append((0.0, zero_mass))
    return SpectralMeasure(atoms=atoms, edges=edges, values=values)


def atom_at_zero(kernel: KernelProfile, window: float, step: float = 0.01) -> float:
    """Long-run average (1/2T) int_{-T}^{T} k(t) dt by trapezoid quadrature.

    Converges to the mass at frequency zero as the window grows; the
    non-atomic part contributes O(1/T).
    """
    window, step = float(window), float(step)
    if not (0.0 < window < np.inf and 0.0 < step < np.inf):
        raise ValueError("window and step must be finite and > 0")
    n = max(2, int(round(window / step)) + 1)
    t = np.linspace(0.0, window, n)
    values = kernel(t)
    return float(np.trapezoid(values, t) / window)


@dataclass(frozen=True)
class InversionConfig:
    """Tunables of the cosine-transform inversion.

    The defaults are sized so the smooth closed-form pairs round-trip to
    their documented tolerances; everything is overridable.
    """

    t_max: float = 40.0
    n_samples: int = 16001
    n_bins: int = 2048
    freq_max: float = 8.0
    atom_window: float = 200.0
    atom_step: float = 0.01
    #: relative threshold (times |k(0)|) separating quadrature noise from
    #: a genuine negativity certificate
    clamp_tol: float = 1e-4
    residual_span: float = 5.0
    residual_points: int = 201

    def __post_init__(self):
        if self.t_max <= 0 or self.n_samples < 2 or self.n_bins < 1:
            raise ValueError("t_max, n_samples, n_bins must be positive")
        if self.freq_max <= 0 or self.atom_window <= 0 or self.atom_step <= 0:
            raise ValueError("freq_max, atom_window, atom_step must be positive")


@dataclass(frozen=True)
class InversionResult:
    """Recovered measure plus honesty metadata.

    ``residual`` is the sup difference between the re-synthesized kernel
    and the input on the residual grid; ``clamped_mass`` is the total
    (two-sided) mass removed by clamping small negative density values.
    """

    measure: SpectralMeasure
    atom0: float
    residual: float
    clamped_mass: float
    min_density: float
    config: InversionConfig


def _estimate_zero_atom(kernel: KernelProfile, config: InversionConfig) -> float:
    # Richardson step: the long-run average carries an O(1/T) tail from the
    # non-atomic part; combining two windows cancels that term, which the
    # density tolerances of the slowly-decaying pairs require.
    full = atom_at_zero(kernel, config.atom_window, config.atom_step)
    half = atom_at_zero(kernel, 0.5 * config.atom_window, config.atom_step)
    return 2.0 * full - half


def bochner_inversion(kernel: KernelProfile,
                      config: InversionConfig = InversionConfig()) -> InversionResult:
    """Recover a spectral measure from a positive definite kernel profile.

    The zero-frequency atom is estimated first (long-run average with a
    two-window tail correction); the remaining density is the trapezoid
    cosine transform (1/pi) int_0^{t_max} (k(t) - atom0) cos(t tau) dt
    evaluated at bin midpoints.  Negativity beyond ``clamp_tol * |k(0)|``
    raises :class:`NotPositiveDefiniteError`; smaller negative values are
    clamped to zero and the removed mass is reported.

    Kernels whose spectrum has atoms at nonzero frequencies (pure tones)
    are outside this density-only model and will be rejected by the
    negativity certificate.
    """
    k0 = float(kernel(0.0))
    noise_floor = config.clamp_tol * max(abs(k0), 1e-300)

    atom0 = _estimate_zero_atom(kernel, config)
    if atom0 < -noise_floor:
        raise NotPositiveDefiniteError(
            f"zero-frequency mass estimates to {atom0!r} < 0; "
            "a negative atom rules out positive definiteness",
            atom0=atom0)
    if abs(atom0) <= noise_floor:
        atom0 = 0.0

    t = np.linspace(0.0, config.t_max, config.n_samples)
    integrand = kernel(t) - atom0
    weights = np.full(config.n_samples, config.t_max / (config.n_samples - 1))
    weights[0] *= 0.5
    weights[-1] *= 0.5
    g = integrand * weights

    edges = np.linspace(0.0, config.freq_max, config.n_bins + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    density = np.empty(config.n_bins)
    step = max(1, _CHUNK // config.n_samples)
    for lo in range(0, config.n_bins, step):
        hi = min(lo + step, config.n_bins)
        density[lo:hi] = g @ np.cos(np.outer(t, mid[lo:hi]))
    density /= np.pi

    worst = float(np.min(density)) if density.size else 0.0
    if worst < -noise_floor:
        where = float(mid[int(np.argmin(density))])
        raise NotPositiveDefiniteError(
            f"recovered density reaches {worst!r} at frequency {where!r}; "
            "negativity beyond quadrature noise rules out positive definiteness",
            atom0=atom0, worst_density=worst, frequency=where)
    clamped = np.clip(density, 0.0, None)
    clamped_mass = float(2.0 * np.sum((clamped - density) * np.diff(edges)))

    atoms = [(0.0, atom0)] if atom0 > 0.0 else []
    measure = SpectralMeasure(atoms=atoms, edges=edges, values=clamped)

    grid = np.linspace(-config.residual_span, config.residual_span,
                       config.residual_points)
    residual = float(np.max(np.abs(bochner_synthesis(measure, grid) - kernel(grid))))
    return InversionResult(measure=measure, atom0=atom0, residual=residual,
                           clamped_mass=clamped_mass, min_density=worst,
                           config=config)
