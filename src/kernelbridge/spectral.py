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
  The samples t_i = i dt and the bin midpoints (j + 1/2) df are both
  uniform, so the trapezoid sum over all bins is one chirp-z transform
  (Bluestein's algorithm on ``numpy.fft``), not a dense samples x bins
  cosine table.
"""

from __future__ import annotations

import numbers
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
    "MAX_ELEMENTS",
    "check_elements",
]

#: relative slack of the boundedness test: integral <= 4 k0 (1 + BOUND_RTOL)
BOUND_RTOL = 1e-12
#: chunk size (in rows x columns) for the dense trig evaluations: small
#: enough that a chunk's temporaries stay in cache
_CHUNK = 2 ** 14
#: most float64 values one array may hold (2**24: 128 MiB); a size that
#: would need more is rejected before anything is allocated
MAX_ELEMENTS = 2 ** 24


def check_elements(count, what: str) -> None:
    """Raise ValueError when ``what`` needs more than MAX_ELEMENTS array elements."""
    if not count <= MAX_ELEMENTS:
        raise ValueError(f"{what} needs {float(count):.4g} array elements, "
                         f"over the budget of {MAX_ELEMENTS}")


def _as_t_array(t):
    t = np.asarray(t, dtype=float)
    if not np.isfinite(t).all():
        raise ValueError("t must be finite")
    return t, t.ndim == 0


def _row_sums(ts: np.ndarray, n_cols: int, rows) -> np.ndarray:
    """``rows(ts)``, evaluated on chunks of ts's rows holding <= _CHUNK row x column cells.

    ``rows`` maps a block of rows to one value per row.
    """
    out = np.empty(len(ts))
    step = max(1, _CHUNK // n_cols)
    for lo in range(0, len(ts), step):
        out[lo:lo + step] = rows(ts[lo:lo + step])
    return out


def _shared(widths: np.ndarray) -> np.ndarray:
    """``widths[:1]`` when every bin has the same width, else ``widths``.

    The syntheses use a width w only through sin(t w).  Every inverted
    measure has one bin width, so one sine per t then serves all bins by
    broadcasting, with the same bits as one sine per bin.
    """
    return widths[:1] if (widths == widths[0]).all() else widths


def _resolved(ts: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Mask of the t whose products with every bin width are normal floats.

    Below that, sin(t w) / t loses its digits to underflow (5e-324 gave 0
    for k(0) = 1.2).  Such t lie far below every scale of the measure, so
    the syntheses give them their t = 0 value.
    """
    return np.abs(ts) * np.min(widths) >= np.finfo(float).tiny


def _phases(half_theta: float, q: np.ndarray) -> np.ndarray:
    """exp(-i half_theta q) for integer-valued q below 2**52.

    half_theta splits into a head, short enough that head * q is exact for
    every q, and a small tail.  The phases then carry no rounding of order
    half_theta * q, which reaches 1e6 rad on long inversion grids.
    """
    mant, exp = np.frexp(half_theta)
    bits = 53 - int(q.max()).bit_length()
    head = float(np.ldexp(np.floor(np.ldexp(mant, bits)), exp - bits))
    return np.exp(-1j * (head * q)) * np.exp(-1j * ((half_theta - head) * q))


def _chirp_size(n: int, n_out: int) -> int:
    """FFT length of the chirp-z transform: a power of two >= n + n_out - 1."""
    return 1 << (int(n) + int(n_out) - 2).bit_length()


def _midpoint_cosine_sums(g: np.ndarray, theta: float, n_out: int) -> np.ndarray:
    """sum_i g_i cos(theta i (j + 1/2)) for j = 0 .. n_out - 1, as a chirp-z transform.

    theta i (j + 1/2) = (theta/2) [i (i + 1) + j^2 - (j - i)^2], so each sum
    is the real part of exp(-i theta j^2/2) times the convolution of
    g_i exp(-i theta i (i + 1)/2) with the chirp exp(i theta k^2/2),
    k = -(n - 1) .. n_out - 1 (Bluestein), done with one power-of-two
    FFT pair.  The error stays within ~1e-14 sum |g_i|.
    """
    n = g.size
    half = 0.5 * theta
    i = np.arange(n, dtype=float)
    k = np.arange(max(n, n_out), dtype=float)
    chirp = _phases(half, k * k)
    size = _chirp_size(n, n_out)  # no wrap-around
    filt = np.zeros(size, dtype=complex)
    filt[:n_out] = chirp[:n_out].conj()
    filt[size - n + 1:] = chirp[n - 1:0:-1].conj()
    conv = np.fft.ifft(np.fft.fft(g * _phases(half, i * (i + 1.0)), size)
                       * np.fft.fft(filt))
    return (conv[:n_out] * chirp[:n_out]).real


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
        half = _shared(0.5 * (b - a))
        nz = _resolved(tt, half)
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


@np.errstate(all="ignore")  # a value past the float range is reported at the end
def screw_synthesis(gamma: GammaMeasure, t):
    """Evaluate the squared metric synthesized from a gamma measure.

    d2(t) = sum m sin^2(t s)/s^2 + the binned density integrated in closed
    form: elementary for s^2-law bins, through the Si-based antiderivative
    for constant-law bins.  Even in t; d2(0) = 0.  A non-finite value (the
    weight overflows the float range) is a ValueError.
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
            width = _shared(width)

            def rows(ts):
                return (half - np.cos(np.outer(ts, ends)) * np.sin(np.outer(ts, width))
                        / (2.0 * ts[:, None])) @ values
        else:
            def rows(ts):
                return ts * ((_screw_antiderivative(np.outer(ts, d))
                              - _screw_antiderivative(np.outer(ts, c))) @ values)
        nz = _resolved(tt, d - c)
        out[nz] += _row_sums(tt[nz], values.size, rows)
    if not np.isfinite(out).all():
        raise ValueError("squared metric overflows the float range")
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


#: trapezoid step of the zero-atom average, for atom_at_zero and InversionConfig
_ATOM_STEP = 0.01


def atom_at_zero(kernel: KernelProfile, window: float, step: float = _ATOM_STEP) -> float:
    """Long-run average (1/2T) int_{-T}^{T} k(t) dt by trapezoid quadrature.

    Converges to the mass at frequency zero as the window grows; the
    non-atomic part contributes O(1/T).
    """
    window, step = float(window), float(step)
    if not (0.0 < window < np.inf and 0.0 < step < np.inf):
        raise ValueError("window and step must be finite and > 0")
    check_elements(window / step + 1.0, "the zero-atom window / step")
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
    atom_step: float = _ATOM_STEP
    #: relative threshold (times |k(0)|) separating quadrature noise from
    #: a genuine negativity certificate
    clamp_tol: float = 1e-4
    residual_span: float = 5.0
    residual_points: int = 201

    def __post_init__(self):
        for name in ("n_samples", "n_bins", "residual_points"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("t_max", "freq_max", "atom_window", "atom_step", "clamp_tol",
                     "residual_span"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not np.isfinite(value)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.t_max <= 0 or self.n_samples < 2 or self.n_bins < 1:
            raise ValueError("t_max, n_samples, n_bins must be positive")
        if self.freq_max <= 0 or self.atom_window <= 0 or self.atom_step <= 0:
            raise ValueError("freq_max, atom_window, atom_step must be positive")
        if self.clamp_tol < 0 or self.residual_span < 0 or self.residual_points < 1:
            raise ValueError("clamp_tol, residual_span must be >= 0 and "
                             "residual_points >= 1")
        # the chirp-z transform holds complex arrays of the FFT length
        check_elements(2 * _chirp_size(self.n_samples, self.n_bins),
                       "the inversion (n_samples, n_bins)")
        check_elements(self.residual_points, "residual_points")


@dataclass(frozen=True)
class InversionResult:
    """Recovered measure plus honesty metadata.

    ``residual`` is the sup difference between the re-synthesized kernel
    and the input on the residual grid; ``clamped_mass`` is the total
    (two-sided) mass removed by clamping small negative density values.
    Three health readings name what the measure leaves out:
    ``mass_gap = k(0) - measure.total_mass()`` is the mass lost, mostly the
    spectral tail above ``freq_max``; ``nyquist_margin = pi/dt - freq_max``
    is negative when the bins reach past the sampling's Nyquist frequency;
    ``atom_window_gap = |full - half|`` is the disagreement of the two
    zero-atom windows the Richardson step combines; ``tail_gap =
    |k(t_max) - atom0|`` is the kernel left at the end of the samples,
    which the cosine transform truncates.
    """

    measure: SpectralMeasure
    atom0: float
    residual: float
    clamped_mass: float
    min_density: float
    config: InversionConfig
    mass_gap: float
    nyquist_margin: float
    atom_window_gap: float
    tail_gap: float


def _estimate_zero_atom(kernel: KernelProfile,
                        config: InversionConfig) -> tuple[float, float]:
    """The zero-atom estimate and |full - half|, the two windows' disagreement."""
    # Richardson step: the long-run average carries an O(1/T) tail from the
    # non-atomic part; combining two windows cancels that term, which the
    # density tolerances of the slowly-decaying pairs require.
    full = atom_at_zero(kernel, config.atom_window, config.atom_step)
    half = atom_at_zero(kernel, 0.5 * config.atom_window, config.atom_step)
    return 2.0 * full - half, abs(full - half)


def bochner_inversion(kernel: KernelProfile,
                      config: InversionConfig = InversionConfig()) -> InversionResult:
    """Recover a spectral measure from a positive definite kernel profile.

    The zero-frequency atom is estimated first (long-run average with a
    two-window tail correction); the remaining density is the cosine
    transform (1/pi) int_0^{t_max} (k(t) - atom0) cos(t tau) dt at the bin
    midpoints, with trapezoid weights on the uniform samples.  All bins are
    evaluated at once as a chirp-z transform, in O((n_samples + n_bins)
    log) time; it agrees with the dense trapezoid sum to ~1e-14 times the
    sum of |weighted samples|, far below the clamp threshold.

    The transform stops at ``t_max``, and the missing tail can dip the
    density below zero.  Assuming k - atom0 is monotone beyond ``t_max``
    (true of the decaying zoo kernels, not of oscillating ones), the
    second mean value theorem bounds that tail at frequency tau by
    ``2 * tail_gap / (pi * tau)``.  A bin whose density is below
    ``-(clamp_tol * |k(0)| + 2 * tail_gap / (pi * tau))`` raises
    :class:`NotPositiveDefiniteError`; smaller negative values are clamped
    to zero and the removed mass is reported.

    Kernels whose spectrum has atoms at nonzero frequencies (pure tones)
    are outside this density-only model and will be rejected by the
    negativity certificate.
    """
    k0 = float(kernel(0.0))
    noise_floor = config.clamp_tol * max(abs(k0), 1e-300)

    atom0, atom_window_gap = _estimate_zero_atom(kernel, config)
    if atom0 < -noise_floor:
        raise NotPositiveDefiniteError(
            f"zero-frequency mass estimates to {atom0!r} < 0; "
            "a negative atom rules out positive definiteness",
            atom0=atom0)
    if abs(atom0) <= noise_floor:
        atom0 = 0.0

    t = np.linspace(0.0, config.t_max, config.n_samples)
    dt = config.t_max / (config.n_samples - 1)
    weights = np.full(config.n_samples, dt)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    centered = kernel(t) - atom0
    g = centered * weights

    edges = np.linspace(0.0, config.freq_max, config.n_bins + 1)
    df = config.freq_max / config.n_bins
    density = _midpoint_cosine_sums(g, dt * df, config.n_bins) / np.pi

    tail_gap = abs(float(centered[-1]))
    tau = (np.arange(config.n_bins) + 0.5) * df
    # the floor plus the bound on the cut-off tail (monotone past t_max)
    margin = density + noise_floor + 2.0 * tail_gap / (np.pi * tau)
    j = int(np.argmin(margin))
    if margin[j] < 0.0:
        worst, where = float(density[j]), float(tau[j])
        raise NotPositiveDefiniteError(
            f"recovered density reaches {worst!r} at frequency {where!r}; "
            "negativity beyond quadrature noise and truncation rules out "
            "positive definiteness",
            atom0=atom0, worst_density=worst, frequency=where)
    clamped = np.clip(density, 0.0, None)
    clamped_mass = float(2.0 * np.sum((clamped - density) * np.diff(edges)))

    atoms = [(0.0, atom0)] if atom0 > 0.0 else []
    measure = SpectralMeasure(atoms=atoms, edges=edges, values=clamped)

    grid = np.linspace(-config.residual_span, config.residual_span,
                       config.residual_points)
    residual = float(np.max(np.abs(bochner_synthesis(measure, grid) - kernel(grid))))
    return InversionResult(measure=measure, atom0=atom0, residual=residual,
                           clamped_mass=clamped_mass, min_density=float(np.min(density)),
                           config=config, mass_gap=k0 - measure.total_mass(),
                           nyquist_margin=np.pi / dt - config.freq_max,
                           atom_window_gap=atom_window_gap,
                           tail_gap=tail_gap)
