"""Spectral transforms between kernels, squared metrics, and measures.

The pipeline implemented here:

* ``bochner_synthesis``  -- measure -> kernel profile values (exact for the
  atoms + piecewise-constant representation: each bin integrates cosines
  in closed form).
* ``screw_synthesis``    -- gamma measure -> squared-metric values: s^2-law
  bins as the Bochner density sum of their spectral bins (below), and at
  small lags, where that difference cancels, as a series of their even
  moments with positive terms; constant-law bins through the
  antiderivative of sin^2(ts)/s^2 (a power series, then Si's auxiliary
  functions from a continued fraction), in a form that does not cancel at
  large lags.
* ``gamma_from_spectral`` / ``spectral_from_gamma`` -- the change of
  variables linking the two representations: a component of the measure
  at frequency tau > 0 with one-sided mass m corresponds to a gamma
  component at s = tau/2 with mass 8 s^2 m, so that

      screw_synthesis(gamma, t) == 2 k(0) - 2 k(t)   for all t.

  A density bin [a, b] with value v becomes the s^2-law gamma bin
  [a/2, b/2] with value 16 v, i.e. density 16 v s^2; the map is exact and,
  its factors being powers of two, inverts bit for bit; for a measure
  without atoms, the identity above holds bit for bit at every lag t with
  |t| (top edge of the last bin with a value) > 1/2.
* ``int_bound_integral`` -- the quadratic-decay integral of a gamma
  measure; a bounded translation-invariant kernel with value k0 at the
  origin exists iff it is <= 4 k0.
* ``atom_at_zero``       -- long-run average (1/2T) int_{-T}^{T} k, the
  mass at frequency zero.
* ``bochner_inversion``  -- kernel profile -> measure, by trapezoid
  cosine-transform quadrature, with a certificate path: a clearly
  negative zero-frequency mass or clearly negative density values raise
  :class:`NotPositiveDefiniteError` instead of being silently clamped.
  The samples t_i = i dt and the bin midpoints (j + 1/2) w of
  ``measures.frequency_grid`` are both uniform, so the trapezoid sum over
  all bins is a chirp-z transform (Bluestein's algorithm on ``numpy.fft``),
  not a dense samples x bins cosine table.  It runs block by block of
  samples in one complex buffer of a power-of-two length >= 2 n_bins - 1,
  at least 4096 (64 KiB; 8 blocks at the defaults).

One angle rule serves every trig sum: ``_cos_sin`` takes each cosine and
sine of a product t x (atoms, bins, the split's sine factor, the chirp-z
phases, the constant-law antiderivative) of the exact product, and a
product past the float range is a ValueError, never a NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import NotPositiveDefiniteError, UnboundedMetricError
from .measures import (FREQ_MAX, MAX_ELEMENTS, N_BINS, GammaMeasure, SpectralMeasure,
                       _bin_width, _count, _in_range, _number, _numbers, _scaled,
                       check_elements, frequency_grid)
from .profiles import KernelProfile, probe_grid

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
#: relative threshold (times |k(0)|) separating the inversion's quadrature noise
#: from a genuine negativity certificate
CLAMP_RTOL = 1e-4
#: chunk size (in rows x columns) for the dense trig evaluations: small
#: enough that a chunk's temporaries stay in cache
_CHUNK = 2 ** 14


def _row_sums(ts: np.ndarray, n_cols: int, rows) -> np.ndarray:
    """``rows(ts)``, evaluated on chunks of ts's rows holding <= _CHUNK row x column cells.

    ``rows`` maps a block of rows to one value per row.
    """
    out = np.empty(len(ts))
    step = max(1, _CHUNK // n_cols)
    for lo in range(0, len(ts), step):
        out[lo:lo + step] = rows(ts[lo:lo + step])
    return out


@np.errstate(over="ignore")  # a product past the float range is resolved
def _resolved(ts: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Mask of the t whose products with every bin width are normal floats.

    Below that, sin(t w) / t loses its digits to underflow (5e-324 gave 0
    for k(0) = 1.2).  Such t lie far below every scale of the measure, so
    the syntheses give them their t = 0 value.
    """
    return np.abs(ts) * np.min(widths) >= np.finfo(float).tiny


#: least FFT length of the blocked chirp-z transform (64 KiB of complex): it
#: keeps the block loop short when there are few bins
_MIN_BLOCK_FFT = 4096


def _block_fft_size(n_out: int) -> int:
    """FFT length S of the blocked chirp-z transform: a power of two >= 2 n_out - 1.

    So each block takes S - n_out + 1 >= n_out samples.
    """
    return max(_MIN_BLOCK_FFT, 1 << (2 * int(n_out) - 2).bit_length())


def _midpoint_cosine_sums(g: np.ndarray, theta: float, n_out: int) -> np.ndarray:
    """sum_i g_i cos(theta i (j + 1/2)) for j = 0 .. n_out - 1, as a blocked chirp-z transform.

    The samples go in blocks of L = S - n_out + 1, S = _block_fft_size(n_out).
    For i = i0 + i' in the block from i0, theta i (j + 1/2) = theta i0 (j + 1/2)
    + (theta/2) [i' (i' + 1) + j^2 - (j - i')^2], so the block's sums are
    the real part of exp(-i theta i0 (j + 1/2)) exp(-i theta j^2/2) times the
    convolution of g_{i0+i'} exp(-i theta i' (i' + 1)/2) with the chirp
    exp(i theta k^2/2), k = -(L - 1) .. n_out - 1 (Bluestein).  Every block
    shares the filter's FFT and the pre-chirp, and runs one FFT pair of
    length S in one reused buffer; no block wraps around.  The error stays
    within ~1e-15 sum |g_i|.
    """
    def phases(q):  # exp(-i theta q / 2) for exact integers q, of angles taken exactly
        cos, sin = _cos_sin(np.array([0.5 * theta]), q)
        return cos[0] - 1j * sin[0]

    size = _block_fft_size(n_out)
    block = size - n_out + 1
    k = np.arange(block, dtype=float)
    chirp = phases(k * k)
    filt = np.empty(size, dtype=complex)
    filt[:n_out] = chirp[:n_out].conj()
    filt[n_out:] = chirp[block - 1:0:-1].conj()
    np.fft.fft(filt, out=filt)
    i = k[:min(g.size, block)]
    pre = phases(i * (i + 1.0))
    odd = 2.0 * k[:n_out] + 1.0
    buf = np.empty(size, dtype=complex)
    sums = np.zeros(n_out, dtype=complex)
    for lo in range(0, g.size, block):
        part = g[lo:lo + block]
        np.multiply(part, pre[:part.size], out=buf[:part.size])
        buf[part.size:] = 0.0
        np.fft.fft(buf, out=buf)
        buf *= filt
        np.fft.ifft(buf, out=buf)
        if lo:
            buf[:n_out] *= phases(lo * odd)  # exp(-i theta lo (j + 1/2)), lo (2j + 1) exact
        sums += buf[:n_out]
    return (sums * chirp[:n_out]).real


def _head(x: np.ndarray) -> np.ndarray:
    """x truncated to 26 significant bits: a product of two heads is exact."""
    mant, exp = np.frexp(x)
    return np.ldexp(np.trunc(np.ldexp(mant, 26)), exp - 26)


def _cos_sin(ts: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of the exact products ts_i x_k, as two (ts.size, x.size) tables.

    The product rounds to p, and Dekker's two-product gives the rest
    e = ts x - p exactly; cos(p + e) = cos p - e sin p and sin(p + e) =
    sin p + e cos p to within e**2 / 2.  So the tables carry no rounding of
    order |ts x| eps, which a plain product leaves in every angle.  Past
    |p| ~ 2**53, where |e| may exceed 1/2, the angle is p as it stands.
    A product past the float range is a ValueError, not a NaN.
    """
    p = _in_range(lambda: np.outer(ts, x), "a lag times a frequency")
    t_head, x_head = _head(ts), _head(x)
    t_tail, x_tail = ts - t_head, x - x_head
    e = ((np.outer(t_head, x_head) - p) + np.outer(t_head, x_tail)
         + np.outer(t_tail, x_head)) + np.outer(t_tail, x_tail)
    e[~(np.abs(e) <= 0.5)] = 0.0
    cos, sin = np.cos(p), np.sin(p)
    return cos - e * sin, sin + e * cos


def _split_cosine_sums(ts: np.ndarray, center: np.ndarray, width: float,
                       values: np.ndarray) -> np.ndarray:
    """sum_j values_j cos(ts (center_0 + j width)), for centres one width apart.

    Baby-step giant-step (Paterson & Stockmeyer 1973): j = P p + q with
    P = ceil(sqrt(N)), so cos(A_p + B_q) = cos A_p cos B_q - sin A_p sin B_q
    with A_p = ts center_{P p} and B_q = ts q width.  Per t that is 2 (P + R)
    sines and cosines, R = ceil(N / P), and two (P, R) products with the
    value grid, in place of N cosines.
    """
    n = values.size
    steps = math.isqrt(n - 1) + 1
    grid = np.zeros(-(-n // steps) * steps)
    grid[:n] = values
    grid = grid.reshape(-1, steps).T  # grid[q, p] = values[P p + q]
    giant, baby = center[::steps], np.arange(steps) * width

    def rows(ts):
        cos_a, sin_a = _cos_sin(ts, giant)
        cos_b, sin_b = _cos_sin(ts, baby)
        return np.sum(cos_a * (cos_b @ grid) - sin_a * (sin_b @ grid), axis=1)

    return _row_sums(ts, 2 * (steps + giant.size), rows)  # table cells per t


def _density_part(tt: np.ndarray, edges: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per t, the sum over bins [a, b] with value v of 2 v (sin(t b) - sin(t a)) / t.

    That is 4 v cos(t c) sin(t h) / t with centre c and half-width h, stable
    near 0.  Bins of one width, as every grid of ``frequency_grid`` has,
    take the split cosine sum; other bins the dense table.
    """
    a, b = edges[:-1], edges[1:]
    center, half = 0.5 * (a + b), 0.5 * (b - a)
    nz = _resolved(tt, half)
    out = np.full(tt.shape, float(2.0 * np.sum(values * (b - a))))
    ts = tt[nz]
    if (half == half[0]).all():
        sums = 4.0 * _cos_sin(ts, half[:1])[1][:, 0] / ts * _split_cosine_sums(
            ts, center, 2.0 * half[0], values)
    else:
        sums = _row_sums(ts, values.size, lambda ts: 2.0 * (
            2.0 * _cos_sin(ts, center)[0] * _cos_sin(ts, half)[1] / ts[:, None]) @ values)
    out[nz] = sums
    return out


def bochner_synthesis(mu: SpectralMeasure, t):
    """Evaluate the kernel synthesized from a spectral measure.

    k(t) = m0 + sum 2 m cos(t tau) + sum over bins of the exact cosine
    integral 2 v (sin(t b) - sin(t a)) / t.  Accepts scalar or array t, and
    sums on the values scaled (see _scaled) with the masses, which bound them.
    """
    t = _numbers(t, "t")
    tt = t.ravel()
    locs, masses, edges, values = mu.positive_part()
    back, zero_atom, masses, values, _ = _scaled(mu.zero_atom, masses, values,
                                                 mu.component_masses())
    out = np.full(tt.shape, zero_atom)
    if locs.size:
        out += _row_sums(tt, locs.size, lambda ts: 2.0 * _cos_sin(ts, locs)[0] @ masses)
    if values.size:
        out += _density_part(tt, edges, values)
    out = back(out, "the synthesized kernel")
    return float(out[0]) if t.ndim == 0 else out.reshape(t.shape)


#: x = 2 t e from which _screw_antiderivative takes f, g from their continued fraction
_SERIES_TO = 8.0
#: F(x/2) / x in powers of x^2: (-1)^k / ((2k + 2)! (2k + 1)) for k = 0 .. 23
_F_SERIES = [(-1.0) ** k / (math.factorial(2 * k + 2) * (2 * k + 1)) for k in range(24)]
#: depth of the continued fraction of e^{ix} E1(ix), summed backward
_FRACTION_TERMS = 30


def _screw_antiderivative(ts: np.ndarray, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Phi(t, e) per lag and edge, and the mask of the edges where x = 2 t e >= 8.

    With F(u) = int_0^u sin^2(v)/v^2 dv, Phi is t F(t e) below x = 8, from
    the power series F(x/2) = sum_k (-1)^k x^(2k+1) / ((2k+2)! (2k+1)).
    From 8 up, where t F(t e) nears t pi/2, Phi is t (F(t e) - pi/2) =
    -(1 + (x f - 1) cos x + x g sin x) / (2 e), with f, g the auxiliary
    functions of Si, so nothing cancels and no t multiplies a difference:
    g - i f = e^{ix} E1(ix) = 1/(1 + ix - 1/(3 + ix - 4/(5 + ix - ...))),
    the even continued fraction of Abramowitz & Stegun 5.1.22.  A bin
    [c, d] is then Phi(t, d) - Phi(t, c), plus t pi/2 where only d is past
    8.  The angles are exact, and an overflowing lag a ValueError (see
    _cos_sin).
    """
    cos, sin = _cos_sin(ts, 2.0 * edges)
    x = np.outer(ts, 2.0 * edges)
    high = x >= _SERIES_TO
    phi = np.empty_like(x)
    low = x[~high]
    series, y = 0.0, low * low
    for coefficient in reversed(_F_SERIES):
        series = series * y + coefficient
    phi[~high] = np.broadcast_to(ts[:, None], x.shape)[~high] * (low * series)
    x, ix = x[high], 1j * x[high]
    fraction = (2 * _FRACTION_TERMS - 1) + ix
    for n in range(_FRACTION_TERMS - 1, 0, -1):  # one temporary per term: ~40% less time
        fraction = ix - n * n / fraction
        fraction += 2 * n - 1
    xh = x / fraction  # x g - i x f
    phi[high] = ((1.0 + xh.imag) * cos[high] - xh.real * sin[high] - 1.0) \
        / (2.0 * np.broadcast_to(edges, high.shape)[high])
    return phi, high


#: |t| times the top spectral edge of the last bin with a value, up to which
#: s^2-law rows take _even_moments
_SMALL_LAG = 0.5
#: terms of the even-moment series: at |t| T <= 1/2 the ninth is < 1e-20 of the first
_MOMENT_TERMS = 8


def _even_moments(ts: np.ndarray, edges: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per t, 4 sum over bins [a, b] with value v of int_a^b (1 - cos(t tau)) dtau,
    as its even-moment series, for |t| T <= 1/2 with T = edges[-1].

    That is 4 sum_k (-1)^(k+1) x^(2k)/(2k)! Q_k with x = t T and Q_k = sum v
    int_a^b (tau/T)^(2k) dtau.  Each moment is formed from the bin's centre
    c and half-width h with positive terms only: int_{c-h}^{c+h} tau^(2k) =
    2/(2k+1) sum_{j odd} C(2k+1, j) c^(2k+1-j) h^j, scaled by T^(2k) so
    nothing overflows.  As Q_(k+1) <= Q_k, each term is at most 1/48 of the
    one before, and the sum (Horner's rule in x^2) cancels nothing.  Every
    value is >= 0, unlike 2 D(0) - 2 D(t), which cancels to eps D(0).
    """
    top = edges[-1]
    centre2 = (0.5 * (edges[1:] + edges[:-1]) / top) ** 2
    half = 0.5 * (edges[1:] - edges[:-1]) / top
    half2 = half * half
    # sums[i, j] = sum over bins of v (b - a)/T (c/T)^(2i) (h/T)^(2j), i + j <= terms
    sums = np.zeros((_MOMENT_TERMS + 1, _MOMENT_TERMS + 1))
    weighted = 2.0 * half * values
    for i in range(_MOMENT_TERMS + 1):
        term = weighted.copy()
        for j in range(_MOMENT_TERMS + 1 - i):
            sums[i, j] = term.sum()
            term *= half2
        weighted *= centre2
    moments = [sum(math.comb(2 * k + 1, 2 * j + 1) * sums[k - j, j] for j in range(k + 1))
               / ((2 * k + 1) * math.factorial(2 * k)) for k in range(1, _MOMENT_TERMS + 1)]
    x = ts * top
    series = np.full(ts.shape, moments[-1])
    for moment in reversed(moments[:-1]):
        series = moment - x * x * series
    # top * series <= sum v (b - a), and x <= 1/2: nothing overflows or underflows
    # before the value itself does
    return 4.0 * x * (x * (top * series))


def screw_synthesis(gamma: GammaMeasure, t):
    """Evaluate the squared metric synthesized from a gamma measure.

    d2(t) = sum m sin^2(t s)/s^2 + the binned density integrated in closed
    form: 2 D(0) - 2 D(t) of the Bochner density sum D of the spectral bins
    for s^2-law bins, or their even-moment series (_even_moments) where |t|
    times the top spectral edge of the last bin with a value is <= 1/2 and
    that difference cancels; the antiderivative Phi (_screw_antiderivative)
    for constant-law bins.  Even in t; d2(0) = 0.  A value past the float
    range (the weight overflows it) is a ValueError, and so is a lag whose
    product with a frequency passes it (see _cos_sin).  It sums as synthesis does.
    """
    t = _numbers(t, "t")
    out = _in_range(lambda: _squared_metric(gamma, np.abs(t.ravel())), "squared metric")
    return float(out[0]) if t.ndim == 0 else out.reshape(t.shape)


def _squared_metric(gamma: GammaMeasure, tt: np.ndarray) -> np.ndarray:
    """d2 at the lags tt >= 0: the sums of :func:`screw_synthesis`."""
    back, masses, values, _ = _scaled(gamma.atom_masses, gamma.bin_values,
                                      gamma.bin_values * gamma.bin_widths)
    out = np.zeros(tt.shape)
    locs = gamma.atom_locations
    if locs.size:
        # m (sin(ts)/s)^2, not (m/s^2) sin^2(ts): s^2 underflows below ~1e-154
        out += _row_sums(tt, locs.size,
                         lambda ts: (_cos_sin(ts, locs)[1] / locs) ** 2 @ masses)
    edges = gamma.bin_edges
    if values.size and gamma.law == "s2":
        # the spectral bin [2c, 2d] with value g/16 (see module docstring):
        # 2 k(0) - 2 k(t) of it is int_c^d g s^2 sin^2(ts)/s^2 ds
        bins = (2.0 * edges, values / 16.0)
        # k(0) and k(t) scaled back one by one round as bochner_synthesis's do
        rows = 2.0 * (back(_density_part(np.zeros(1), *bins)) - back(_density_part(tt, *bins)))
        # the series takes the bins up to the last with a value: those past it add nothing
        nonzero = np.flatnonzero(values)
        last = nonzero[-1] + 1 if nonzero.size else values.size
        small = tt * bins[0][last] <= _SMALL_LAG
        rows[small] = back(_even_moments(tt[small], bins[0][:last + 1], bins[1][:last]))
        return back(out) + rows
    if values.size:
        nz = _resolved(tt, np.diff(edges))
        # one antiderivative per edge: adjacent bins share their inner edges
        def rows(ts):
            phi, high = _screw_antiderivative(ts, edges)
            return (np.diff(phi, axis=1)
                    + (0.5 * np.pi) * ts[:, None] * np.diff(high, axis=1)) @ values

        out[nz] += _row_sums(tt[nz], values.size, rows)
    return back(out)


def gamma_from_spectral(mu: SpectralMeasure) -> tuple[GammaMeasure, float]:
    """Convert a spectral measure to its gamma representation.

    Returns ``(gamma, zero_atom)``: the atom at frequency 0 does not enter
    gamma (a constant kernel offset produces no metric) and is handed back
    separately.  Atoms and density bins both convert exactly; the bins
    become s^2-law bins (see module docstring).
    """
    locs, masses, edges, values = mu.positive_part()
    masses = _in_range(lambda: 2.0 * locs * (locs * masses), "a gamma atom mass 8 s^2 m")
    gamma = GammaMeasure(atoms=np.column_stack((0.5 * locs, masses)), edges=0.5 * edges,
                         values=_in_range(lambda: 16.0 * values, "a gamma bin value 16 v"),
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

    ``ok`` says a bounded kernel with k(0) = k0 exists (a finite integral
    <= 4 k0 up to ``BOUND_RTOL``); ``tight`` says it is within ``BOUND_RTOL``
    4 k0 of the bound, so that kernel has no mass at frequency 0.  ``integral``
    is the value of :func:`int_bound_integral`, so the verdict compares two
    numbers only.  A bound 4 k0 past the float range reads inf: every finite
    integral is ok under it, and none is tight.  ``margin = 4 k0 (1 +
    BOUND_RTOL) - integral`` is >= 0 exactly when ``ok``, and -inf for an
    infinite integral, also under an infinite bound.
    """
    bound = 4.0 * _number(k0, "k0", 0)
    ceiling = bound * (1.0 + BOUND_RTOL)
    ok = bool(math.isfinite(integral) and integral <= ceiling)
    tight = bool(ok and math.isfinite(bound) and abs(integral - bound) <= BOUND_RTOL * bound)
    margin = ceiling - integral if math.isfinite(integral) else -math.inf
    return {"integral": integral, "bound": bound, "ok": ok, "tight": tight, "margin": margin}


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
    k0 = _number(k0, "k0", 0)
    report = bound_report(int_bound_integral(gamma), k0)
    if not report["ok"]:
        raise UnboundedMetricError(integral=report["integral"], bound=report["bound"])

    s, m = gamma.atom_locations, gamma.atom_masses  # m/(8 s^2) <= the integral: finite
    atoms = np.column_stack((_in_range(lambda: 2.0 * s, "a spectral atom location 2 s"),
                             m / s / s / 8.0))  # never s^2, which underflows below ~1e-154
    edges = _in_range(lambda: 2.0 * gamma.bin_edges, "a spectral bin edge 2 s")
    if gamma.law == "s2":
        values = gamma.bin_values / 16.0
    else:
        values = np.zeros_like(gamma.bin_values)
        nz = gamma.bin_values > 0  # zero-value bins stay zero even at lo == 0
        # on the mantissas, then the exponents: 16 c d leaves the float range
        # for edges below ~1e-154 or above ~1e154
        (g, eg), (c, ec), (d, ed) = (np.frexp(x[nz]) for x in (
            gamma.bin_values, gamma.bin_edges[:-1], gamma.bin_edges[1:]))
        values[nz] = _in_range(lambda: np.ldexp(g / (16.0 * c * d), eg - ec - ed),
                               "a spectral bin value g / (16 c d)")

    measure = SpectralMeasure(atoms=atoms, edges=edges, values=values)
    zero_mass = k0 - measure.total_mass()  # kept >= 0 by the precondition, up to rounding
    return measure if zero_mass <= 0.0 else SpectralMeasure(
        atoms=[(0.0, zero_mass), *atoms], edges=edges, values=values)


#: trapezoid step of the zero-atom average, for atom_at_zero and InversionConfig
_ATOM_STEP = 0.01


def atom_at_zero(kernel: KernelProfile, window: float, step: float = _ATOM_STEP) -> float:
    """Long-run average (1/2T) int_{-T}^{T} k(t) dt by trapezoid quadrature.

    Converges to the mass at frequency zero as the window grows; the
    non-atomic part contributes O(1/T).  The sum runs on the values scaled
    by ``measures._scaled``, and its mean is clamped to their range, which
    rounding could leave: a constant kernel, even of the float maximum,
    averages to itself.
    """
    window = _number(window, "window", 0, above=True)
    step = _number(step, "step", 0, above=True)
    check_elements(window / step + 1.0, "the zero-atom window / step")
    n = max(2, int(round(window / step)) + 1)
    t = np.linspace(0.0, window, n)
    back, values = _scaled(kernel(t))
    return float(_in_range(lambda: back(np.clip(np.trapezoid(values, t) / window,
                                                values.min(), values.max())),
                           "the zero-atom average"))


@dataclass(frozen=True)
class InversionConfig:
    """Tunables of the cosine-transform inversion.

    The defaults are sized so the smooth closed-form pairs round-trip to
    their documented tolerances; everything is overridable.
    """

    t_max: float = 40.0
    n_samples: int = 16001
    n_bins: int = N_BINS
    freq_max: float = FREQ_MAX
    atom_window: float = 200.0
    atom_step: float = _ATOM_STEP

    def __post_init__(self):
        _bin_width(self.n_bins, self.freq_max)  # validates both
        _count(self.n_samples, "n_samples", 2)
        for name in ("t_max", "atom_window", "atom_step"):
            _number(getattr(self, name), name, 0, above=True)
        # per sample the lags, the kernel's values and a temporary of evaluating
        # them; the transform's complex buffer and filter and its chirp tables
        check_elements(3 * self.n_samples + 16 * _block_fft_size(self.n_bins),
                       "the inversion (n_samples, n_bins)")
        step = self.t_max / (self.n_samples - 1)
        if step < np.finfo(float).tiny:  # pi / step, the Nyquist frequency, is finite
            raise ValueError(f"the sampling step t_max / (n_samples - 1) must be a normal "
                             f"float, got {step!r}")


@dataclass(frozen=True)
class InversionResult:
    """Recovered measure plus honesty metadata.

    The fields after ``measure`` are the readings of the ``invert`` summary
    line, in this order.  ``atom0`` is the two-window zero-atom estimate (0
    within the noise floor ``CLAMP_RTOL |k(0)|``).
    ``residual`` is the sup difference between the re-synthesized kernel
    and the input on ``probe_grid(t_max / 8)``, lags the inversion sampled
    (the 201 lags on [-5, 5] at the default t_max); ``clamped_mass`` is the total
    (two-sided) mass removed by clamping small negative density values,
    and ``min_density`` the least density before clamping.
    Three health readings name what the measure leaves out:
    ``mass_gap = k(0) - measure.total_mass()`` is the mass lost, mostly the
    spectral tail above the top edge; ``nyquist_margin = pi/dt - n_bins w``
    is negative when the bins' top edge n_bins w (see
    ``measures.frequency_grid``) is past the sampling's Nyquist frequency;
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
    mass_gap: float
    nyquist_margin: float
    atom_window_gap: float
    tail_gap: float


def _estimate_zero_atom(kernel: KernelProfile, window: float,
                        step: float) -> tuple[float, float]:
    """The zero-atom estimate 2 full - half and |full - half|, the two windows'
    disagreement, of the averages over the window and its half."""
    # Richardson step: the long-run average carries an O(1/T) tail from the
    # non-atomic part; combining two windows cancels that term, which the
    # density tolerances of the slowly-decaying pairs require.
    # the half window first, so that a trace's last kernel evaluation is the full window's
    half = atom_at_zero(kernel, 0.5 * window, step)
    back, full, half = _scaled(atom_at_zero(kernel, window, step), half)
    estimate, gap = back(np.array([2.0 * full - half, abs(full - half)]), "the zero-atom estimate")
    return float(estimate), float(gap)


def bochner_inversion(kernel: KernelProfile,
                      config: InversionConfig = InversionConfig()) -> InversionResult:
    """Recover a spectral measure from a positive definite kernel profile.

    The zero-frequency atom is estimated first (long-run average with a
    two-window tail correction); the remaining density is the cosine
    transform (1/pi) int_0^{t_max} (k(t) - atom0) cos(t tau) dt at the bin
    centres of ``measures.frequency_grid(n_bins, freq_max)``, with
    trapezoid weights on the uniform samples.  The bins come from a chirp-z
    transform run on blocks of samples, each one FFT pair of length S =
    max(4096, a power of two >= 2 n_bins - 1) in one reused buffer (see
    _midpoint_cosine_sums): O(n_samples log S) time, O(n_samples + S)
    memory.  It agrees with the dense trapezoid sum to ~1e-15 times the sum
    of |weighted samples|, far below the clamp threshold.

    The transform stops at ``t_max``, and the missing tail can dip the
    density below zero.  Assuming k - atom0 is monotone beyond ``t_max``
    (true of the decaying zoo kernels, not of oscillating ones), the
    second mean value theorem bounds that tail at frequency tau by
    ``2 * tail_gap / (pi * tau)``.  A bin whose density is below
    ``-(CLAMP_RTOL * |k(0)| + 2 * tail_gap / (pi * tau))`` raises
    :class:`NotPositiveDefiniteError`; smaller negative values are clamped
    to zero and the removed mass is reported.

    Kernels whose spectrum has atoms at nonzero frequencies (pure tones)
    are outside this density-only model and will be rejected by the
    negativity certificate.
    """
    k0 = float(kernel(0.0))
    noise_floor = CLAMP_RTOL * max(abs(k0), 1e-300)

    atom0, atom_window_gap = _estimate_zero_atom(kernel, config.atom_window, config.atom_step)
    if atom0 < -noise_floor:
        raise NotPositiveDefiniteError(
            f"zero-frequency mass estimates to {atom0!r} < 0; "
            "a negative atom rules out positive definiteness",
            atom0=atom0)
    if abs(atom0) <= noise_floor:
        atom0 = 0.0

    dt = config.t_max / (config.n_samples - 1)
    samples = kernel(np.linspace(0.0, config.t_max, config.n_samples))
    g = _in_range(lambda: (samples - atom0) * dt, "a trapezoid term (k - atom0) dt")
    tail_gap = abs(float(samples[-1] - atom0))
    g[[0, -1]] *= 0.5  # the trapezoid weights

    edges, tau = frequency_grid(config.n_bins, config.freq_max)
    back, g = _scaled(g)
    density = _in_range(lambda: back(_midpoint_cosine_sums(g, dt * edges[1], config.n_bins)
                                     / np.pi), "the recovered density")

    # the floor plus the bound on the cut-off tail (monotone past t_max)
    margin = _in_range(lambda: density + noise_floor + 2.0 * tail_gap / (np.pi * tau),
                       "the density plus its allowance")
    j = int(np.argmin(margin))
    if margin[j] < 0.0:
        worst, where = float(density[j]), float(tau[j])
        raise NotPositiveDefiniteError(
            f"recovered density reaches {worst!r} at frequency {where!r}; "
            "negativity beyond quadrature noise and truncation rules out "
            "positive definiteness",
            atom0=atom0, worst_density=worst, frequency=where)
    clamped = np.clip(density, 0.0, None)
    clamped_mass = float(_in_range(lambda: 2.0 * edges[1] * np.sum(clamped - density),
                                   "the clamped mass"))

    atoms = [(0.0, atom0)] if atom0 > 0.0 else []
    measure = SpectralMeasure(atoms=atoms, edges=edges, values=clamped)

    grid = probe_grid(config.t_max / 8)
    residual = float(np.max(np.abs(bochner_synthesis(measure, grid) - kernel(grid))))
    return InversionResult(measure=measure, atom0=atom0, residual=residual,
                           clamped_mass=clamped_mass, min_density=float(np.min(density)),
                           mass_gap=k0 - measure.total_mass(),
                           nyquist_margin=np.pi / dt - edges[-1],
                           atom_window_gap=atom_window_gap,
                           tail_gap=tail_gap)
