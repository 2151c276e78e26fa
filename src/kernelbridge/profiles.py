"""Translation-invariant kernel and squared-metric profiles.

A translation-invariant kernel K(x, y) = k(x - y) is represented by its
one-variable profile k; a translation-invariant squared metric
D^2(x, y) = d2(x - y) by its profile d2.  Both are immutable evaluation
closures plus a serializable descriptor (name + parameters).

The bridge between the two worlds:

    d2(t) = 2 k(0) - 2 k(t)                    (kernel -> squared metric)
    K(x, y) = (d2(x - b) + d2(y - b) - d2(x - y)) / 2
                                               (squared metric -> kernel,
                                                base point b, default 0)

The second direction generally produces a kernel that is *not*
translation invariant (d2(t) = t**2 gives K(x, y) = x*y), which is why
it returns a :class:`BivariateKernel` rather than a profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .exceptions import EvaluationError
from .measures import _count, _in_range, _number, _numbers, _reals, _scaled, check_elements

__all__ = [
    "KernelProfile",
    "MetricProfile",
    "BivariateKernel",
    "TranslationInvarianceReport",
    "zoo",
    "zoo_names",
    "metric_from_kernel",
    "kernel_from_metric",
    "lift_metric",
    "check_translation_invariance",
    "probe_grid",
    "grid_probes",
    "profile_from_samples",
]

#: default probe grid: 201 uniform points on [-10, 10]
PROBE_GRID_SPAN = 10.0
PROBE_GRID_SIZE = 201


def probe_grid(span: float = PROBE_GRID_SPAN, n: int = PROBE_GRID_SIZE) -> np.ndarray:
    """Uniform symmetric grid used for evenness/invariance spot checks.

    ``span`` is a finite number > 0 whose double 2 span is finite too.
    """
    span, n = _number(span, "span", 0, above=True), _count(n, "n", 2)
    if not math.isfinite(2.0 * span):
        raise ValueError(f"span must be at most half the float maximum, got {span!r}")
    check_elements(n, "the probe grid")
    return np.linspace(-span, span, n)


def _evaluate(fn: Callable, what: str, *args) -> np.ndarray:
    """fn(*args) as floats; EvaluationError naming the first argument if not finite."""
    args = [_reals(a, f"the argument{'s' if len(args) > 1 else ''} of {what}") for a in args]
    with np.errstate(all="ignore"):  # a non-finite value is an EvaluationError below
        out = np.asarray(fn(*args), dtype=float)
    if not np.all(np.isfinite(out)):
        flat_out = np.atleast_1d(out).ravel()
        try:
            flat_t = np.broadcast_to(args[0], out.shape).ravel() if out.shape \
                else np.atleast_1d(args[0]).ravel()
        except ValueError:
            flat_t = np.zeros(0)
        bad = np.flatnonzero(~np.isfinite(flat_out))
        offender = float(flat_t[bad[0]]) \
            if bad.size and flat_t.size == flat_out.size else float("nan")
        raise EvaluationError(f"{what} evaluated to a non-finite value at t={offender!r}",
                              argument=offender)
    return out


@dataclass(frozen=True)
class _Profile:
    """A one-variable profile: an evaluation closure plus its descriptor."""

    fn: Callable[[np.ndarray], np.ndarray]
    name: str = "custom"
    params: dict = field(default_factory=dict)

    def __call__(self, t):
        return _evaluate(self.fn, f"{self._noun} {self.name!r}", t)

    def descriptor(self) -> dict:
        return {"name": self.name, "params": {k: float(v) for k, v in self.params.items()}}


class KernelProfile(_Profile):
    """One-variable profile k(t) of a translation-invariant kernel.

    ``fn`` must be vectorized over numpy arrays and even in t; evenness is
    checked on probe grids by callers, never assumed symbolically.
    """

    _noun = "kernel profile"
    __call__ = _Profile.__call__  # its own entry, which bench/tracing.py wraps

    @property
    def k0(self) -> float:
        """Value at the origin, k(0)."""
        return float(self(0.0))


class MetricProfile(_Profile):
    """One-variable profile d2(t) of a translation-invariant squared metric."""

    _noun = "metric profile"


@dataclass(frozen=True)
class BivariateKernel:
    """A symmetric kernel K(x, y), not necessarily translation invariant."""

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    name: str = "custom"

    def __call__(self, x, y):
        return _evaluate(self.fn, f"kernel {self.name!r}", x, y)


_ZOO: dict[str, tuple[Callable[..., Callable], dict]] = {
    # name -> (profile factory taking validated params, default params)
    "gaussian": (lambda scale: lambda t: np.exp(-(t / scale) ** 2 / 2.0), {"scale": 1.0}),
    "laplacian": (lambda scale: lambda t: np.exp(-np.abs(t) / scale), {"scale": 1.0}),
    "cauchy": (lambda scale: lambda t: 2.0 / (1.0 + (t / scale) ** 2), {"scale": 1.0}),
    "cosine": (lambda omega: lambda t: np.cos(omega * t), {"omega": 1.0}),
    "constant": (lambda value: lambda t: np.full_like(t, value), {"value": 1.0}),
}


def zoo_names() -> list[str]:
    return sorted(_ZOO)


def zoo(name: str, /, **params: float) -> KernelProfile:
    """Construct a named kernel profile.

    Available: gaussian exp(-t^2/2), laplacian exp(-|t|), cauchy 2/(1+t^2),
    cosine cos(omega t), constant c.  Every parameter is a finite number
    (see ``measures._number``): ``value`` >= 0, ``scale`` and ``omega`` > 0.
    """
    if name not in _ZOO:
        raise ValueError(f"unknown kernel name {name!r}; expected one of {zoo_names()}")
    factory, defaults = _ZOO[name]
    merged = dict(defaults)
    for key, value in params.items():
        if key not in defaults:
            raise ValueError(f"kernel {name!r} takes no parameter {key!r}")
        merged[key] = _number(value, f"kernel param {key!r}", 0, above=key != "value")
    return KernelProfile(fn=factory(**merged), name=name, params=merged)


def metric_from_kernel(kernel: KernelProfile) -> MetricProfile:
    """Squared metric induced by a translation-invariant kernel.

    d2(t) = 2 (k(0) - k(t)); d2(0) = 0 holds exactly by construction, and the
    doubling is exact, so d2 is finite wherever its value is.
    """
    k0 = kernel.k0

    def d2(t):
        return 2.0 * (k0 - kernel(t))

    return MetricProfile(fn=d2, name=f"metric[{kernel.name}]", params=dict(kernel.params))


def kernel_from_metric(metric: MetricProfile, base: float = 0.0) -> BivariateKernel:
    """Kernel induced by a squared metric via the fixed base point.

    K(x, y) = (d2(x - base) + d2(y - base) - d2(x - y)) / 2, on the terms scaled
    as in gram.nd_to_psd, so K is finite wherever its value is.  The result is
    symmetric but in general not translation invariant.
    """
    base = _number(base, "base")
    d2_0 = float(metric(0.0))
    if abs(d2_0) > 1e-12:
        raise ValueError(f"metric profile must vanish at 0, got d2(0) = {d2_0!r}")

    def K(x, y):
        back, a, b, c = _scaled(metric(x - base), metric(y - base), metric(x - y))
        return back(0.5 * (a + b - c))

    return BivariateKernel(fn=K, name=f"kernel[{metric.name}]")


def lift_metric(metric: MetricProfile) -> BivariateKernel:
    """View a squared-metric profile as the bivariate form D2(x, y) = d2(x - y)."""
    return BivariateKernel(fn=lambda x, y: metric(x - y), name=f"lift[{metric.name}]")


@dataclass(frozen=True)
class TranslationInvarianceReport:
    invariant: bool
    worst_violation: float
    worst_probe: tuple[float, float, float]


def check_translation_invariance(kernel: BivariateKernel, probes,
                                 tol: float = 1e-9) -> TranslationInvarianceReport:
    """Check |K(x+s, y+s) - K(x, y)| <= tol over the given (x, y, s) probes."""
    tol = _number(tol, "tol", 0)
    probes = _numbers(probes, "probes")
    if probes.ndim != 2 or probes.shape[1] != 3 or probes.shape[0] == 0:
        raise ValueError("probes must be a non-empty list of (x, y, shift) triples")
    x, y, s = probes[:, 0], probes[:, 1], probes[:, 2]
    xs, ys = _in_range(lambda: (x + s, y + s), "a shifted probe")
    violation = _in_range(lambda: np.abs(kernel(xs, ys) - kernel(x, y)),
                          "the translation-invariance violation")
    worst = int(np.argmax(violation))
    return TranslationInvarianceReport(
        invariant=bool(violation[worst] <= tol),
        worst_violation=float(violation[worst]),
        worst_probe=(float(x[worst]), float(y[worst]), float(s[worst])),
    )


def grid_probes(span: float = 4.0, n: int = 7) -> np.ndarray:
    """All (x, y, shift) triples over a small uniform grid."""
    check_elements(3 * _count(n, "n", 2) ** 3, "the probe triples")
    g = probe_grid(span, n)
    x, y, s = np.meshgrid(g, g, g, indexing="ij")
    return np.column_stack([x.ravel(), y.ravel(), s.ravel()])


def _interp(u: np.ndarray, t: np.ndarray, values: np.ndarray, steep: np.ndarray) -> np.ndarray:
    """np.interp(u, t, values); inside the intervals [c, d] marked ``steep``, where its
    slope (b - a) / (d - c) is not a normal float, (1 - w) a + w b instead."""
    out = np.array(np.interp(u, t, values))  # an array, so that a scalar can be replaced
    if steep.any():
        i = np.clip(np.searchsorted(t, u, side="right"), 1, t.size - 1)
        inside = steep[i - 1] & (t[i - 1] < u) & (u < t[i])
        i, u = i[inside], u[inside]
        (a, b), (c, d) = values[[i - 1, i]], t[[i - 1, i]]
        out[inside] = (1.0 - (u - c) / (d - c)) * a + (u - c) / (d - c) * b
    return out


def profile_from_samples(t, values, name: str = "sampled") -> KernelProfile:
    """Even profile interpolated linearly from samples of k on t >= 0.

    Evaluation uses |t|; asking for |t| beyond the sampled range raises an
    :class:`EvaluationError` rather than extrapolating.  It interpolates the
    samples scaled by ``measures._scaled``: its bits are np.interp's unless a
    scaled sample is subnormal.  Where np.interp's slope is not a normal float
    (samples ~1e-308 apart in t, or far apart and far below the largest), a
    point is taken between its two neighbours instead.
    """
    t, values = _numbers(t, "samples"), _numbers(values, "samples")
    if t.ndim != 1 or t.shape != values.shape or t.size < 2:
        raise ValueError("need matching 1-d arrays with at least two samples")
    order = np.argsort(t)
    t, values = t[order], values[order]
    if t[0] < 0:
        raise ValueError("samples must be on t >= 0 (the profile is even)")
    t_max = float(t[-1])
    back, values = _scaled(values)
    slope, floats = _in_range(lambda: np.abs(np.diff(values)) / np.diff(t), None), np.finfo(float)
    steep = (np.diff(values) != 0.0) & ~((floats.tiny <= slope) & (slope <= floats.max))

    def fn(u):
        u = np.abs(u)
        if np.any(u > t_max * (1 + 1e-12)):
            bad = float(np.max(u))
            raise EvaluationError(
                f"sampled profile {name!r} queried at |t|={bad!r} beyond range {t_max!r}",
                argument=bad)
        return back(_interp(u, t, values, steep))

    return KernelProfile(fn=fn, name=name, params={})
