"""Finite-sample definiteness calculus.

Gram construction, positive/negative definiteness verdicts with eigen
witnesses, the centering transform that turns a negative definite kernel
sample into a positive definite one, and Euclidean embedding extraction
from squared-distance matrices.

Definiteness of an n x n sample is decided spectrally with a relative
tolerance: a matrix counts as positive semidefinite when its smallest
eigenvalue is >= -tol * n * max|diag|, or the solver's rounding floor
-eps * n^2 * max|diag| where that is lower.  Negative definiteness is tested
on the subspace orthogonal to the all-ones vector by projecting,
P = I - (1/n) 1 1^T, and eigen-testing P N P (with the all-ones direction
deflated away so it can never masquerade as a witness), against
tol * n * max|N| plus the solver's rounding floor.  Embedding is classical
scaling (Torgerson) on that one eigendecomposition, so it rejects exactly
when the negative definiteness test fails, under the same ``tol``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import EigenSolverError, NotHilbertianError
from .measures import _count, _in_range, _number, _numbers, _scaled, check_elements
from .profiles import KernelProfile

__all__ = [
    "GramMatrix",
    "DefinitenessVerdict",
    "EmbeddingResult",
    "build_gram",
    "is_positive_definite",
    "is_negative_definite",
    "nd_to_psd",
    "euclidean_embedding",
]

DEFAULT_TOL = 1e-10
SYMMETRY_RTOL = 1e-12


def _check_symmetric(entries: np.ndarray, what: str) -> np.ndarray:
    """The entries, if max |S - S^T| <= SYMMETRY_RTOL max |S| on the entries S scaled
    by ``measures._scaled``; the asymmetry is read back, inf past the float range."""
    entries = _numbers(entries, what)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ValueError(f"{what} must be square, got shape {entries.shape}")
    if entries.size == 0:
        raise ValueError(f"{what} is empty (0 x 0)")
    back, scaled = _scaled(entries)
    asym = np.max(np.abs(scaled - scaled.T))
    if asym > SYMMETRY_RTOL * np.max(np.abs(scaled)):
        raise ValueError(f"{what} is not symmetric: max |A - A^T| = {float(back(asym))!r}")
    return entries


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Kernel values K(x_i, x_j) over a finite point sample."""

    points: np.ndarray
    entries: np.ndarray

    def __post_init__(self):
        points = _numbers(self.points, "points").ravel()
        entries = _check_symmetric(self.entries, "Gram matrix")
        if entries.shape[0] != points.size:
            raise ValueError("points and entries are inconsistently sized")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "entries", entries)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class DefinitenessVerdict:
    """Outcome of a definiteness test plus the certifying eigenpair.

    ``margin``, the witness eigenvalue's signed distance from ``threshold``,
    is >= 0 exactly when the verdict holds; otherwise the witness vector
    reproduces a quadratic form of the wrong sign beyond tolerance.  The fields are
    the readings of ``check-psd``, ``check-nd`` and :class:`NotHilbertianError`.
    """

    witness_eigenvalue: float
    witness_vector: np.ndarray
    threshold: float
    margin: float

    @property
    def verdict(self) -> bool:
        return self.margin >= 0.0

    def __bool__(self) -> bool:
        return self.verdict


@dataclass(frozen=True, eq=False)
class EmbeddingResult:
    """Euclidean coordinates recovered from a squared-distance sample; ``rank``
    and ``residual`` are the readings of the ``embed`` summary line."""

    coordinates: np.ndarray  # n x r, row i is the image of point i
    rank: int
    residual: float  # max abs deviation of reconstructed squared distances


def _entries(matrix) -> np.ndarray:
    if isinstance(matrix, GramMatrix):
        return matrix.entries
    return _check_symmetric(matrix, "matrix")


def _eigh(entries: np.ndarray, back):  # of scaled entries, read back on failure
    try:
        return np.linalg.eigh(entries)
    except np.linalg.LinAlgError as exc:
        diagnostics = {
            "n": int(entries.shape[0]),
            "max_abs_entry": float(back(np.max(np.abs(entries)))),
            "max_asymmetry": float(back(np.max(np.abs(entries - entries.T)))),
        }
        raise EigenSolverError(f"eigensolver failed to converge: {exc}",
                               diagnostics=diagnostics) from exc


def build_gram(profile: KernelProfile, points) -> GramMatrix:
    """Gram matrix of a translation-invariant kernel over sample points."""
    points = _numbers(points, "points").ravel()
    if points.size == 0:
        raise ValueError("points must be non-empty")
    check_elements(points.size ** 2, "the Gram matrix of the points")
    diff = _in_range(lambda: points[:, None] - points[None, :],
                     "a lag x_i - x_j of the points")
    return GramMatrix(points=points, entries=profile(diff))


def is_positive_definite(gram, tol: float = DEFAULT_TOL) -> DefinitenessVerdict:
    """Spectral PSD test: min eigenvalue >= -max(tol, eps n) * n * max|diag|.

    eps n^2 max|diag| is the solver's rounding floor, that of
    :func:`is_negative_definite` without its deflation term, scaled as that is.
    """
    tol = _number(tol, "tol", 0)
    entries = _entries(gram)
    n = entries.shape[0]
    back, scaled = _scaled(entries)
    eigvals, eigvecs = _eigh(scaled, back)
    # only the least eigenvalue is read: a greater one past the float range
    # (all entries 1e308) leaves the verdict finite
    witness = float(back(eigvals[0], "an eigenvalue of the matrix"))
    scale = float(np.max(np.abs(np.diag(entries))))
    if scale == 0.0:  # degenerate all-zero diagonal, fall back to entry scale
        scale = float(np.max(np.abs(entries)))
    threshold = -max(tol * n * scale, float(np.finfo(float).eps) * n * n * scale)
    return DefinitenessVerdict(witness, eigvecs[:, 0], threshold, witness - threshold)


def _projected_eigh(entries: np.ndarray, tol: float):
    """``(verdict, eigvals, eigvecs, floor, back, scaled)`` of P N P with the
    all-ones direction deflated to eigenpair 0; ``floor`` is the rounding floor.

    Solved on N scaled by ``measures._scaled`` (all but the verdict stay scaled;
    ``back`` scales them back), so nothing overflows, scaling N by 2**k scales
    the verdict exactly, and the verdict reads only its witness eigenvalue.
    """
    n = entries.shape[0]
    back, entries = _scaled(entries)
    ones = np.full(n, 1.0 / np.sqrt(n))
    projected = entries - np.outer(ones, ones @ entries)
    projected = projected - np.outer(projected @ ones, ones)
    projected = 0.5 * (projected + projected.T)
    scale = float(np.max(np.abs(entries)))
    # ||P N P|| <= n * scale, so beta sinks the all-ones direction strictly
    # below every other eigenvalue (1 for the zero matrix)
    beta = (n + 1) * scale or 1.0
    eigvals, eigvecs = _eigh(projected - beta * np.outer(ones, ones), back)
    # the deflation term has norm beta, so allow its backward-error noise
    floor = float(np.finfo(float).eps) * n * beta
    witness = float(back(eigvals[-1], "an eigenvalue of the projected matrix"))
    threshold = float(back(tol * n * scale + floor))  # inf for a huge tol
    verdict = DefinitenessVerdict(witness, eigvecs[:, -1], threshold, threshold - witness)
    return verdict, eigvals, eigvecs, floor, back, entries


def is_negative_definite(matrix, tol: float = DEFAULT_TOL) -> DefinitenessVerdict:
    """Test c^T N c <= 0 for all c orthogonal to the all-ones vector.

    The scale for the relative threshold is max|entries| rather than
    max|diag| because the canonical inputs (squared distances) have a zero
    diagonal.  A 1 x 1 matrix is rejected: the complement of the all-ones
    vector is then {0}, so there is no direction to test or witness.
    """
    tol = _number(tol, "tol", 0)
    entries = _entries(matrix)
    if entries.shape[0] < 2:
        raise ValueError("negative definiteness needs a matrix of size >= 2")
    return _projected_eigh(entries, tol)[0]


def nd_to_psd(matrix, base_index: int = 0) -> np.ndarray:
    """Center a candidate negative definite sample at one of its points.

    K(i, j) = (N(i, b) + N(j, b) - N(i, j) - N(b, b)) / 2.  Row and column
    b of the result are identically zero, and N is negative definite iff
    the result is positive definite.  Formed on the entries scaled by
    ``measures._scaled``, a non-negative N gives a finite result; a base_index
    outside 0 .. n - 1 and a result past the float range are ValueErrors.
    """
    entries = _entries(matrix)
    n = entries.shape[0]
    base_index = _count(base_index, "base_index")
    if not 0 <= base_index < n:
        raise ValueError(f"base_index {base_index} is out of range for n={n}")
    back, scaled = _scaled(entries)
    col = scaled[:, base_index]
    # row and column b, zeroed below, are 0 up to rounding: never past the range
    out = back(0.5 * (col[:, None] + col[None, :] - scaled - scaled[base_index, base_index]),
               "the centred matrix")
    out[base_index, :] = 0.0
    out[:, base_index] = 0.0
    return out


def euclidean_embedding(d2_matrix, tol: float = DEFAULT_TOL) -> EmbeddingResult:
    """Classical scaling on the decomposition of :func:`is_negative_definite`.

    Raises :class:`NotHilbertianError` exactly when that verdict fails, with
    its witness (orthogonal to all-ones, positive quadratic form),
    threshold and margin.  Otherwise row i of ``coordinates`` is point i,
    centred at the centroid, columns in descending eigenvalue order of
    -1/2 P D P; ``rank`` counts the directions above the rounding floor.
    The residual is recomputed from the coordinates, never assumed.
    """
    tol = _number(tol, "tol", 0)
    entries = _entries(d2_matrix)
    scale = float(np.max(np.abs(entries)))
    if float(np.max(np.abs(np.diag(entries)))) > tol * scale:
        raise ValueError("squared-distance matrix must have a zero diagonal")
    if float(np.min(entries)) < -tol * scale:
        raise ValueError("squared-distance matrix must be entrywise non-negative")

    nd, eigvals, eigvecs, floor, back, scaled = _projected_eigh(entries, tol)
    if not nd.verdict:
        raise NotHilbertianError(
            "sample is not a Hilbertian squared-distance matrix "
            f"(projected matrix has eigenvalue {nd.witness_eigenvalue!r})", **vars(nd))

    # past the deflated eigenpair 0 the eigenvalues ascend: -1/2 of them descend
    keep = eigvals[1:] < -floor
    coordinates = eigvecs[:, 1:][:, keep] * np.sqrt(-0.5 * eigvals[1:][keep])

    sq_norms = np.sum(coordinates ** 2, axis=1)
    reconstructed = sq_norms[:, None] + sq_norms[None, :] - 2.0 * coordinates @ coordinates.T
    residual = float(back(np.max(np.abs(reconstructed - scaled)), "the embedding residual"))
    return EmbeddingResult(coordinates=back(coordinates, "a coordinate", degree=0.5),
                           rank=int(np.sum(keep)), residual=residual)
