"""Finite-sample definiteness calculus.

Gram construction, positive/negative definiteness verdicts with eigen
witnesses, the centering transform that turns a negative definite kernel
sample into a positive definite one, and Euclidean embedding extraction
from squared-distance matrices.

Definiteness of an n x n sample is decided spectrally with a relative
tolerance: a matrix counts as positive semidefinite when its smallest
eigenvalue is >= -tol * n * max|diag|.  Negative definiteness is tested
on the subspace orthogonal to the all-ones vector by projecting,
P = I - (1/n) 1 1^T, and eigen-testing P N P (with the all-ones direction
deflated away so it can never masquerade as a witness).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import EigenSolverError, NotHilbertianError
from .profiles import KernelProfile

__all__ = [
    "GramMatrix",
    "SymmetricKernelMatrix",
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
    entries = np.asarray(entries, dtype=float)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ValueError(f"{what} must be square, got shape {entries.shape}")
    if entries.size == 0:
        raise ValueError(f"{what} is empty (0 x 0)")
    if not np.all(np.isfinite(entries)):
        raise ValueError(f"{what} has non-finite entries")
    scale = float(np.max(np.abs(entries)))
    asym = float(np.max(np.abs(entries - entries.T)))
    if asym > SYMMETRY_RTOL * max(scale, 1e-300):
        raise ValueError(f"{what} is not symmetric: max |A - A^T| = {asym!r}")
    return entries


@dataclass(frozen=True)
class GramMatrix:
    """Kernel values K(x_i, x_j) over a finite point sample."""

    points: np.ndarray
    entries: np.ndarray

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float).ravel()
        entries = _check_symmetric(self.entries, "Gram matrix")
        if entries.shape[0] != points.size:
            raise ValueError("points and entries are inconsistently sized")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "entries", entries)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class SymmetricKernelMatrix:
    """Sampled values of a candidate negative definite kernel."""

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries",
                           _check_symmetric(self.entries, "kernel matrix"))

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class DefinitenessVerdict:
    """Outcome of a definiteness test plus the certifying eigenpair.

    When ``verdict`` is False the witness vector reproduces a quadratic
    form of the wrong sign beyond tolerance.
    """

    verdict: bool
    witness_eigenvalue: float
    witness_vector: np.ndarray

    def __bool__(self) -> bool:
        return self.verdict


@dataclass(frozen=True)
class EmbeddingResult:
    """Euclidean coordinates recovered from a squared-distance sample."""

    coordinates: np.ndarray  # n x r, row i is the image of point i
    rank: int
    residual: float  # max abs deviation of reconstructed squared distances


def _entries(matrix) -> np.ndarray:
    if isinstance(matrix, (GramMatrix, SymmetricKernelMatrix)):
        return matrix.entries
    return _check_symmetric(matrix, "matrix")


def _eigh(entries: np.ndarray):
    try:
        return np.linalg.eigh(entries)
    except np.linalg.LinAlgError as exc:
        scale = float(np.max(np.abs(entries)))
        diagnostics = {
            "n": int(entries.shape[0]),
            "max_abs_entry": scale,
            "max_asymmetry": float(np.max(np.abs(entries - entries.T))),
            "has_nonfinite": bool(not np.all(np.isfinite(entries))),
        }
        raise EigenSolverError(f"eigensolver failed to converge: {exc}",
                               diagnostics=diagnostics) from exc


def build_gram(profile: KernelProfile, points) -> GramMatrix:
    """Gram matrix of a translation-invariant kernel over sample points."""
    points = np.asarray(points, dtype=float).ravel()
    if points.size == 0:
        raise ValueError("points must be non-empty")
    if not np.all(np.isfinite(points)):
        raise ValueError("points must be finite")
    diff = points[:, None] - points[None, :]
    return GramMatrix(points=points, entries=profile(diff))


def is_positive_definite(gram, tol: float = DEFAULT_TOL) -> DefinitenessVerdict:
    """Spectral PSD test: min eigenvalue >= -tol * n * max|diag|."""
    entries = _entries(gram)
    n = entries.shape[0]
    eigvals, eigvecs = _eigh(entries)
    scale = float(np.max(np.abs(np.diag(entries))))
    if scale == 0.0:  # degenerate all-zero diagonal, fall back to entry scale
        scale = float(np.max(np.abs(entries)))
    threshold = -tol * n * scale
    return DefinitenessVerdict(
        verdict=bool(eigvals[0] >= threshold),
        witness_eigenvalue=float(eigvals[0]),
        witness_vector=eigvecs[:, 0],
    )


def is_negative_definite(matrix, tol: float = DEFAULT_TOL) -> DefinitenessVerdict:
    """Test c^T N c <= 0 for all c orthogonal to the all-ones vector.

    The scale for the relative threshold is max|entries| rather than
    max|diag| because the canonical inputs (squared distances) have a zero
    diagonal.  A 1 x 1 matrix is rejected: the complement of the all-ones
    vector is then {0}, so there is no direction to test or witness.
    """
    entries = _entries(matrix)
    n = entries.shape[0]
    if n < 2:
        raise ValueError("negative definiteness needs a matrix of size >= 2")
    ones = np.full(n, 1.0 / np.sqrt(n))
    projected = entries - np.outer(ones, ones @ entries)
    projected = projected - np.outer(projected @ ones, ones)
    projected = 0.5 * (projected + projected.T)
    scale = float(np.max(np.abs(entries)))
    # sink the all-ones direction far below zero so the top eigenpair
    # always lives in the orthogonal complement
    beta = 1.0 + n * scale
    deflated = projected - beta * np.outer(ones, ones)
    eigvals, eigvecs = _eigh(deflated)
    top = float(eigvals[-1])
    witness = eigvecs[:, -1]
    # the deflation term has norm beta, so allow its backward-error noise
    threshold = tol * n * scale + np.finfo(float).eps * n * beta
    return DefinitenessVerdict(
        verdict=bool(top <= threshold),
        witness_eigenvalue=top,
        witness_vector=witness,
    )


def nd_to_psd(matrix, base_index: int = 0) -> np.ndarray:
    """Center a candidate negative definite sample at one of its points.

    K(i, j) = (N(i, b) + N(j, b) - N(i, j) - N(b, b)) / 2.  Row and column
    b of the result are identically zero, and N is negative definite iff
    the result is positive definite.
    """
    entries = _entries(matrix)
    n = entries.shape[0]
    if not 0 <= base_index < n:
        raise IndexError(f"base_index {base_index} out of range for n={n}")
    col = entries[:, base_index]
    out = 0.5 * (col[:, None] + col[None, :] - entries - entries[base_index, base_index])
    out[base_index, :] = 0.0
    out[:, base_index] = 0.0
    return out


def euclidean_embedding(d2_matrix, tol: float = DEFAULT_TOL) -> EmbeddingResult:
    """Recover Euclidean coordinates reproducing a squared-distance sample.

    Centers at point 0, eigendecomposes, and keeps eigendirections whose
    eigenvalue clears the relative tolerance; the embedding dimension is
    data driven.  The residual is recomputed from the coordinates, never
    assumed.  Raises :class:`NotHilbertianError` when negative eigenvalues
    exceed tolerance; the attached witness is the negative-definiteness
    witness of the input, i.e. a direction (orthogonal to all-ones) with a
    positive quadratic form.
    """
    entries = _entries(d2_matrix)
    n = entries.shape[0]
    scale = float(np.max(np.abs(entries)))
    if float(np.max(np.abs(np.diag(entries)))) > tol * max(scale, 1.0):
        raise ValueError("squared-distance matrix must have a zero diagonal")
    if float(np.min(entries)) < -tol * max(scale, 1.0):
        raise ValueError("squared-distance matrix must be entrywise non-negative")

    gram = nd_to_psd(entries, base_index=0)
    eigvals, eigvecs = _eigh(gram)
    gram_scale = float(np.max(np.abs(np.diag(gram))))
    if gram_scale == 0.0:
        gram_scale = float(np.max(np.abs(gram)))
    threshold = tol * n * gram_scale
    if eigvals[0] < -threshold:
        nd = is_negative_definite(entries, tol=tol)
        witness_eig = nd.witness_eigenvalue if not nd.verdict else float(eigvals[0])
        witness_vec = nd.witness_vector if not nd.verdict else eigvecs[:, 0]
        raise NotHilbertianError(
            "sample is not a Hilbertian squared-distance matrix "
            f"(centered matrix has eigenvalue {float(eigvals[0])!r})",
            witness_eigenvalue=witness_eig,
            witness_vector=witness_vec,
        )

    keep = eigvals > threshold
    order = np.argsort(eigvals[keep])[::-1]
    vals = eigvals[keep][order]
    vecs = eigvecs[:, keep][:, order]
    coordinates = vecs * np.sqrt(vals)[None, :]

    sq_norms = np.sum(coordinates ** 2, axis=1)
    reconstructed = sq_norms[:, None] + sq_norms[None, :] - 2.0 * coordinates @ coordinates.T
    residual = float(np.max(np.abs(reconstructed - entries)))
    return EmbeddingResult(coordinates=coordinates, rank=int(np.sum(keep)),
                           residual=residual)
