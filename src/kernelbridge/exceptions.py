"""Error taxonomy.

Two families matter to callers (and to the CLI exit codes):

* plain validation problems -- bad inputs, unknown names, malformed files.
  These are ``ValueError`` or :class:`EvaluationError` / :class:`EigenSolverError`.
* mathematical rejections -- the input is well formed but the requested
  object does not exist (a sample that is not negative definite, a metric
  with no bounded kernel, a kernel that is not positive definite).  These
  subclass :class:`MathematicalRejection`; the CLI prints their
  machine-readable diagnostic.
"""

from __future__ import annotations

from types import MappingProxyType


class KernelBridgeError(Exception):
    """Base class for library-specific errors.

    Each keyword reading becomes an attribute; :meth:`diagnostic` reports
    the readings that are not None, in the order given.  A subclass
    declares the default of a reading it may lack as a class attribute.
    """

    #: short stable identifier used in CLI diagnostics
    code = "KernelBridgeError"

    def __init__(self, message: str, **readings):
        super().__init__(message)
        self._readings = tuple(readings)
        for name, value in readings.items():
            setattr(self, name, value)

    def diagnostic(self) -> dict:
        """``error``, ``message``, then the readings that are not None.

        Array readings stay arrays; ``io.dumps_json`` writes them as lists.
        """
        readings = {name: getattr(self, name) for name in self._readings}
        return {"error": self.code, "message": str(self),
                **{name: value for name, value in readings.items() if value is not None}}


class EvaluationError(KernelBridgeError):
    """A profile produced a non-finite value; ``argument`` names the offending argument."""

    argument = None


class EigenSolverError(KernelBridgeError):
    """The symmetric eigensolver failed to converge; ``diagnostics`` holds the
    offending matrix's condition readings, to triage without re-running."""

    diagnostics = MappingProxyType({})


class MathematicalRejection(KernelBridgeError):
    """Base for rejections that certify a mathematical impossibility."""

    code = "MathematicalRejection"


class NotHilbertianError(MathematicalRejection):
    """A squared-distance sample admits no Euclidean/Hilbert embedding.

    ``witness_vector`` is a unit vector orthogonal to the all-ones
    direction whose quadratic form against the input is positive;
    ``witness_eigenvalue`` is that (positive) quadratic-form value.
    ``threshold`` and ``margin`` are those of the negative definiteness
    verdict (``margin`` = threshold - eigenvalue, negative here); None when
    not measured.  The diagnostic lists ``witness_eigenvalue`` first, then
    the other readings in the order given.
    """

    code = "NotHilbertian"
    witness_vector = threshold = margin = None

    def __init__(self, message: str, witness_eigenvalue: float, **readings):
        super().__init__(message, witness_eigenvalue=float(witness_eigenvalue), **readings)


class UnboundedMetricError(MathematicalRejection):
    """The metric has no bounded translation-invariant kernel.

    Raised when the quadratic-decay integral of a gamma measure exceeds
    four times the requested kernel value at zero.
    """

    code = "UnboundedMetric"

    def __init__(self, integral: float, bound: float):
        super().__init__(
            "metric has no bounded translation-invariant kernel: "
            f"integral of t^-2 d(gamma) = {integral!r} exceeds 4*k(0) = {bound!r}",
            integral=float(integral), bound=float(bound))


class NotPositiveDefiniteError(MathematicalRejection):
    """Spectral inversion certified that the profile is not positive definite.

    Either the zero-frequency mass estimate is negative (a negative atom)
    or the recovered density has negative components beyond quadrature
    noise.  The readings ``atom0``, ``worst_density`` and ``frequency``
    are None when not measured.
    """

    code = "NotPositiveDefinite"
    atom0 = worst_density = frequency = None
