"""kernelbridge: executable transforms between translation-invariant
positive definite kernels, Hilbertian metrics, and spectral measures on
the real line.

The package is organized around the three equivalent descriptions of a
translation-invariant kernel:

* finite samples (``gram``): Gram matrices, definiteness verdicts with
  eigen witnesses, the ND -> PSD centering transform, and Euclidean
  embedding extraction;
* profiles (``profiles``): one-variable kernel and squared-metric
  profiles, the bridge between them, and a small zoo of named kernels;
* measures (``measures`` / ``spectral``): bounded positive measures as
  atoms plus binned densities, synthesis in both the cosine and the
  sin^2/s^2 representations, the conversions linking them, numerical
  inversion, and the boundedness certificate separating metrics with and
  without a bounded kernel.

``product`` extends the measure machinery to separable kernels on R^d;
``features`` turns measures into randomized cosine feature maps; ``cli``
exposes everything for scripted runs.
"""

from .exceptions import (EigenSolverError, EvaluationError, KernelBridgeError,
                         MathematicalRejection, NotHilbertianError,
                         NotPositiveDefiniteError, UnboundedMetricError)
from .features import (FrequencySample, approximate_kernel, feature_matrix,
                       sample_frequencies, sample_product_frequencies)
from .gram import (DefinitenessVerdict, EmbeddingResult, GramMatrix, build_gram,
                   euclidean_embedding, is_negative_definite, is_positive_definite,
                   nd_to_psd)
from .measures import (GammaMeasure, SpectralMeasure, cauchy_measure,
                       constant_measure, cosine_measure, gaussian_measure,
                       laplacian_measure)
from .product import (ProductSpectralMeasure, SeparableKernel, product_synthesis,
                      separable_eval)
from .profiles import (BivariateKernel, KernelProfile, MetricProfile,
                       check_translation_invariance, grid_probes,
                       kernel_from_metric, lift_metric, metric_from_kernel,
                       probe_grid, profile_from_samples, zoo, zoo_names)
from .spectral import (InversionConfig, InversionResult, atom_at_zero,
                       bochner_inversion, bochner_synthesis, bound_report,
                       gamma_from_spectral, int_bound_integral,
                       screw_synthesis, spectral_from_gamma)

__version__ = "0.1.0"

__all__ = [
    "KernelBridgeError", "EvaluationError", "EigenSolverError",
    "MathematicalRejection", "NotHilbertianError", "NotPositiveDefiniteError",
    "UnboundedMetricError",
    "GramMatrix", "DefinitenessVerdict",
    "EmbeddingResult", "build_gram", "is_positive_definite",
    "is_negative_definite", "nd_to_psd", "euclidean_embedding",
    "KernelProfile", "MetricProfile", "BivariateKernel", "zoo", "zoo_names",
    "metric_from_kernel", "kernel_from_metric", "lift_metric",
    "check_translation_invariance", "probe_grid", "grid_probes",
    "profile_from_samples",
    "SpectralMeasure", "GammaMeasure", "gaussian_measure", "laplacian_measure",
    "cauchy_measure", "cosine_measure", "constant_measure",
    "bochner_synthesis", "screw_synthesis", "gamma_from_spectral",
    "spectral_from_gamma", "int_bound_integral", "bound_report", "atom_at_zero",
    "bochner_inversion", "InversionConfig", "InversionResult",
    "SeparableKernel", "ProductSpectralMeasure", "separable_eval",
    "product_synthesis",
    "FrequencySample", "sample_frequencies", "sample_product_frequencies",
    "feature_matrix", "approximate_kernel",
]
