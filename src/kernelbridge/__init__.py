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

from .exceptions import *
from .features import *
from .gram import *
from .measures import *
from .product import *
from .profiles import *
from .spectral import *

# each module's __all__ is the one list of its public names
__all__ = [name for module in (exceptions, features, gram, measures, product, profiles, spectral)
           for name in module.__all__]

__version__ = "0.1.0"
