"""Rejection diagnostics: error, message, then the readings given, in order."""

import numpy as np
import pytest

import kernelbridge as kb
from kernelbridge import io


def test_not_hilbertian_diagnostic():
    err = kb.NotHilbertianError("not Hilbertian", witness_eigenvalue=np.float64(2.5),
                                witness_vector=np.array([0.6, -0.8]))
    assert type(err.witness_eigenvalue) is float
    assert isinstance(err.witness_vector, np.ndarray)
    assert list(err.diagnostic()) == ["error", "message", "witness_eigenvalue",
                                      "witness_vector"]
    assert io.dumps_json(err.diagnostic()) == (
        '{"error": "NotHilbertian", "message": "not Hilbertian", '
        '"witness_eigenvalue": 2.5, "witness_vector": [0.6, -0.8]}')
    bare = kb.NotHilbertianError("not Hilbertian", witness_eigenvalue=1.0)
    assert bare.witness_vector is None
    assert list(bare.diagnostic()) == ["error", "message", "witness_eigenvalue"]


def test_not_hilbertian_passes_further_readings_on():
    # euclidean_embedding raises with the verdict's fields: one added to
    # DefinitenessVerdict must reach the diagnostic, not raise TypeError
    err = kb.NotHilbertianError("not Hilbertian", witness_eigenvalue=1.0, margin=-1.0,
                                spread=3.0)
    assert err.spread == 3.0
    assert list(err.diagnostic()) == ["error", "message", "witness_eigenvalue", "margin",
                                      "spread"]


def test_unbounded_metric_diagnostic():
    err = kb.UnboundedMetricError(integral=float("inf"), bound=4)
    assert (err.integral, err.bound) == (float("inf"), 4.0)
    assert io.dumps_json(err.diagnostic()) == (
        '{"error": "UnboundedMetric", "message": "metric has no bounded '
        'translation-invariant kernel: integral of t^-2 d(gamma) = inf exceeds '
        '4*k(0) = 4", "integral": "inf", "bound": 4.0}')


def test_not_positive_definite_diagnostic():
    atom = kb.NotPositiveDefiniteError("negative atom", atom0=-0.5)
    assert (atom.worst_density, atom.frequency) == (None, None)
    assert atom.diagnostic() == {"error": "NotPositiveDefinite",
                                 "message": "negative atom", "atom0": -0.5}
    density = kb.NotPositiveDefiniteError("negative density", atom0=0.0,
                                          worst_density=-0.1, frequency=2.0)
    assert list(density.diagnostic()) == ["error", "message", "atom0", "worst_density",
                                          "frequency"]
    assert kb.NotPositiveDefiniteError("no readings").diagnostic() == {
        "error": "NotPositiveDefinite", "message": "no readings"}


def test_raised_rejections_keep_their_key_order():
    with pytest.raises(kb.NotHilbertianError) as hilbert:
        kb.euclidean_embedding(np.array([[0.0, 1.0, 16.0], [1.0, 0.0, 1.0],
                                         [16.0, 1.0, 0.0]]))
    assert list(hilbert.value.diagnostic())[2:] == ["witness_eigenvalue", "witness_vector",
                                                    "threshold", "margin"]
    with pytest.raises(kb.UnboundedMetricError) as unbounded:
        kb.spectral_from_gamma(kb.GammaMeasure(edges=[0.0, 1.0], values=[1.0]), k0=1.0)
    assert list(unbounded.value.diagnostic())[2:] == ["integral", "bound"]
    box = kb.KernelProfile(fn=lambda t: (np.abs(t) < 1.0).astype(float), name="box")
    with pytest.raises(kb.NotPositiveDefiniteError) as density:
        kb.bochner_inversion(box, kb.InversionConfig(t_max=10.0, n_samples=4001))
    assert list(density.value.diagnostic())[2:] == ["atom0", "worst_density", "frequency"]
