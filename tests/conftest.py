import gc

import numpy as np
import pytest

import kernelbridge as kb


def random_spectral_measure(rng, binned=True):
    """Random valid measure: optional zero atom, a few atoms, a few bins."""
    atoms = []
    if rng.random() < 0.5:
        atoms.append((0.0, float(rng.uniform(0.0, 1.0))))
    for _ in range(int(rng.integers(0, 4))):
        atoms.append((float(rng.uniform(0.05, 6.0)), float(rng.uniform(0.0, 1.0))))
    edges, values = (), ()
    if binned and rng.random() < 0.8:
        n = int(rng.integers(1, 7))
        while True:
            edges = np.sort(rng.uniform(0.0, 6.0, n + 1))
            if np.all(np.diff(edges) > 1e-3):
                break
        if rng.random() < 0.3:
            edges[0] = 0.0
        values = rng.uniform(0.0, 1.0, n)
    measure = kb.SpectralMeasure(atoms=atoms, edges=edges, values=values)
    if measure.total_mass() == 0.0:
        measure = kb.SpectralMeasure(atoms=atoms + [(1.0, 0.5)],
                                     edges=edges, values=values)
    return measure


def near_boundary_squared_distances(count, seed=11):
    """Planar squared distances plus symmetric noise of relative size 1e-12
    to 1e-6, made non-negative with a zero diagonal: samples that sit on
    either side of the negative definiteness threshold."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(3, 9))
        pts = rng.uniform(-1.0, 1.0, (n, 2))
        noise = rng.normal(size=(n, n)) * 10 ** rng.uniform(-12, -6)
        d2 = np.abs(np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
                    + 0.5 * (noise + noise.T))
        np.fill_diagonal(d2, 0.0)
        yield d2


@pytest.fixture
def measure_factory():
    return random_spectral_measure


@pytest.fixture(autouse=True)
def collector_not_frozen():
    """No in-process path may freeze the collector: only the process entry does."""
    yield
    assert gc.get_freeze_count() == 0
