import gc

import numpy as np
import pytest
from hypothesis import strategies as st

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


@st.composite
def gamma_measures(draw):
    """Gamma measures of either law: up to 3 atoms and 6 bins, every scale
    log-uniform over 1e-3 .. 1e3, some bin values 0.  s^2-law bins reach a
    relative width of 1e-6; a constant-law bin is at least as wide as its
    lower edge, since narrower ones cancel (see
    test_spectral.py::test_constant_law_bin_matches_mpmath).
    """
    law = draw(st.sampled_from(["s2", "constant"]))
    scale = st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)
    widening = st.floats(-6.0 if law == "s2" else 0.0, 1.0).map(lambda e: 10.0 ** e)
    n = draw(st.integers(0, 6))
    edges = [draw(st.just(0.0) | scale)]
    for _ in range(n):
        edges.append(edges[-1] * (1.0 + draw(widening)) if edges[-1] else draw(scale))
    values = draw(st.lists(st.just(0.0) | scale, min_size=n, max_size=n))
    atoms = draw(st.lists(st.tuples(scale, scale), max_size=3))
    return kb.GammaMeasure(atoms=atoms, edges=edges if n else [], values=values, law=law)


@pytest.fixture
def measure_factory():
    return random_spectral_measure


@pytest.fixture(autouse=True)
def collector_not_frozen():
    """No in-process path may freeze the collector: only the process entry does."""
    yield
    assert gc.get_freeze_count() == 0
