"""Finite-sample definiteness: Gram construction, verdicts, centering, embedding."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import kernelbridge as kb
from conftest import near_boundary_squared_distances

# hand-checked sample of cos(t) - 0.3 on {0, pi, 2pi}
COS_MINUS_03 = np.array([
    [0.7, -1.3, 0.7],
    [-1.3, 0.7, -1.3],
    [0.7, -1.3, 0.7],
])
# squared distances of collinear points {0, 1, 2}
COLLINEAR_D2 = np.array([[0.0, 1.0, 4.0], [1.0, 0.0, 1.0], [4.0, 1.0, 0.0]])
# d2(t) = t^4 on the same points: not negative definite
QUARTIC_D2 = np.array([[0.0, 1.0, 16.0], [1.0, 0.0, 1.0], [16.0, 1.0, 0.0]])
# squared distances of the points {0, 1, 2, 3}: least eigenvalue -10, largest entry 9
FOUR_POINT_D2 = np.subtract.outer(np.arange(4.0), np.arange(4.0)) ** 2


class TestBuildGram:
    def test_cosine_two_points(self):
        gram = kb.build_gram(kb.zoo("cosine"), [0.0, np.pi])
        assert_allclose(gram.entries, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-15)

    def test_constant_kernel(self):
        gram = kb.build_gram(kb.zoo("constant"), [0.0, 1.0, 2.0])
        assert_allclose(gram.entries, np.ones((3, 3)))

    def test_gaussian_pair(self):
        gram = kb.build_gram(kb.zoo("gaussian"), [0.0, 1.0])
        expected = np.array([[1.0, np.exp(-0.5)], [np.exp(-0.5), 1.0]])
        assert_allclose(gram.entries, expected, rtol=1e-15)

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            kb.build_gram(kb.zoo("gaussian"), [])

    def test_nonfinite_profile_names_argument(self):
        bad = kb.KernelProfile(fn=lambda t: np.where(t == 0, 1.0, np.inf), name="bad")
        with pytest.raises(kb.EvaluationError) as err:
            kb.build_gram(bad, [0.0, 2.0])
        assert err.value.argument in (2.0, -2.0)

    def test_nonfinite_scalar_evaluation(self):
        bad = kb.KernelProfile(fn=lambda t: np.full_like(t, np.nan), name="nan")
        with pytest.raises(kb.EvaluationError) as err:
            bad(1.5)
        assert err.value.argument == 1.5

    @pytest.mark.parametrize("points", [[1e308, -1e308, 0.0], [-1.7e308, 1.7e308],
                                        [np.finfo(float).max, -np.finfo(float).max]])
    def test_lags_past_the_float_range_rejected(self, points):
        # the lags were formed with a RuntimeWarning, and the Gram matrix was
        # the kernel evaluated at infinite lags
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match="^a lag x_i - x_j of the points overflows the float range"):
                kb.build_gram(kb.zoo("gaussian"), points)

    def test_lags_near_the_float_maximum_are_kept(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gram = kb.build_gram(kb.zoo("laplacian"), [1e308, 0.0, -7e307])
        assert np.array_equal(gram.entries, np.eye(3))


@pytest.mark.parametrize("make", [
    lambda: kb.build_gram(kb.zoo("gaussian"), [0.0, 1.0, 2.5]),
    lambda: kb.is_positive_definite(COS_MINUS_03),
    lambda: kb.is_negative_definite(QUARTIC_D2),
    lambda: kb.euclidean_embedding(COLLINEAR_D2)])
def test_records_compare_by_identity(make):
    # two records of one input raised ValueError on ==, and hash raised TypeError
    a, b = make(), make()
    assert a == a and (a == b) is False and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2


class TestEigenSolverFailure:
    def test_the_error_carries_the_matrix_readings(self, monkeypatch):
        def fail(entries):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        asymmetric = COS_MINUS_03.copy()
        asymmetric[0, 2] += 2.0 ** -40  # exact, and within the symmetry tolerance
        with pytest.raises(kb.EigenSolverError,
                           match="^eigensolver failed to converge: Eigenvalues did not "
                                 "converge$") as err:
            kb.is_positive_definite(asymmetric)
        assert err.value.diagnostics == {"n": 3, "max_abs_entry": 1.3,
                                         "max_asymmetry": 2.0 ** -40}
        assert isinstance(err.value.__cause__, np.linalg.LinAlgError)


class TestPositiveDefinite:
    def test_rank_one_shift(self):
        verdict = kb.is_positive_definite(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert verdict.verdict
        eigs = np.linalg.eigvalsh(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert_allclose(sorted(eigs), [0.0, 2.0], atol=1e-14)

    def test_shifted_cosine_fails(self):
        verdict = kb.is_positive_definite(COS_MINUS_03)
        assert not verdict.verdict
        # independent oracle: brute-force eigensolve of the explicit matrix
        oracle_min = float(np.min(np.linalg.eigvalsh(COS_MINUS_03)))
        assert_allclose(verdict.witness_eigenvalue, oracle_min, rtol=1e-12)
        # the witness reproduces the violating quadratic form
        c = verdict.witness_vector
        assert_allclose(c @ COS_MINUS_03 @ c, verdict.witness_eigenvalue, rtol=1e-12)

    def test_all_ones(self):
        assert kb.is_positive_definite(np.ones((3, 3))).verdict

    def test_a_verdict_is_true_exactly_when_it_holds(self):
        assert kb.is_positive_definite(np.ones((3, 3)))
        assert not kb.is_positive_definite(COS_MINUS_03)

    @pytest.mark.parametrize("largest", [1e306, 1.6e308])
    def test_witness_near_the_float_maximum(self, largest):
        verdict = kb.is_positive_definite(FOUR_POINT_D2 * (largest / 9.0))
        assert not verdict.verdict
        assert_allclose(verdict.witness_eigenvalue, -10.0 * (largest / 9.0), rtol=1e-14)

    @pytest.mark.parametrize("largest", [1.7e308, 1.79e308])
    def test_witness_past_the_float_range_rejected(self, largest):
        # every entry is finite and the least eigenvalue is not: the verdict
        # read a witness eigenvalue and a margin of -inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match="^an eigenvalue of the matrix overflows the float range"):
                kb.is_positive_definite(FOUR_POINT_D2 * (largest / 9.0))

    def test_only_the_witness_eigenvalue_is_read(self):
        # the eigenvalues are 0, 0 and 3e308: the greatest is past the float
        # range, the least, which the verdict reads, is not
        verdict = kb.is_positive_definite(np.full((3, 3), 1e308))
        assert verdict.verdict and 0.0 < verdict.margin < np.inf

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = rng.integers(2, 7)
            a = rng.uniform(-1, 1, (n, n))
            sym = 0.5 * (a + a.T)
            perm = rng.permutation(n)
            assert (kb.is_positive_definite(sym).verdict
                    == kb.is_positive_definite(sym[np.ix_(perm, perm)]).verdict)


class TestNegativeDefinite:
    def test_collinear_squared_distances(self):
        assert kb.is_negative_definite(COLLINEAR_D2).verdict

    def test_quartic_counterexample(self):
        verdict = kb.is_negative_definite(QUARTIC_D2)
        assert not verdict.verdict
        # direct quadratic-form oracle with c = (1, -2, 1)
        c = np.array([1.0, -2.0, 1.0])
        assert_allclose(c @ QUARTIC_D2 @ c, 24.0, atol=1e-12)
        # witness direction matches the oracle direction (up to sign)
        unit = c / np.linalg.norm(c)
        overlap = abs(float(verdict.witness_vector @ unit))
        assert overlap > 1 - 1e-10
        assert_allclose(verdict.witness_eigenvalue, 24.0 / 6.0, rtol=1e-12)

    @pytest.mark.parametrize("factor", [1e-300, 1e-20, 1e-15, 1.0, 1e100])
    def test_quartic_rejected_at_every_scale(self, factor):
        # the deflation once put an absolute floor of ~7e-16 under the
        # threshold, so the quartic scaled by 1e-20 read as negative definite
        verdict = kb.is_negative_definite(QUARTIC_D2 * factor)
        assert not verdict.verdict
        assert_allclose(verdict.witness_eigenvalue, 4.0 * factor, rtol=1e-12)
        assert not kb.is_positive_definite(kb.nd_to_psd(QUARTIC_D2 * factor)).verdict

    def test_power_of_two_scaling_is_exact(self):
        base = kb.is_negative_definite(QUARTIC_D2)
        for k in range(-1000, 1001):
            verdict = kb.is_negative_definite(np.ldexp(QUARTIC_D2, k))
            assert verdict.witness_eigenvalue == np.ldexp(base.witness_eigenvalue, k)
            assert np.array_equal(verdict.witness_vector, base.witness_vector)
            if verdict.threshold >= np.finfo(float).tiny:  # not rounded as a subnormal
                assert verdict.threshold == np.ldexp(base.threshold, k)
                assert verdict.margin == np.ldexp(base.margin, k)

    def test_entries_near_the_float_maximum(self):
        # (n + 1) max|N| overflowed: a NaN witness and "nd": false
        matrix = np.array([[0.0, 1e308], [1e308, 0.0]])
        verdict = kb.is_negative_definite(matrix)
        assert verdict.verdict
        assert verdict.witness_eigenvalue == -1e308
        assert_allclose(verdict.threshold, 2e298, rtol=1e-4)
        result = kb.euclidean_embedding(matrix)
        assert result.rank == 1
        assert result.residual <= 1e-15 * 1e308

    def test_eigenvalue_past_the_float_range_rejected(self):
        u = np.array([1.0, -1.0, 1.0, -1.0])  # eigenvalue 4e308 of 1e308 u u^T
        with pytest.raises(ValueError, match="eigenvalue of the projected matrix overflows"):
            kb.is_negative_definite(1e308 * np.outer(u, u))

    def test_two_point_case(self):
        verdict = kb.is_negative_definite(np.array([[0.0, 3.0], [3.0, 0.0]]))
        assert verdict.verdict
        c = np.array([1.0, -1.0])
        assert c @ np.array([[0.0, 3.0], [3.0, 0.0]]) @ c == -6.0

    def test_witness_orthogonal_to_ones(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            a = rng.uniform(-1, 1, (n, n))
            sym = 0.5 * (a + a.T)
            np.fill_diagonal(sym, 0.0)
            verdict = kb.is_negative_definite(sym)
            assert abs(np.sum(verdict.witness_vector)) < 1e-8 * np.sqrt(n)

    def test_false_verdict_witness_has_positive_form(self):
        rng = np.random.default_rng(23)
        seen = 0
        while seen < 20:
            n = int(rng.integers(2, 8))
            a = rng.uniform(-1, 1, (n, n))
            sym = 0.5 * (a + a.T)
            np.fill_diagonal(sym, 0.0)
            verdict = kb.is_negative_definite(sym)
            if verdict.verdict:
                continue
            seen += 1
            c = verdict.witness_vector
            form = float(c @ sym @ c)
            assert form > 1e-10 * n * np.max(np.abs(sym))
            assert_allclose(form, verdict.witness_eigenvalue, rtol=1e-10)


class TestThresholdAndMargin:
    @pytest.mark.parametrize("check, side", [(kb.is_positive_definite, 1.0),
                                             (kb.is_negative_definite, -1.0)])
    def test_margin_is_nonnegative_exactly_when_the_verdict_holds(self, check, side):
        # psd holds when the witness is at or above the threshold, nd when below
        rng = np.random.default_rng(29)
        verdicts = set()
        for _ in range(200):
            n = int(rng.integers(2, 7))
            a = rng.uniform(-1, 1, (n, n))
            verdict = check(0.5 * (a + a.T))
            verdicts.add(verdict.verdict)
            assert verdict.margin == side * (verdict.witness_eigenvalue - verdict.threshold)
            assert verdict.verdict == (side * verdict.witness_eigenvalue
                                       >= side * verdict.threshold)
            assert verdict.verdict == (verdict.margin >= 0.0)
        assert verdicts == {True, False}

    def test_psd_threshold_is_relative_to_the_diagonal(self):
        verdict = kb.is_positive_definite(2.0 * np.eye(3), tol=1e-10)
        assert verdict.threshold == -1e-10 * 3 * 2.0
        assert verdict.margin == 2.0 - verdict.threshold


class TestNdToPsd:
    def test_collinear_example(self):
        out = kb.nd_to_psd(COLLINEAR_D2, base_index=0)
        assert_allclose(out, [[0, 0, 0], [0, 1, 2], [0, 2, 4]], atol=1e-14)
        assert kb.is_positive_definite(out).verdict

    def test_zero_matrix(self):
        assert_allclose(kb.nd_to_psd(np.zeros((3, 3)), 0), np.zeros((3, 3)))

    def test_two_point_case(self):
        out = kb.nd_to_psd(np.array([[0.0, 3.0], [3.0, 0.0]]), base_index=0)
        assert_allclose(out, [[0.0, 0.0], [0.0, 3.0]])

    def test_base_row_and_column_vanish(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(-1, 1, (5, 5))
        sym = 0.5 * (a + a.T)
        for b in range(5):
            out = kb.nd_to_psd(sym, base_index=b)
            assert_allclose(out[b, :], 0.0, atol=1e-15)
            assert_allclose(out[:, b], 0.0, atol=1e-15)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            kb.nd_to_psd(COLLINEAR_D2, base_index=3)

    def test_overflowing_result_rejected(self):
        # the finite input gave -inf with a RuntimeWarning
        with pytest.raises(ValueError, match="centred matrix overflows the float range"):
            kb.nd_to_psd(np.array([[1e308, -1e308], [-1e308, 1e308]]))

    def test_entries_near_the_float_maximum_stay_finite(self):
        # (N(1, 0) + N(1, 0)) / 2 = 1e308 gave inf when the sum came before the halving
        out = kb.nd_to_psd(np.array([[0.0, 1e308], [1e308, 0.0]]), base_index=0)
        assert out.tolist() == [[0.0, 0.0], [0.0, 1e308]]

    def test_polarization_identity(self):
        # K(i,i) + K(j,j) - 2 K(i,j) == N(i,j) - (N(i,i) + N(j,j)) / 2
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            a = rng.uniform(-1, 1, (n, n))
            sym = 0.5 * (a + a.T)
            k = kb.nd_to_psd(sym, base_index=int(rng.integers(n)))
            diag = np.diag(k)
            lhs = diag[:, None] + diag[None, :] - 2 * k
            rhs = sym - 0.5 * (np.diag(sym)[:, None] + np.diag(sym)[None, :])
            assert_allclose(lhs, rhs, atol=1e-12)


class TestCenteringEquivalence:
    # N is negative definite iff its centering at any base is positive definite
    def test_random_matrices_all_bases(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            a = rng.uniform(-1, 1, (n, n))
            sym = 0.5 * (a + a.T)
            np.fill_diagonal(sym, 0.0)
            nd = kb.is_negative_definite(sym, tol=1e-9).verdict
            for b in range(n):
                psd = kb.is_positive_definite(kb.nd_to_psd(sym, b), tol=1e-9).verdict
                assert nd == psd


class TestEuclideanEmbedding:
    def test_collinear_configuration(self):
        result = kb.euclidean_embedding(COLLINEAR_D2)
        assert result.rank == 1
        assert result.residual <= 1e-10
        # recovered points are isometric to {0, 1, 2} on a line
        coords = result.coordinates[:, 0]
        gaps = np.abs(np.diff(coords))
        assert_allclose(gaps, [1.0, 1.0], atol=1e-10)

    def test_quartic_rejected_with_witness(self):
        with pytest.raises(kb.NotHilbertianError) as err:
            kb.euclidean_embedding(QUARTIC_D2)
        unit = np.array([1.0, -2.0, 1.0]) / np.sqrt(6.0)
        overlap = abs(float(np.asarray(err.value.witness_vector) @ unit))
        assert overlap > 1 - 1e-10
        # the witness quadratic form in the integer scaling is +24
        c = np.sqrt(6.0) * np.asarray(err.value.witness_vector)
        assert_allclose(c @ QUARTIC_D2 @ c, 24.0, rtol=1e-10)

    def test_zero_matrix(self):
        result = kb.euclidean_embedding(np.zeros((4, 4)))
        assert result.rank == 0
        assert result.coordinates.shape == (4, 0)
        assert result.residual == 0.0

    def test_residual_bound_on_accepted(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            pts = rng.uniform(-3, 3, (n, 2))
            d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
            result = kb.euclidean_embedding(d2)
            assert result.residual <= 1e-8 * max(np.max(d2), 1e-30)

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ValueError):
            kb.euclidean_embedding(np.eye(3))

    @pytest.mark.parametrize("scale", [1.0, 1e-20])
    @pytest.mark.parametrize("matrix, message", [
        (np.ones((2, 2)), "zero diagonal"),
        (np.array([[0.0, 1.0, -0.5], [1.0, 0.0, 1.0], [-0.5, 1.0, 0.0]]), "non-negative")])
    def test_input_checks_are_relative_to_the_entries(self, matrix, message, scale):
        # at 1e-20 both passed an absolute floor of tol: rank 0, or a rejection
        with pytest.raises(ValueError, match=message):
            kb.euclidean_embedding(scale * matrix)

    def test_rejects_exactly_when_nd_is_false_with_the_same_witness(self):
        # two separate eigensolves under two thresholds used to disagree
        # on 119 of these 5,000
        verdicts = set()
        for d2 in near_boundary_squared_distances(5000):
            nd = kb.is_negative_definite(d2)
            verdicts.add(nd.verdict)
            try:
                kb.euclidean_embedding(d2)
            except kb.NotHilbertianError as err:
                assert not nd.verdict
                assert err.witness_eigenvalue == nd.witness_eigenvalue
                assert np.array_equal(err.witness_vector, nd.witness_vector)
                assert (err.threshold, err.margin) == (nd.threshold, nd.margin)
            else:
                assert nd.verdict
        assert verdicts == {True, False}

    @pytest.mark.parametrize("name", ["gaussian", "laplacian", "cauchy"])
    @pytest.mark.parametrize("n", [200, 800])
    def test_residual_bound_at_large_n(self, name, n):
        # criterion 2's bound at the default tol; truncating eigendirections
        # below n * tol used to break it for cauchy from n = 200
        d2 = kb.metric_from_kernel(kb.zoo(name))
        pts = np.random.default_rng(n).uniform(-20.0, 20.0, n)
        matrix = d2(pts[:, None] - pts[None, :])
        result = kb.euclidean_embedding(matrix)
        assert result.residual <= 1e-8 * float(np.max(matrix))

    @pytest.mark.parametrize("matrix", [COLLINEAR_D2, QUARTIC_D2])
    def test_one_eigendecomposition_per_call(self, monkeypatch, matrix):
        calls = []

        def counting(entries, back):
            calls.append(entries.shape)
            return np.linalg.eigh(entries)

        monkeypatch.setattr(kb.gram, "_eigh", counting)
        try:
            kb.euclidean_embedding(matrix)
        except kb.NotHilbertianError:
            pass
        assert calls == [(3, 3)]

    def test_columns_descend_and_are_centred(self):
        rng = np.random.default_rng(31)
        pts = rng.normal(size=(12, 2)) * [3.0, 0.5]
        d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
        result = kb.euclidean_embedding(d2)
        assert result.rank == 2
        spread = np.sum(result.coordinates ** 2, axis=0)
        assert spread[0] > spread[1]
        assert_allclose(result.coordinates.mean(axis=0), 0.0, atol=1e-12)
        # the coordinates are the centred points up to an orthogonal map
        centred = pts - pts.mean(axis=0)
        assert_allclose(result.coordinates @ result.coordinates.T, centred @ centred.T,
                        atol=1e-12)


class TestValidation:
    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(ValueError):
            kb.GramMatrix(points=[0.0, 1.0], entries=[[1.0, 0.5], [0.2, 1.0]])
        for check in (kb.is_positive_definite, kb.is_negative_definite):
            with pytest.raises(ValueError, match="not symmetric"):
                check(np.array([[1.0, 0.5], [0.2, 1.0]]))

    @pytest.mark.parametrize("check", [
        kb.is_positive_definite, kb.is_negative_definite, kb.nd_to_psd,
        kb.euclidean_embedding, lambda m: kb.GramMatrix(points=[0.0, 1.0], entries=m)])
    def test_asymmetry_past_the_float_range_rejected_without_a_warning(self, check):
        # A - A^T was formed with a RuntimeWarning before the check rejected
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"not symmetric: max \|A - A\^T\| = inf$"):
                check(np.array([[0.0, 1e308], [-1e308, 0.0]]))

    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300, 1e308])
    def test_the_asymmetry_reading_is_exact(self, scale):
        # formed on the halved entries and doubled: every finite reading keeps its bits
        matrix = np.array([[0.0, 1.5 * scale], [scale, 0.0]])
        asym = float(np.max(np.abs(matrix - matrix.T)))
        with pytest.raises(ValueError) as err:
            kb.is_positive_definite(matrix)
        assert str(err.value).endswith(f"max |A - A^T| = {asym!r}")

    def test_points_size_mismatch(self):
        with pytest.raises(ValueError):
            kb.GramMatrix(points=[0.0], entries=np.eye(2))

    def test_nonsquare_rejected(self):
        for check in (kb.is_positive_definite, kb.is_negative_definite):
            with pytest.raises(ValueError, match="must be square"):
                check(np.ones((2, 3)))

    @pytest.mark.parametrize("check", [kb.is_positive_definite, kb.is_negative_definite,
                                       kb.nd_to_psd, kb.euclidean_embedding])
    def test_empty_matrix_rejected(self, check):
        # used to surface a raw IndexError and a divide-by-zero warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                check(np.zeros((0, 0)))

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0, -np.inf])
    @pytest.mark.parametrize("check", [kb.is_positive_definite, kb.is_negative_definite,
                                       kb.euclidean_embedding])
    def test_tol_must_be_finite_and_non_negative(self, check, tol):
        # nan gave a NaN threshold, inf a psd verdict next to eigenvalue -4,
        # and -1 a "zero diagonal" error on a zero diagonal
        with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
            check(COLLINEAR_D2, tol=tol)

    def test_one_by_one_nd_test_rejected(self):
        # the complement of the all-ones vector is {0}: no witness exists,
        # and the deflation eigenvalue -1 used to be reported as one
        with pytest.raises(ValueError):
            kb.is_negative_definite(np.zeros((1, 1)))

    def test_one_by_one_elsewhere_is_defined(self):
        assert kb.is_positive_definite(np.ones((1, 1))).verdict
        assert not kb.is_positive_definite(-np.ones((1, 1))).verdict
        assert kb.nd_to_psd(np.zeros((1, 1))).tolist() == [[0.0]]
        assert kb.euclidean_embedding(np.zeros((1, 1))).rank == 0
