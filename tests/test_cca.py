"""Canonical correlation analysis: invariants, identities, and a fixed
reference decomposition used to pin down the sequential test arithmetic."""

import math

import numpy as np
import pytest
from scipy import stats

import creditfactors as cf
from creditfactors.cca import _f_sf

# A fixed 12-by-10 system observed 63 times. The correlations, eigenvalues,
# and test columns below form one internally consistent decomposition; the
# suite checks that our arithmetic reproduces every derived column from the
# correlations alone.
REFERENCE_P, REFERENCE_Q, REFERENCE_N = 12, 10, 63
REFERENCE_CANCOR = (0.99433, 0.98681, 0.93412, 0.74667, 0.67833,
                    0.63521, 0.51282, 0.36017, 0.23485, 0.07318)
REFERENCE_EIGENVALUE = (87.39400, 37.17146, 6.84843, 1.25998, 0.85228,
                        0.67643, 0.35682, 0.14905, 0.05837, 0.00538)
REFERENCE_PERCENTAGE = (64.84569, 27.58094, 5.08148, 0.93490, 0.63239,
                        0.50191, 0.26476, 0.11060, 0.04331, 0.00399)
REFERENCE_LAMBDA = (0.00, 0.00, 0.01, 0.09, 0.19, 0.36, 0.60, 0.82, 0.94, 0.99)
REFERENCE_F = (11.36, 6.77, 3.65, 2.20, 1.86, 1.54, 1.07, 0.67, 0.39, 0.09)
REFERENCE_NUM_DF = (120, 99, 80, 63, 48, 35, 24, 15, 8, 3)
REFERENCE_DEN_DF = (332.93, 307.63, 281.29, 253.92, 225.48,
                    195.93, 165.17, 132.91, 98.00, 50.00)
REFERENCE_P_VALUE = (0.0000, 0.0000, 0.0000, 0.0000, 0.0015,
                     0.0355, 0.3778, 0.8105, 0.9256, 0.9654)


def correlated_sets(rng, T=120, p=4, q=3, rho=0.85):
    """Y and Z sharing one strong latent pair plus independent noise."""
    latent = rng.normal(size=T)
    Y = rng.normal(size=(T, p))
    Z = rng.normal(size=(T, q))
    Y[:, 0] = latent + np.sqrt(1 / rho ** 2 - 1) * rng.normal(size=T)
    Z[:, 0] = latent + np.sqrt(1 / rho ** 2 - 1) * rng.normal(size=T)
    return Y, Z


class TestCcaFit:
    def test_scores_have_unit_sample_variance(self):
        rng = np.random.default_rng(60)
        Y, Z = correlated_sets(rng)
        sol = cf.cca_fit(Y, Z)
        np.testing.assert_allclose(sol.u_scores.std(axis=0, ddof=1),
                                   np.ones(sol.m), atol=1e-10)
        np.testing.assert_allclose(sol.v_scores.std(axis=0, ddof=1),
                                   np.ones(sol.m), atol=1e-10)

    def test_reported_correlations_match_score_correlations(self):
        rng = np.random.default_rng(61)
        Y, Z = correlated_sets(rng)
        sol = cf.cca_fit(Y, Z)
        for k in range(sol.m):
            r = np.corrcoef(sol.u_scores[:, k], sol.v_scores[:, k])[0, 1]
            assert sol.correlations[k] == pytest.approx(r, abs=1e-10)

    def test_variates_are_mutually_uncorrelated(self):
        rng = np.random.default_rng(62)
        Y, Z = correlated_sets(rng, p=5, q=4)
        sol = cf.cca_fit(Y, Z)
        cu = np.corrcoef(sol.u_scores, rowvar=False)
        cv = np.corrcoef(sol.v_scores, rowvar=False)
        np.testing.assert_allclose(cu, np.eye(sol.m), atol=1e-8)
        np.testing.assert_allclose(cv, np.eye(sol.m), atol=1e-8)
        for j in range(sol.m):
            for k in range(sol.m):
                if j != k:
                    r = np.corrcoef(sol.u_scores[:, j], sol.v_scores[:, k])[0, 1]
                    assert abs(r) < 1e-8

    def test_identical_sets_give_perfect_correlations(self):
        rng = np.random.default_rng(63)
        Y = rng.normal(size=(50, 3))
        sol = cf.cca_fit(Y, Y.copy())
        np.testing.assert_allclose(sol.correlations, np.ones(3), atol=1e-10)

    def test_planted_single_pair_dominates(self):
        # the shared-latent construction links Y and Z at rho^2
        rng = np.random.default_rng(64)
        Y, Z = correlated_sets(rng, T=500, rho=0.95)
        sol = cf.cca_fit(Y, Z)
        assert sol.correlations[0] > 0.8
        assert sol.correlations[1] < 0.35

    def test_correlations_sorted_descending(self):
        rng = np.random.default_rng(65)
        Y, Z = correlated_sets(rng, p=6, q=5)
        sol = cf.cca_fit(Y, Z)
        assert np.all(np.diff(sol.correlations) <= 1e-12)
        assert np.all((sol.correlations >= 0) & (sol.correlations <= 1))

    def test_invariant_to_affine_rescaling_of_either_set(self):
        rng = np.random.default_rng(66)
        Y, Z = correlated_sets(rng)
        base = cf.cca_fit(Y, Z).correlations
        Y2 = Y * np.array([3.0, 0.2, 40.0, 1.0]) + np.array([5, -2, 100, 0.1])
        Z2 = Z * np.array([0.5, 8.0, 2.0]) - np.array([1.0, 0.0, 3.0])
        again = cf.cca_fit(Y2, Z2).correlations
        np.testing.assert_allclose(again, base, atol=1e-8)

    def test_single_pair_equals_absolute_pearson(self):
        rng = np.random.default_rng(67)
        x = rng.normal(size=80)
        y = -0.6 * x + rng.normal(size=80)
        sol = cf.cca_fit(x[:, None], y[:, None])
        r = np.corrcoef(x, y)[0, 1]
        assert sol.correlations[0] == pytest.approx(abs(r), abs=1e-10)

    def test_weight_shapes_and_m(self):
        rng = np.random.default_rng(68)
        Y, Z = correlated_sets(rng, p=5, q=3)
        sol = cf.cca_fit(Y, Z)
        assert sol.m == 3
        assert sol.a_weights.shape == (5, 3)
        assert sol.b_weights.shape == (3, 3)
        assert sol.u_scores.shape == (120, 3)

    def test_sign_convention_largest_weight_positive(self):
        rng = np.random.default_rng(69)
        Y, Z = correlated_sets(rng)
        sol = cf.cca_fit(Y, Z)
        for k in range(sol.m):
            col = sol.a_weights[:, k]
            assert col[np.argmax(np.abs(col))] > 0

    def test_too_few_observations_rejected(self):
        rng = np.random.default_rng(70)
        with pytest.raises(cf.DataError, match="more rows"):
            cf.cca_fit(rng.normal(size=(7, 4)), rng.normal(size=(7, 3)))

    def test_constant_column_rejected(self):
        rng = np.random.default_rng(71)
        Y = rng.normal(size=(40, 3))
        Y[:, 1] = 2.5
        with pytest.raises(cf.NumericalError, match="constant"):
            cf.cca_fit(Y, rng.normal(size=(40, 2)))

    def test_duplicate_columns_need_ridge(self):
        rng = np.random.default_rng(72)
        Y = rng.normal(size=(60, 3))
        Y = np.column_stack([Y, Y[:, 0]])
        Z = rng.normal(size=(60, 2))
        with pytest.raises(cf.NumericalError):
            cf.cca_fit(Y, Z)
        sol = cf.cca_fit(Y, Z, ridge=1e-6)
        assert sol.ridge == 1e-6
        assert np.all(np.isfinite(sol.correlations))

    @pytest.mark.parametrize("ridge", [-1.0, np.nan, np.inf])
    def test_ridge_must_be_finite_and_nonnegative(self, ridge):
        rng = np.random.default_rng(73)
        with pytest.raises(cf.DataError, match="ridge must be finite and nonnegative"):
            cf.cca_fit(rng.normal(size=(40, 3)), rng.normal(size=(40, 2)), ridge=ridge)

    def test_nan_rejected(self):
        Y = np.ones((30, 2)) + np.arange(30)[:, None]
        Y[4, 0] = np.nan
        with pytest.raises(cf.DataError):
            cf.cca_fit(Y, np.ones((30, 1)) * np.arange(30)[:, None])

    @pytest.mark.parametrize("block", ["Y", "Z"])
    def test_infinite_cell_rejected(self, block):
        rng = np.random.default_rng(74)
        Y, Z = rng.normal(size=(40, 3)), rng.normal(size=(40, 2))
        (Y if block == "Y" else Z)[3, 1] = -np.inf
        with pytest.raises(cf.DataError, match="infinite"):
            cf.cca_fit(Y, Z)


class TestEigenTable:
    def test_identity_links_eigenvalue_and_correlation(self):
        rng = np.random.default_rng(73)
        Y, Z = correlated_sets(rng)
        rows = cf.eigen_table(cf.cca_fit(Y, Z))
        for row in rows:
            assert row.squared == pytest.approx(row.correlation ** 2, abs=1e-12)
            assert row.eigenvalue / (1 + row.eigenvalue) == pytest.approx(
                row.squared, abs=1e-12)

    def test_percentages_sum_to_one_hundred(self):
        rng = np.random.default_rng(74)
        Y, Z = correlated_sets(rng, p=6, q=4)
        rows = cf.eigen_table(cf.cca_fit(Y, Z))
        assert sum(r.percentage for r in rows) == pytest.approx(100.0, abs=1e-9)
        assert rows[-1].cumulative == pytest.approx(100.0, abs=1e-9)

    def test_reference_eigenvalues_from_correlations(self):
        rows = cf.eigen_table(np.array(REFERENCE_CANCOR))
        for row, ev in zip(rows, REFERENCE_EIGENVALUE):
            # the inputs carry 5-decimal rounding; lambda = rho^2/(1-rho^2)
            # amplifies it most where rho is largest
            assert row.eigenvalue == pytest.approx(ev, abs=0.05)

    def test_reference_percentages_from_reported_eigenvalues(self):
        evs = np.array(REFERENCE_EIGENVALUE)
        expected = 100.0 * evs / evs.sum()
        np.testing.assert_allclose(expected, REFERENCE_PERCENTAGE, atol=0.01)

    def test_perfect_correlation_rejected(self):
        with pytest.raises(cf.NumericalError, match="degenerate correlation"):
            cf.eigen_table(np.array([1.0, 0.5]))


class TestWilks:
    def test_reference_table_reproduced_from_correlations(self):
        rows = cf.wilks_lambda(np.array(REFERENCE_CANCOR),
                               p=REFERENCE_P, q=REFERENCE_Q, n_obs=REFERENCE_N)
        assert len(rows) == 10
        for row, lam, f, ndf, ddf, pv in zip(rows, REFERENCE_LAMBDA, REFERENCE_F,
                                             REFERENCE_NUM_DF, REFERENCE_DEN_DF,
                                             REFERENCE_P_VALUE):
            assert row.lambda_stat == pytest.approx(lam, abs=0.005)
            assert row.f_approx == pytest.approx(f, abs=0.05)
            assert row.num_df == ndf
            assert row.den_df == pytest.approx(ddf, abs=0.01)
            assert row.p_value == pytest.approx(pv, abs=0.02)

    def test_numerator_df_column_is_exact(self):
        rows = cf.wilks_lambda(np.array(REFERENCE_CANCOR),
                               p=REFERENCE_P, q=REFERENCE_Q, n_obs=REFERENCE_N)
        for k, row in enumerate(rows, start=1):
            assert row.num_df == (REFERENCE_P - k + 1) * (REFERENCE_Q - k + 1)

    def test_zero_correlations_give_null_f(self):
        rows = cf.wilks_lambda(np.zeros(3), p=4, q=3, n_obs=50)
        for row in rows:
            assert row.lambda_stat == pytest.approx(1.0, abs=1e-12)
            assert row.f_approx == pytest.approx(0.0, abs=1e-12)
            assert row.p_value == pytest.approx(1.0, abs=1e-12)

    def test_statistic_count_must_match_dimensions(self):
        with pytest.raises(cf.DataError):
            cf.wilks_lambda(np.array([0.5, 0.4]), p=4, q=3, n_obs=50)

    def test_accepts_solution_directly(self):
        rng = np.random.default_rng(75)
        Y, Z = correlated_sets(rng)
        sol = cf.cca_fit(Y, Z)
        rows = cf.wilks_lambda(sol)
        assert len(rows) == sol.m
        # lambda_k shrinks as correlated pairs are excluded from the product
        assert rows[0].lambda_stat <= rows[-1].lambda_stat + 1e-12


class TestRedundancy:
    def test_matches_direct_definition(self):
        rng = np.random.default_rng(76)
        Y, Z = correlated_sets(rng)
        sol = cf.cca_fit(Y, Z)
        rows = cf.redundancy(sol, Y)
        for k, row in enumerate(rows):
            loadings = [np.corrcoef(Y[:, j], sol.u_scores[:, k])[0, 1]
                        for j in range(Y.shape[1])]
            expected = sol.correlations[k] ** 2 * np.mean(np.square(loadings))
            assert row.redundancy == pytest.approx(expected, abs=1e-10)

    def test_total_bounded_by_one(self):
        rng = np.random.default_rng(77)
        Y, Z = correlated_sets(rng, p=5, q=5)
        sol = cf.cca_fit(Y, Z)
        total = sum(r.redundancy for r in cf.redundancy(sol, Y))
        assert 0.0 <= total <= 1.0 + 1e-9


class TestCrossLoadings:
    def test_shape_and_bounds(self):
        rng = np.random.default_rng(78)
        Y, Z = correlated_sets(rng, p=5, q=4)
        sol = cf.cca_fit(Y, Z)
        L = cf.cross_loadings(sol, Z, k_max=3)
        assert L.shape == (4, 3)
        assert np.all(np.abs(L) <= 1 + 1e-12)

    def test_matches_direct_correlations(self):
        rng = np.random.default_rng(79)
        Y, Z = correlated_sets(rng)
        sol = cf.cca_fit(Y, Z)
        L = cf.cross_loadings(sol, Z)
        for j in range(Z.shape[1]):
            for k in range(sol.m):
                r = np.corrcoef(Z[:, j], sol.u_scores[:, k])[0, 1]
                assert L[j, k] == pytest.approx(r, abs=1e-10)


# P(F > x) to 17 digits from a 60-digit mpmath.betainc at the exact inputs,
# where scipy's own tail drifts (6e-5 relative at 1.1e-245) or flushes to 0.
F_TAIL_REFERENCE = (
    (3.0, 2.0, 7.0, 0.11456221633906809),
    (1.25, 12.0, 2495.0, 0.24225609223929745),
    (23.5, 78.0, 2732.0, 1.1436974033134646e-245),
    (24.0, 78.0, 2732.0, 1.6528945376757854e-250),
    (40.0, 60.0, 2000.0, 1.5648412063143056e-294),
)


class TestFTail:
    """_f_sf, the p-value of every Wilks row, against scipy.stats.f.sf."""

    def test_matches_scipy_on_seeded_draws(self):
        rng = np.random.default_rng(20240601)
        n = 100_000
        x = np.exp(rng.uniform(-6.0, 4.0, n))
        dfn = rng.integers(1, 150, n).astype(float)   # pk*qk is an integer
        dfd = rng.uniform(1.0, 3000.0, n)             # Rao's den_df is not
        oracle = stats.f.sf(x, dfn, dfd)
        got = np.array([_f_sf(*args) for args in zip(x.tolist(), dfn.tolist(), dfd.tolist())])
        err = np.abs(got - oracle)
        assert err.max() <= 1e-12
        # below about 1e-240 scipy itself loses digits (see F_TAIL_REFERENCE)
        sized = oracle >= 1e-240
        assert sized.sum() > 0.9 * n
        assert (err[sized] / oracle[sized]).max() <= 1e-10

    @pytest.mark.parametrize("x, dfn, dfd, expected", F_TAIL_REFERENCE)
    def test_matches_high_precision_reference(self, x, dfn, dfd, expected):
        assert _f_sf(x, dfn, dfd) == pytest.approx(expected, rel=1e-12, abs=0)

    def test_edge_cases_match_scipy(self):
        values = (-math.inf, -1.0, 0.0, 1.0, 1e308, math.inf, math.nan)  # 1e308: dfn*x = inf
        dfs = (-1.0, 0.0, 3.0, math.inf, math.nan)
        cases = [(x, dfn, dfd) for x in values for dfn in dfs for dfd in dfs
                 if (x, dfn, dfd) != (1.0, 3.0, 3.0)]
        got = [_f_sf(*case) for case in cases]
        expected = [float(stats.f.sf(*case)) for case in cases]
        np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("call, error, message", [
    (lambda Y, Z, sol: cf.cca_fit(Y[:-1], Z), cf.DataError,
     "row mismatch: left has 29, right has 30"),
    (lambda Y, Z, sol: cf.cca_fit(Y[:, :0], Z), cf.DataError,
     "both sets need at least one column"),
    (lambda Y, Z, sol: cf.eigen_table([]), cf.DataError, "no correlations"),
    (lambda Y, Z, sol: cf.eigen_table([0.5, -0.1]), cf.DataError,
     "canonical correlations must be nonnegative"),
    (lambda Y, Z, sol: cf.wilks_lambda([0.5, 0.1]), cf.DataError,
     "raw correlations need explicit p, q, and n_obs"),
    (lambda Y, Z, sol: cf.wilks_lambda([1.0, 0.1], p=2, q=2, n_obs=30), cf.NumericalError,
     r"degenerate correlation \(rho = 1\)"),
    (lambda Y, Z, sol: cf.redundancy(sol, Y[:-1]), cf.DataError,
     "left set: row count 29 does not match scores 30"),
    (lambda Y, Z, sol: cf.redundancy(sol, Y[:, :2]), cf.DataError,
     "left set has 2 columns, solution expects 3"),
    (lambda Y, Z, sol: cf.cross_loadings(sol, Z[:, :1]), cf.DataError,
     "right set has 1 columns, solution expects 2"),
    (lambda Y, Z, sol: cf.cross_loadings(sol, Z, k_max=3), cf.DataError,
     r"k_max must be in 1\.\.2, got 3"),
], ids=["cca-rows", "cca-no-columns", "eigen-empty", "eigen-negative", "wilks-no-sizes",
        "wilks-rho-1", "redundancy-rows", "redundancy-columns", "loadings-columns",
        "loadings-k-max"])
def test_a_bad_argument_is_refused_by_name(call, error, message):
    Y, Z = correlated_sets(np.random.default_rng(76), T=30, p=3, q=2)
    with pytest.raises(error, match=f"^{message}$"):
        call(Y, Z, cf.cca_fit(Y, Z))
