"""Unit-root and cointegration tests: oracles, behavior, and error paths."""

import numpy as np
import pytest
import scipy.linalg

import creditfactors as cf


def random_walk(rng, n, scale=1.0):
    return np.cumsum(rng.normal(0, scale, n))


def ar1(rng, n, phi, scale=1.0):
    x = np.zeros(n)
    for t in range(1, n):
        x[t] = phi * x[t - 1] + rng.normal(0, scale)
    return x


# ---------------------------------------------------------------------------
# ADF
# ---------------------------------------------------------------------------

def adf_stat_oracle(series, lag_order, trend):
    """The t-ratio on the lagged level, rebuilt with plain normal equations."""
    y = np.asarray(series, dtype=float)
    dy = np.diff(y)
    rows = len(dy) - lag_order
    resp = dy[lag_order:]
    cols = [np.ones(rows), y[lag_order:-1]]
    for i in range(1, lag_order + 1):
        cols.append(dy[lag_order - i:len(dy) - i])
    if trend:
        cols.append(np.arange(rows, dtype=float))
    X = np.column_stack(cols)
    XtX_inv = np.linalg.inv(X.T @ X)
    beta = XtX_inv @ X.T @ resp
    resid = resp - X @ beta
    sigma2 = float(resid @ resid) / (rows - X.shape[1])
    se = np.sqrt(sigma2 * XtX_inv[1, 1])
    return beta[1] / se


class TestAdf:
    def test_statistic_matches_normal_equation_oracle(self):
        rng = np.random.default_rng(21)
        for lag in [1, 3, 5]:
            for trend in [True, False]:
                x = random_walk(rng, 150)
                kind = cf.REGRESSION_CONSTANT_TREND if trend else cf.REGRESSION_CONSTANT
                res = cf.adf_test(x, lag_order=lag, kind=kind)
                assert res.statistic == pytest.approx(
                    adf_stat_oracle(x, lag, trend), abs=1e-8)
                assert res.lag_order == lag
                assert res.regression_kind == kind

    def test_random_walk_keeps_the_unit_root(self):
        rng = np.random.default_rng(30)
        res = cf.adf_test(random_walk(rng, 200))
        assert res.p_value > 0.10

    def test_stationary_ar_rejects(self):
        rng = np.random.default_rng(31)
        res = cf.adf_test(ar1(rng, 300, 0.5))
        assert res.p_value <= 0.05

    def test_white_noise_hits_the_reporting_floor(self):
        rng = np.random.default_rng(32)
        res = cf.adf_test(rng.normal(size=400))
        assert res.p_value == 0.01

    def test_extreme_statistics_clamp_to_bounds(self):
        rng = np.random.default_rng(33)
        x = rng.normal(size=200)
        assert cf.adf_test(x).p_value == 0.01
        y = np.cumsum(np.cumsum(rng.normal(size=200))) + 1e4
        assert cf.adf_test(y, lag_order=1).p_value >= 0.90

    def test_statistic_invariant_to_affine_transform(self):
        rng = np.random.default_rng(34)
        x = random_walk(rng, 120)
        a = cf.adf_test(x, lag_order=2)
        b = cf.adf_test(5.0 * x - 37.0, lag_order=2)
        assert b.statistic == pytest.approx(a.statistic, abs=1e-7)
        assert b.p_value == pytest.approx(a.p_value, abs=1e-9)

    def test_default_lag_rule(self):
        assert cf.default_lag_order(200) == 5   # floor(199 ** (1/3))
        assert cf.default_lag_order(28) == 3
        rng = np.random.default_rng(35)
        res = cf.adf_test(random_walk(rng, 200))
        assert res.lag_order == 5

    def test_p_value_monotone_in_statistic(self):
        # interpolation through the quantile table must preserve order
        rng = np.random.default_rng(36)
        results = []
        for phi in [0.2, 0.8, 0.95, 1.0]:
            x = ar1(rng, 250, phi) if phi < 1 else random_walk(rng, 250)
            results.append(cf.adf_test(x, lag_order=2))
        by_stat = sorted(results, key=lambda r: r.statistic)
        ps = [r.p_value for r in by_stat]
        assert ps == sorted(ps)

    def test_constant_series_rejected(self):
        with pytest.raises(cf.NumericalError, match="degenerate series"):
            cf.adf_test(np.full(50, 2.0))

    def test_differences_that_overflow_are_refused_as_unsquarable(self):
        # every value is finite, but each difference of ±1.7e308 overflows (and np.ptp would)
        x = np.where(np.arange(40) % 2, 1.7e308, -1.7e308)
        with pytest.raises(cf.NumericalError, match="^values of response 'diff' are too large "
                                                    "to square in double precision$"):
            cf.adf_test(x)

    def test_missing_values_rejected(self):
        x = np.ones(50)
        x[3] = np.nan
        with pytest.raises(cf.DataError, match="missing"):
            cf.adf_test(x + np.arange(50.0))

    def test_short_series_rejected(self):
        with pytest.raises(cf.DataError, match="too short"):
            cf.adf_test(np.arange(8.0), lag_order=1)

    @pytest.mark.parametrize("kind, longest", [(cf.REGRESSION_CONSTANT_TREND, 29),
                                               (cf.REGRESSION_CONSTANT, 30)])
    def test_lag_order_needs_more_rows_than_parameters(self, kind, longest):
        # n=64: lag p leaves 63 - p rows for 2 + p parameters (3 + p with a trend)
        x = random_walk(np.random.default_rng(4), 64)
        assert cf.adf_test(x, lag_order=longest, kind=kind).n_obs == 63 - longest
        for lag in (longest + 1, 40):
            with pytest.raises(cf.DataError, match=f"too short for the test at lag order {lag} "):
                cf.adf_test(x, lag_order=lag, kind=kind)

    def test_negative_lag_rejected(self):
        with pytest.raises(cf.DataError):
            cf.adf_test(np.arange(50.0), lag_order=-1)

    def test_result_validates_p_range(self):
        with pytest.raises(cf.DataError):
            cf.AdfResult(statistic=-1.0, p_value=0.005, lag_order=1,
                         regression_kind=cf.REGRESSION_CONSTANT, n_obs=50)


# ---------------------------------------------------------------------------
# Johansen trace
# ---------------------------------------------------------------------------

def cointegrated_pair(rng, n):
    common = random_walk(rng, n)
    x = common + rng.normal(0, 0.3, n)
    y = 0.5 * common + rng.normal(0, 0.3, n)
    return np.column_stack([x, y])


class TestJohansen:
    def test_critical_value_ladder_is_fixed(self):
        rng = np.random.default_rng(40)
        X = np.column_stack([random_walk(rng, 120) for _ in range(6)])
        res = cf.johansen_trace(X)
        np.testing.assert_allclose(res.critical_values_5pct,
                                   [8.18, 17.95, 31.52, 48.28, 70.60, 90.39])
        assert res.hypotheses == ("r <= 5", "r <= 4", "r <= 3", "r <= 2",
                                  "r <= 1", "r = 0")

    def test_statistics_recomputable_from_eigenvalues(self):
        rng = np.random.default_rng(41)
        X = np.column_stack([random_walk(rng, 150) for _ in range(3)])
        res = cf.johansen_trace(X, lag_order=2)
        lam = res.eigenvalues
        k = X.shape[1]
        for i, r_star in enumerate(range(k - 1, -1, -1)):
            expected = -res.n_obs * np.sum(np.log(1.0 - lam[r_star:]))
            assert res.trace_statistics[i] == pytest.approx(expected, abs=1e-9)

    def test_eigenvalues_sorted_in_unit_interval(self):
        rng = np.random.default_rng(42)
        X = cointegrated_pair(rng, 200)
        lam = cf.johansen_trace(X).eigenvalues
        assert np.all(lam >= 0) and np.all(lam < 1)
        assert np.all(np.diff(lam) <= 1e-12)

    def test_trace_statistics_increase_toward_r0(self):
        rng = np.random.default_rng(43)
        X = np.column_stack([random_walk(rng, 150) for _ in range(4)])
        stats = cf.johansen_trace(X).trace_statistics
        assert np.all(np.diff(stats) > 0)

    def test_cointegrated_pair_rejects_only_r0(self):
        rng = np.random.default_rng(44)
        res = cf.johansen_trace(cointegrated_pair(rng, 300))
        assert res.rejected[-1] is True      # "r = 0" rejected
        assert res.rejected[0] is False      # "r <= 1" retained

    def test_independent_walks_retain_everything(self):
        rng = np.random.default_rng(45)
        X = np.column_stack([random_walk(rng, 300) for _ in range(3)])
        res = cf.johansen_trace(X)
        assert not any(res.rejected)

    def test_rank_detection_rates_over_many_draws(self):
        rng = np.random.default_rng(46)
        reject_null_pair, keep_r1_pair = 0, 0
        for _ in range(60):
            res = cf.johansen_trace(cointegrated_pair(rng, 250))
            reject_null_pair += res.rejected[-1]
            keep_r1_pair += not res.rejected[0]
        assert reject_null_pair >= 55       # power against a planted relation
        assert keep_r1_pair >= 45           # size on the true-rank hypothesis

    def test_accepts_aligned_panel(self):
        rng = np.random.default_rng(47)
        vals = np.column_stack([random_walk(rng, 100) for _ in range(2)])
        panel = cf.AlignedPanel(cf.Month(2005, 1), ("a", "b"), vals)
        res = cf.johansen_trace(panel)
        assert res.n_obs == 100 - res.lag_order

    @pytest.mark.parametrize("k", [2, 4, 6])
    @pytest.mark.parametrize("lag_order", [1, 2])
    def test_eigenvalues_match_generalized_eigh_oracle(self, k, lag_order):
        # an independent route to the eigenvalues: the symmetric-definite
        # pencil SK0 S00^-1 S0K v = lam SKK v on residuals rebuilt row by row
        rng = np.random.default_rng(60 + 10 * k + lag_order)
        n = 160
        X = np.column_stack([random_walk(rng, n) for _ in range(k)])
        X[:, -1] = 0.8 * X[:, 0] + rng.normal(0, 0.5, n)  # one planted relation
        res = cf.johansen_trace(X, lag_order=lag_order)

        dX = np.diff(X, axis=0)
        ts = range(lag_order, n)  # rows t with Delta X_t and X_{t-K} observed
        Z0 = np.array([dX[t - 1] for t in ts])
        ZK = np.array([X[t - lag_order] for t in ts])
        Z1 = np.array([np.concatenate([[1.0]] + [dX[t - 1 - i] for i in range(1, lag_order)])
                       for t in ts])
        R0 = Z0 - Z1 @ scipy.linalg.lstsq(Z1, Z0)[0]
        RK = ZK - Z1 @ scipy.linalg.lstsq(Z1, ZK)[0]
        rows = len(ts)
        S00, SKK, S0K = R0.T @ R0 / rows, RK.T @ RK / rows, R0.T @ RK / rows
        oracle = scipy.linalg.eigh(S0K.T @ np.linalg.solve(S00, S0K), SKK,
                                   eigvals_only=True)[::-1]
        assert res.n_obs == rows
        np.testing.assert_allclose(res.eigenvalues, oracle, rtol=0, atol=1e-10)

    def test_singular_moment_matrix_rejected(self):
        # a pure trend is not collinear with a walk in levels, but its
        # differences are constant, so the differenced residuals vanish
        rng = np.random.default_rng(51)
        X = np.column_stack([random_walk(rng, 100), np.arange(100.0)])
        with pytest.raises(cf.NumericalError, match="collinear"):
            cf.johansen_trace(X)

    def test_collinear_panel_rejected(self):
        rng = np.random.default_rng(48)
        x = random_walk(rng, 100)
        X = np.column_stack([x, 2.0 * x])
        with pytest.raises(cf.NumericalError, match="collinear"):
            cf.johansen_trace(X)

    def test_lag_order_needs_more_rows_than_parameters(self):
        # n=60, k=2: lag order 19 leaves 41 rows for 37 parameters, 21 leaves 39 for 41;
        # a lag order past n once escaped as numpy's "negative dimensions" ValueError
        rng = np.random.default_rng(3)
        X = np.column_stack([random_walk(rng, 60), random_walk(rng, 60)])
        assert cf.johansen_trace(X, lag_order=19).n_obs == 41
        for lag_order in (21, 99999):
            with pytest.raises(cf.DataError, match=f"at lag order {lag_order} \\(n=60"):
                cf.johansen_trace(X, lag_order=lag_order)

    def test_too_many_series_rejected(self):
        rng = np.random.default_rng(49)
        X = rng.normal(size=(100, 7)).cumsum(axis=0)
        with pytest.raises(cf.DataError, match="2..6"):
            cf.johansen_trace(X)

    def test_too_few_observations_rejected(self):
        rng = np.random.default_rng(50)
        X = rng.normal(size=(12, 3)).cumsum(axis=0)
        with pytest.raises(cf.DataError, match="too few"):
            cf.johansen_trace(X)

    def test_missing_values_rejected(self):
        X = np.ones((60, 2)).cumsum(axis=0)
        X[5, 1] = np.nan
        with pytest.raises(cf.DataError, match="missing"):
            cf.johansen_trace(X)


# ---------------------------------------------------------------------------
# table emitters
# ---------------------------------------------------------------------------

class TestTables:
    def test_adf_table_rows(self):
        rng = np.random.default_rng(51)
        results = {"a": cf.adf_test(random_walk(rng, 80)),
                   "b": cf.adf_test(random_walk(rng, 80))}
        header, rows = cf.adf_table(results)
        assert header == ["", "Test Statistic", "p-value"]
        assert [r[0] for r in rows] == ["a", "b"]
        assert rows[0][1] == format(results["a"].statistic, ".2f")

    def test_johansen_table_rows(self):
        rng = np.random.default_rng(52)
        res = cf.johansen_trace(cointegrated_pair(rng, 150))
        header, rows = cf.johansen_table(res)
        assert header == ["", "Test Statistic", "Critical Value (5%)", "Rejected"]
        assert rows[0][0] == "r <= 1"
        assert rows[1][0] == "r = 0"
        assert rows[1][3] in ("yes", "no")
