"""Least squares, model search, and the fit-table emitter."""

import numpy as np
import pytest

import creditfactors as cf


def normal_equation_fit(y, X):
    """Independent textbook solution: beta, classical standard errors, AIC."""
    XtX = X.T @ X
    beta = np.linalg.solve(XtX, X.T @ y)
    resid = y - X @ beta
    n, k = X.shape
    rss = float(resid @ resid)
    sigma2 = rss / (n - k)
    se = np.sqrt(np.diag(sigma2 * np.linalg.inv(XtX)))
    aic = n * np.log(rss / n) + 2 * k
    return beta, se, resid, aic


class TestOls:
    def test_exact_line(self):
        x = np.arange(10.0)
        y = 2.0 * x + 1.0
        fit = cf.ols(y, x[:, None])
        assert fit.coefficients[0] == pytest.approx(1.0, abs=1e-10)
        assert fit.coefficients[1] == pytest.approx(2.0, abs=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(0)
        for trial in range(50):
            n = int(rng.integers(20, 120))
            k = int(rng.integers(1, 6))
            X = rng.normal(size=(n, k))
            beta = rng.normal(size=k + 1)
            y = beta[0] + X @ beta[1:] + rng.normal(size=n)
            fit = cf.ols(y, X)
            design = np.column_stack([np.ones(n), X])
            b, se, resid, aic = normal_equation_fit(y, design)
            np.testing.assert_allclose(fit.coefficients, b, atol=1e-8)
            np.testing.assert_allclose(fit.std_errors, se, atol=1e-8)
            np.testing.assert_allclose(fit.residuals, resid, atol=1e-8)
            assert fit.aic == pytest.approx(aic, abs=1e-8)
            tss = float(((y - y.mean()) ** 2).sum())
            rss = float(resid @ resid)
            assert fit.r_squared == pytest.approx(1 - rss / tss, abs=1e-10)
            adj = 1 - (1 - fit.r_squared) * (n - 1) / (n - k - 1)
            assert fit.adj_r_squared == pytest.approx(adj, abs=1e-10)

    def test_t_is_coefficient_over_standard_error(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        fit = cf.ols(y, X)
        np.testing.assert_allclose(fit.t_statistics,
                                   fit.coefficients / fit.std_errors, atol=1e-12)

    def test_residuals_orthogonal_to_intercept(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(60, 2))
        y = rng.normal(size=60)
        fit = cf.ols(y, X)
        assert abs(fit.residuals.sum()) < 1e-8

    def test_constant_response(self):
        y = np.full(25, 3.5)
        x = np.arange(25.0)
        fit = cf.ols(y, x[:, None])
        assert fit.coefficients[1] == pytest.approx(0.0, abs=1e-10)
        assert fit.r_squared == 0.0
        assert fit.t_statistics[1] == 0.0

    def test_adjusted_never_exceeds_plain(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            X = rng.normal(size=(30, 4))
            y = rng.normal(size=30)
            fit = cf.ols(y, X)
            assert fit.adj_r_squared <= fit.r_squared + 1e-12

    def test_fitted_values_invariant_to_predictor_scaling(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(50, 3))
        y = X @ [1.0, -2.0, 0.5] + rng.normal(size=50)
        f1 = cf.ols(y, X)
        f2 = cf.ols(y, X * np.array([10.0, 0.01, 3.0]))
        np.testing.assert_allclose(y - f1.residuals, y - f2.residuals, atol=1e-8)

    def test_intercept_only(self):
        y = np.array([1.0, 2.0, 3.0, 6.0])
        fit = cf.ols(y)
        assert fit.coefficients[0] == pytest.approx(y.mean())
        assert fit.predictor_names == (cf.INTERCEPT,)

    def test_rank_deficiency_names_suspect_columns(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=40)
        X = np.column_stack([x, 2 * x, rng.normal(size=40)])
        with pytest.raises(cf.NumericalError) as exc:
            cf.ols(rng.normal(size=40), X, predictor_names=["a", "a_doubled", "b"])
        msg = str(exc.value)
        assert "a" in msg and "a_doubled" in msg

    def test_nan_rejected(self):
        y = np.array([1.0, np.nan, 3.0])
        with pytest.raises(cf.DataError):
            cf.ols(y, np.ones((3, 1)))

    @pytest.mark.parametrize("cell", ["y", "X"])
    def test_infinite_cell_rejected(self, cell):
        y, X = np.arange(10.0), np.random.default_rng(7).normal(size=(10, 2))
        if cell == "y":
            y[3] = np.inf
        else:
            X[3, 1] = np.inf
        for call in (cf.ols, cf.stepwise_aic):
            with pytest.raises(cf.DataError, match="infinite"):
                call(y, X)

    def test_too_few_rows_rejected(self):
        with pytest.raises(cf.DataError):
            cf.ols(np.array([1.0, 2.0]), np.eye(2))

    def test_named_coefficient_lookup(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(30, 2))
        fit = cf.ols(rng.normal(size=30), X, predictor_names=["u", "v"])
        assert fit.coefficient("u") == fit.coefficients[1]
        assert fit.coefficient(cf.INTERCEPT) == fit.coefficients[0]
        with pytest.raises(cf.DataError):
            fit.coefficient("w")


FIT_FIELDS = ("response_name", "predictor_names", "coefficients", "std_errors", "t_statistics",
              "residuals", "r_squared", "adj_r_squared", "aic", "n_obs", "condition_number")


def assert_fits_equal(mine, theirs):
    for name in FIT_FIELDS:
        a, b = getattr(mine, name), getattr(theirs, name)
        if isinstance(a, np.ndarray):
            np.testing.assert_array_equal(a, b, name)
        else:
            assert a == b, name


class TestOlsColumns:
    """One decomposition per design, and per column the numbers ols gives."""

    @pytest.mark.parametrize("seed, T, p, m", [(20, 40, 3, 5), (21, 120, 6, 2),
                                               (22, 15, 1, 4), (23, 60, 0, 3)])
    def test_every_field_equals_per_column_ols(self, seed, T, p, m):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(T, p))
        Y = X @ rng.normal(size=(p, m)) + rng.normal(size=(T, m))
        Y[:, m // 2] = 1.25  # a constant response column
        names = [f"r{j}" for j in range(m)]
        preds = [f"z{j}" for j in range(p)]
        fits = cf.ols_columns(Y, X, names, preds)
        assert len(fits) == m
        for j, fit in enumerate(fits):
            assert_fits_equal(fit, cf.ols(Y[:, j], X, response_name=names[j],
                                          predictor_names=preds))
        constant = fits[m // 2]
        assert constant.coefficients[0] == 1.25 and not constant.residuals.any()

    def test_intercept_only_design(self):
        rng = np.random.default_rng(24)
        Y = rng.normal(size=(30, 3))
        fits = cf.ols_columns(Y, np.empty((30, 0)), ["a", "b", "c"])
        for j, fit in enumerate(fits):
            assert fit.predictor_names == (cf.INTERCEPT,)
            assert_fits_equal(fit, cf.ols(Y[:, j], response_name="abc"[j]))
            assert fit.coefficients[0] == pytest.approx(Y[:, j].mean(), abs=1e-12)

    def test_collinear_design_names_columns(self):
        rng = np.random.default_rng(25)
        x = rng.normal(size=40)
        X = np.column_stack([rng.normal(size=40), x, 3 * x])
        with pytest.raises(cf.NumericalError) as exc:
            cf.ols_columns(rng.normal(size=(40, 2)), X, ["a", "b"], ["u", "v", "v_tripled"])
        msg = str(exc.value)
        assert "v, v_tripled" in msg and "u" not in msg.split("collinear columns:")[1]

    def test_name_count_must_match_columns(self):
        with pytest.raises(cf.DataError, match="2 response names for 3 columns"):
            cf.ols_columns(np.ones((10, 3)), None, ["a", "b"])


class TestStepwise:
    def test_recovers_strong_predictors(self):
        rng = np.random.default_rng(7)
        n = 200
        X = rng.normal(size=(n, 6))
        y = 1.0 + 3.0 * X[:, 1] - 2.0 * X[:, 4] + 0.3 * rng.normal(size=n)
        names = [f"x{j}" for j in range(6)]
        fit, trace = cf.stepwise_aic(y, X, predictor_names=names)
        assert set(fit.slope_names) >= {"x1", "x4"}
        # AIC is permissive, but most noise columns must stay out
        assert len(fit.slope_names) <= 4

    def test_trace_strictly_decreasing_and_consistent(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(80, 5))
        y = X @ rng.normal(size=5) + rng.normal(size=80)
        fit, trace = cf.stepwise_aic(y, X)
        aics = [trace.initial_aic] + [s.aic_after for s in trace.steps]
        for a, b in zip(aics, aics[1:]):
            assert b < a
        assert trace.final_aic == pytest.approx(fit.aic, abs=1e-10)

    def test_never_beaten_by_full_or_empty_model(self):
        rng = np.random.default_rng(9)
        for trial in range(10):
            X = rng.normal(size=(60, 4))
            y = rng.normal(size=60) + X[:, 0] * rng.normal()
            fit, _ = cf.stepwise_aic(y, X)
            full = cf.ols(y, X)
            empty = cf.ols(y)
            assert fit.aic <= full.aic + 1e-9
            assert fit.aic <= empty.aic + 1e-9

    def test_empty_candidate_set_gives_intercept_model(self):
        y = np.arange(12.0)
        fit, trace = cf.stepwise_aic(y, None)
        assert fit.predictor_names == (cf.INTERCEPT,)
        assert trace.steps == ()

    def test_selected_predictors_keep_column_order(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(150, 4))
        y = 2 * X[:, 0] + 3 * X[:, 2] + 2 * X[:, 3] + 0.1 * rng.normal(size=150)
        names = ["a", "b", "c", "d"]
        fit, _ = cf.stepwise_aic(y, X, predictor_names=names)
        slopes = list(fit.slope_names)
        assert slopes == sorted(slopes, key=names.index)

    def test_pure_noise_usually_selects_nothing(self):
        rng = np.random.default_rng(11)
        kept = 0
        for _ in range(20):
            X = rng.normal(size=(100, 3))
            y = rng.normal(size=100)
            fit, _ = cf.stepwise_aic(y, X)
            kept += len(fit.slope_names)
        # 60 candidate admissions; AIC's false-admit rate is near 16%, so
        # anything approaching half would mean selection is broken
        assert kept <= 24


class TestResidualMatrix:
    def test_stacks_by_column(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(40, 2))
        fits = [cf.ols(rng.normal(size=40), X, response_name=f"y{j}") for j in range(3)]
        R = cf.residual_matrix(fits)
        assert R.shape == (40, 3)
        for j, fit in enumerate(fits):
            np.testing.assert_allclose(R[:, j], fit.residuals, atol=0)

    def test_uneven_lengths_rejected(self):
        f1 = cf.ols(np.arange(10.0))
        f2 = cf.ols(np.arange(12.0))
        with pytest.raises(cf.DataError):
            cf.residual_matrix([f1, f2])


class TestFitTable:
    def test_layout_coefficient_row_over_t_row(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(50, 2))
        y = X @ [1.0, -1.0] + rng.normal(size=50)
        fit = cf.ols(y, X, response_name="resp", predictor_names=["u", "v"])
        header, rows = cf.fit_table([fit])
        assert header[0] == ""
        assert header[1] == cf.INTERCEPT
        assert header[-1] == "Adj. R2"
        assert rows[0][0] == "resp"
        assert rows[1][0] == ""
        assert rows[0][1] == format(fit.coefficients[0], ".3f")
        assert rows[1][1] == format(fit.t_statistics[0], ".3f")
        assert rows[1][-1] == ""

    def test_unselected_predictors_left_blank(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(50, 1))
        fit = cf.ols(rng.normal(size=50), X, predictor_names=["kept"])
        header, rows = cf.fit_table([fit], predictors=[cf.INTERCEPT, "kept", "dropped"])
        col = header.index("dropped")
        assert rows[0][col] == "" and rows[1][col] == ""
