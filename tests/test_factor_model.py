"""Factor regressions, the residual principal component, and the verdict."""

import numpy as np
import pytest

import creditfactors as cf


def fitted_system(rng, T=150, p=4, q=5):
    Y = rng.normal(size=(T, p))
    Z = rng.normal(size=(T, q))
    Z[:, 0] += Y[:, 0]
    Z[:, 1] += Y[:, 1]
    sol = cf.cca_fit(Y, Z)
    return Y, Z, sol


class TestFactorScores:
    def test_takes_leading_variates(self):
        rng = np.random.default_rng(80)
        Y, Z, sol = fitted_system(rng)
        fs = cf.FactorScores.from_solution(sol, r=2)
        assert fs.r == 2
        assert fs.names == ("Factor1", "Factor2")
        np.testing.assert_allclose(fs.scores, sol.u_scores[:, :2], atol=0)

    def test_r_must_fit_the_solution(self):
        rng = np.random.default_rng(81)
        _, _, sol = fitted_system(rng)
        with pytest.raises(cf.DataError):
            cf.FactorScores.from_solution(sol, r=sol.m + 1)
        with pytest.raises(cf.DataError):
            cf.FactorScores.from_solution(sol, r=0)


class TestFactorRegressions:
    def test_response_equal_to_a_factor_is_fit_exactly(self):
        rng = np.random.default_rng(82)
        Y, Z, sol = fitted_system(rng)
        fs = cf.FactorScores.from_solution(sol, r=3)
        responses = np.column_stack([fs.scores[:, 0] + 5.0,
                                     rng.normal(size=Y.shape[0])])
        fits = cf.factor_regressions(responses, fs)
        exact = fits[0]
        assert exact.adj_r_squared == pytest.approx(1.0, abs=1e-10)
        assert exact.coefficient("Factor1") == pytest.approx(1.0, abs=1e-8)
        assert exact.coefficient("Factor2") == pytest.approx(0.0, abs=1e-8)
        assert exact.coefficient("Factor3") == pytest.approx(0.0, abs=1e-8)
        assert exact.coefficient(cf.INTERCEPT) == pytest.approx(5.0, abs=1e-8)

    def test_full_variate_basis_reproduces_the_responses(self):
        # with every canonical variate retained, each response lies in the
        # span of the variates when the solution keeps all p directions
        rng = np.random.default_rng(83)
        Y, Z, sol = fitted_system(rng, p=3, q=5)
        fs = cf.FactorScores.from_solution(sol, r=3)
        fits = cf.factor_regressions(Y, fs)
        for fit in fits:
            assert fit.adj_r_squared == pytest.approx(1.0, abs=1e-8)

    def test_accepts_complete_panel(self):
        rng = np.random.default_rng(84)
        Y, Z, sol = fitted_system(rng, T=60)
        fs = cf.FactorScores.from_solution(sol, r=2)
        names = tuple(f"s{j}" for j in range(4))
        panel = cf.AlignedPanel(cf.Month(2006, 1), names, Y)
        fits = cf.factor_regressions(panel, fs)
        assert [f.response_name for f in fits] == ["s0", "s1", "s2", "s3"]

    def test_incomplete_panel_rejected(self):
        rng = np.random.default_rng(85)
        Y, Z, sol = fitted_system(rng, T=60)
        fs = cf.FactorScores.from_solution(sol, r=2)
        vals = np.array(Y)
        vals[0, 0] = np.nan
        names = tuple(f"s{j}" for j in range(4))
        panel = cf.AlignedPanel(cf.Month(2006, 1), names, vals)
        with pytest.raises(cf.DataError):
            cf.factor_regressions(panel, fs)

    def test_row_count_mismatch_rejected(self):
        rng = np.random.default_rng(86)
        Y, Z, sol = fitted_system(rng, T=60)
        fs = cf.FactorScores.from_solution(sol, r=2)
        with pytest.raises(cf.DataError):
            cf.factor_regressions(rng.normal(size=(59, 3)), fs)


class TestResidualPc1:
    def test_rank_one_matrix_is_fully_explained(self):
        rng = np.random.default_rng(87)
        scores = rng.normal(size=50)
        loadings = np.array([1.0, -0.5, 2.0])
        R = np.outer(scores, loadings)
        pc1, share = cf.residual_pc1(R)
        assert share == pytest.approx(1.0, abs=1e-12)
        assert pc1.std(ddof=1) == pytest.approx(1.0, abs=1e-12)
        r = np.corrcoef(pc1, scores)[0, 1]
        assert abs(r) == pytest.approx(1.0, abs=1e-12)

    def test_matches_eigendecomposition_oracle(self):
        rng = np.random.default_rng(88)
        R = rng.normal(size=(80, 5))
        pc1, share = cf.residual_pc1(R)
        C = R - R.mean(axis=0)
        w, V = np.linalg.eigh(np.cov(C, rowvar=False))
        lead = V[:, -1]
        oracle = C @ lead
        oracle /= oracle.std(ddof=1)
        r = np.corrcoef(pc1, oracle)[0, 1]
        assert abs(r) == pytest.approx(1.0, abs=1e-10)
        assert share == pytest.approx(w[-1] / w.sum(), abs=1e-10)

    def test_sign_convention_largest_loading_positive(self):
        rng = np.random.default_rng(89)
        R = rng.normal(size=(60, 4))
        pc1, _ = cf.residual_pc1(R)
        loadings = np.array([np.corrcoef(R[:, j], pc1)[0, 1] for j in range(4)])
        assert loadings[np.argmax(np.abs(loadings))] > 0

    def test_zero_matrix_rejected(self):
        with pytest.raises(cf.NumericalError, match="degenerate residuals"):
            cf.residual_pc1(np.zeros((30, 3)))

    def test_single_column_rejected(self):
        rng = np.random.default_rng(90)
        with pytest.raises(cf.DataError):
            cf.residual_pc1(rng.normal(size=(30, 1)))


class TestAugmentWithPc1:
    def setup_fits(self, seed, T=120, n=5):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(T, 2))
        common = rng.normal(size=T)
        fits, ys = [], []
        for j in range(n):
            y = X @ rng.normal(size=2) + 0.8 * common + 0.4 * rng.normal(size=T)
            fits.append(cf.ols(y, X, response_name=f"y{j}"))
            ys.append(y)
        return fits, X, np.column_stack(ys)

    def test_appends_named_component(self):
        fits, X, Y = self.setup_fits(91)
        aug, pc1, share = cf.augment_with_pc1(fits, X, Y)
        for before, after in zip(fits, aug):
            assert after.predictor_names == before.predictor_names + (cf.PC1_NAME,)
            assert after.n_obs == before.n_obs

    def test_r_squared_never_decreases(self):
        fits, X, Y = self.setup_fits(92)
        aug, _, _ = cf.augment_with_pc1(fits, X, Y)
        for before, after in zip(fits, aug):
            assert after.r_squared >= before.r_squared - 1e-12

    def test_original_coefficients_survive_shared_design(self):
        # residuals are orthogonal to a shared design, so adding their
        # principal component cannot move the existing coefficients
        fits, X, Y = self.setup_fits(93)
        aug, _, _ = cf.augment_with_pc1(fits, X, Y)
        for before, after in zip(fits, aug):
            np.testing.assert_allclose(after.coefficients[:-1],
                                       before.coefficients, atol=1e-8)

    def test_common_shock_is_recovered(self):
        fits, X, Y = self.setup_fits(94)
        aug, pc1, share = cf.augment_with_pc1(fits, X, Y)
        assert share > 0.5
        for after in aug:
            assert abs(after.t_statistics[-1]) > 2.0


    def test_rank_one_residuals_rejected(self):
        # n responses on r factors from their own span leave residuals of rank
        # n - r; at rank one their component would fit every response exactly
        rng = np.random.default_rng(95)
        Y = rng.normal(size=(60, 3))
        for r in (2, 1):
            F = Y @ rng.normal(size=(3, r))
            fits = [cf.ols(Y[:, j], F, response_name=f"y{j}") for j in range(3)]
            if r == 2:
                with pytest.raises(cf.NumericalError, match="rank 1.*'factors'"):
                    cf.augment_with_pc1(fits, F, Y)
            else:
                aug, _, share = cf.augment_with_pc1(fits, F, Y)
                assert share < 1 - 1e-6 and all(f.adj_r_squared < 1 - 1e-6 for f in aug)

class TestDiagnostic:
    def test_planted_missing_factor_detected(self):
        for seed in range(5):
            spec = cf.scenario_missing_factor(seed)
            ds = cf.generate(spec)
            sol = cf.cca_fit(ds.responses, ds.proxies)
            fs = cf.FactorScores.from_solution(sol, r=2)
            fits = cf.factor_regressions(ds.responses, fs)
            report = cf.missing_factor_diagnostic(fits, fs.scores, ds.responses)
            assert report.verdict == cf.VERDICT_MISSING

    def test_fully_proxied_system_cleared(self):
        for seed in range(5):
            spec = cf.scenario_no_missing_factor(seed)
            ds = cf.generate(spec)
            sol = cf.cca_fit(ds.responses, ds.proxies)
            fs = cf.FactorScores.from_solution(sol, r=2)
            fits = cf.factor_regressions(ds.responses, fs)
            report = cf.missing_factor_diagnostic(fits, fs.scores, ds.responses)
            assert report.verdict == cf.VERDICT_NONE

    def test_component_on_most_but_not_all_responses_is_inconclusive(self):
        # a residual component loads on four of six responses: more than ceil(6/3) gain at
        # least the strong threshold but not all, and the mean gain is well above weak
        for seed in range(3):
            rng = np.random.default_rng([96, seed])
            T, X, common = 200, rng.normal(size=(200, 2)), rng.normal(size=200)
            loads = np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0])
            Y = X @ np.full((2, 6), 0.5) + np.outer(common, loads) + 0.3 * rng.normal(size=(T, 6))
            fits = [cf.ols(Y[:, j], X, response_name=f"y{j}") for j in range(6)]
            report = cf.missing_factor_diagnostic(fits, X, Y, thresholds=(0.30, 0.10))
            deltas = np.array(report.deltas)
            assert np.all(deltas[:4] >= 0.30 + 0.2) and np.all(deltas[4:] <= 0.30 - 0.2), deltas
            assert report.mean_delta >= 0.10 + 0.2, report.mean_delta
            assert report.verdict == cf.VERDICT_INCONCLUSIVE

    def test_report_is_internally_consistent(self):
        spec = cf.scenario_missing_factor(0)
        ds = cf.generate(spec)
        sol = cf.cca_fit(ds.responses, ds.proxies)
        fs = cf.FactorScores.from_solution(sol, r=2)
        fits = cf.factor_regressions(ds.responses, fs)
        report = cf.missing_factor_diagnostic(fits, fs.scores, ds.responses)
        np.testing.assert_allclose(report.deltas,
                                   np.array(report.adj_r2_after)
                                   - np.array(report.adj_r2_before), atol=1e-12)
        assert report.mean_delta == pytest.approx(np.mean(report.deltas), abs=1e-12)
        assert 0.0 <= report.pc1_variance_share <= 1.0
        assert report.strong_threshold > report.weak_threshold
        # the report carries the augmented fits its "after" column came from
        aug, _, share = cf.augment_with_pc1(fits, fs.scores, ds.responses)
        assert report.pc1_variance_share == share
        assert tuple(f.adj_r_squared for f in report.augmented) == report.adj_r2_after
        for mine, theirs in zip(report.augmented, aug):
            np.testing.assert_array_equal(mine.coefficients, theirs.coefficients)

    def test_threshold_order_validated(self):
        spec = cf.scenario_no_missing_factor(1)
        ds = cf.generate(spec)
        sol = cf.cca_fit(ds.responses, ds.proxies)
        fs = cf.FactorScores.from_solution(sol, r=2)
        fits = cf.factor_regressions(ds.responses, fs)
        with pytest.raises(cf.DataError):
            cf.missing_factor_diagnostic(fits, fs.scores, ds.responses, thresholds=(0.1, 0.3))

    @pytest.mark.parametrize("thresholds", [(np.nan, 0.1), (0.3, np.nan), (np.inf, 0.1)])
    def test_non_finite_thresholds_rejected(self, thresholds):
        ds = cf.generate(cf.scenario_no_missing_factor(1))
        fs = cf.FactorScores.from_solution(cf.cca_fit(ds.responses, ds.proxies), r=2)
        fits = cf.factor_regressions(ds.responses, fs)
        with pytest.raises(cf.DataError, match="thresholds must be finite"):
            cf.missing_factor_diagnostic(fits, fs.scores, ds.responses, thresholds=thresholds)

    def test_table_rows_layout(self):
        spec = cf.scenario_missing_factor(2)
        ds = cf.generate(spec)
        sol = cf.cca_fit(ds.responses, ds.proxies)
        fs = cf.FactorScores.from_solution(sol, r=2)
        fits = cf.factor_regressions(ds.responses, fs)
        report = cf.missing_factor_diagnostic(fits, fs.scores, ds.responses)
        header, rows = cf.diagnostic_table_rows(report)
        assert header[0] == ""
        assert len(rows) == len(report.responses) + 1  # trailing mean row
        assert rows[0][0] == report.responses[0]
        assert rows[-1][0] == "mean"
        assert rows[-1][-1] == format(report.mean_delta, ".3f")


def _augment(fits=slice(None), rows=slice(None), columns=slice(None)):
    """augment_with_pc1 on slices of four fits (the last on another design), X and Y."""
    rng = np.random.default_rng(97)
    X, Y = rng.normal(size=(40, 2)), rng.normal(size=(40, 3))
    fitted = [cf.ols(Y[:, j], X, response_name=f"y{j}") for j in range(3)]
    fitted.append(cf.ols(Y[:, 0], X[:, ::-1], response_name="y0", predictor_names=["b", "a"]))
    return cf.augment_with_pc1(fitted[fits], X[rows], Y[:, columns])


@pytest.mark.parametrize("call, error, message", [
    (lambda: cf.FactorScores(np.zeros((5, 2)), r=3), cf.DataError,
     "r=3 but scores have 2 columns"),
    (lambda: cf.residual_pc1(np.ones((2, 3))), cf.DataError, "need at least three rows"),
    (lambda: cf.residual_pc1(np.ones((5, 3))), cf.NumericalError,
     r"degenerate residuals \(no variation along the first component\)"),
    (lambda: _augment(fits=slice(1)), cf.DataError, "need at least two fitted responses"),
    (lambda: _augment(fits=slice(1, None)), cf.DataError, "fits do not share one design"),
    (lambda: _augment(fits=slice(3), rows=slice(1, None)), cf.DataError,
     "design rows 39 do not match fit rows 40"),
    (lambda: _augment(fits=slice(3), columns=slice(2)), cf.DataError,
     r"responses have shape \(40, 2\), fits \(40, 3\)"),
    (lambda: cf.DiagnosticReport((), (), (), (), 0.0, 0.0, 0.3, 0.1, "maybe"), cf.DataError,
     "unknown verdict 'maybe'"),
], ids=["scores-r", "pc1-two-rows", "pc1-constant", "augment-one-fit", "augment-designs",
        "augment-design-rows", "augment-responses", "report-verdict"])
def test_a_bad_argument_is_refused_by_name(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()
