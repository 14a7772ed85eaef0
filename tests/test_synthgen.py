"""Synthetic factor-model generator and its analytic population quantities."""

import numpy as np
import pytest
import scipy.linalg

import creditfactors as cf


def small_spec(seed=0, n_periods=500, noise=0.3):
    return cf.FactorModelSpec(
        intercepts=[1.0, -2.0, 0.5, 3.0],
        proxied_loadings=[[1.0, 0.2], [0.4, -1.1], [-0.6, 0.8], [1.3, 0.5]],
        missing_loadings=np.empty((4, 0)),
        proxy_projection=[[0.9, 0.1], [0.2, -0.8], [0.3, 0.4]],
        proxy_noise_scale=noise,
        idio_variances=[0.5, 0.4, 0.6, 0.45],
        n_periods=n_periods,
        seed=seed,
    )


def respec(spec, **changes):
    """spec with the given fields replaced, built and checked again."""
    fields = {name: getattr(spec, name) for name in cf.FactorModelSpec.__slots__}
    return cf.FactorModelSpec(**{**fields, **changes})


class TestGenerate:
    def test_same_seed_reproduces_every_byte(self):
        a = cf.generate(small_spec(seed=7))
        b = cf.generate(small_spec(seed=7))
        for field in ("responses", "proxies", "proxied_factors",
                      "missing_factors", "idiosyncratic"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))

    def test_different_seeds_differ(self):
        a = cf.generate(small_spec(seed=1))
        b = cf.generate(small_spec(seed=2))
        assert not np.allclose(a.responses, b.responses)

    def test_shapes(self):
        ds = cf.generate(small_spec(n_periods=100))
        assert ds.responses.shape == (100, 4)
        assert ds.proxies.shape == (100, 3)
        assert ds.proxied_factors.shape == (100, 2)
        assert ds.missing_factors.shape == (100, 0)
        assert ds.idiosyncratic.shape == (100, 4)

    def test_pieces_rebuild_the_responses(self):
        spec = cf.scenario_missing_factor(3)
        ds = cf.generate(spec)
        rebuilt = (spec.intercepts
                   + ds.proxied_factors @ spec.proxied_loadings.T
                   + ds.missing_factors @ spec.missing_loadings.T
                   + ds.idiosyncratic)
        np.testing.assert_allclose(rebuilt, ds.responses, atol=1e-12)

    def test_arrays_are_read_only(self):
        ds = cf.generate(small_spec())
        with pytest.raises(ValueError):
            ds.responses[0, 0] = 99.0


class TestSpecValidation:
    def test_shape_mismatches_rejected(self):
        with pytest.raises(cf.DataError, match="intercepts"):
            cf.FactorModelSpec(
                intercepts=[1.0], proxied_loadings=[[1.0], [0.5]],
                missing_loadings=np.empty((2, 0)), proxy_projection=[[1.0]],
                proxy_noise_scale=0.1, idio_variances=[0.5, 0.5],
                n_periods=10, seed=0)

    def test_nonpositive_idio_rejected(self):
        with pytest.raises(cf.DataError, match="positive"):
            cf.FactorModelSpec(
                intercepts=[1.0, 2.0], proxied_loadings=[[1.0], [0.5]],
                missing_loadings=np.empty((2, 0)), proxy_projection=[[1.0]],
                proxy_noise_scale=0.1, idio_variances=[0.5, 0.0],
                n_periods=10, seed=0)

    def test_rank_deficient_loadings_rejected(self):
        with pytest.raises(cf.DataError, match="full column rank"):
            cf.FactorModelSpec(
                intercepts=[1.0, 2.0], proxied_loadings=[[1.0, 2.0], [0.5, 1.0]],
                missing_loadings=np.empty((2, 0)),
                proxy_projection=[[1.0, 0.0], [0.0, 1.0]],
                proxy_noise_scale=0.1, idio_variances=[0.5, 0.5],
                n_periods=10, seed=0)

    @pytest.mark.parametrize("make", [cf.default_spec, lambda: cf.scenario_missing_factor(7)],
                             ids=["default", "missing_factor"])
    @pytest.mark.parametrize("unit", [1e-9, 1e-6, 1e6])
    def test_rank_rule_is_relative_to_the_largest_singular_value(self, make, unit):
        # the same model in other units passes the rank rule and keeps its correlations
        base = make()
        rescaled = respec(base, proxied_loadings=unit * base.proxied_loadings,
                          missing_loadings=unit * base.missing_loadings,
                          idio_variances=unit ** 2 * base.idio_variances)
        np.testing.assert_allclose(cf.population_cca(rescaled), cf.population_cca(base),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("unit", [1e-9, 1.0, 1e6])
    def test_near_collinear_loadings_rejected_in_any_units(self, unit):
        # a third column 1e6 times the second plus a 1e-3 ramp: condition number ~1e14
        desk = cf.default_spec()
        b = unit * np.array(desk.proxied_loadings)
        b[:, 2] = 1e6 * b[:, 1] + unit * 1e-3 * np.arange(12)
        assert np.linalg.cond(b) > 1e13
        with pytest.raises(cf.DataError, match="^proxied_loadings must have full column rank$"):
            respec(desk, proxied_loadings=b)

    def test_too_few_periods_rejected(self):
        with pytest.raises(cf.DataError, match="n_periods"):
            cf.FactorModelSpec(
                intercepts=[1.0, 2.0], proxied_loadings=[[1.0], [0.5]],
                missing_loadings=np.empty((2, 0)), proxy_projection=[[1.0]],
                proxy_noise_scale=0.1, idio_variances=[0.5, 0.5],
                n_periods=1, seed=0)


class TestPopulationCca:
    def test_scalar_closed_form(self):
        b, theta, s, w = 1.3, 0.7, 0.4, 0.6
        spec = cf.FactorModelSpec(
            intercepts=[0.0], proxied_loadings=[[b]],
            missing_loadings=np.empty((1, 0)), proxy_projection=[[theta]],
            proxy_noise_scale=s, idio_variances=[w], n_periods=10, seed=0)
        rho = cf.population_cca(spec)
        expected = abs(b * theta) / np.sqrt(b * b * (theta * theta + s * s) + w)
        assert rho.shape == (1,)
        assert rho[0] == pytest.approx(expected, abs=1e-14)

    def test_matches_generalized_eigenproblem_oracle(self):
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            n, k, r = 6, 5, 3
            spec = cf.FactorModelSpec(
                intercepts=rng.normal(size=n),
                proxied_loadings=rng.normal(size=(n, r)),
                missing_loadings=rng.normal(size=(n, 1)),
                proxy_projection=rng.normal(size=(k, r)),
                proxy_noise_scale=0.5,
                idio_variances=rng.uniform(0.3, 0.8, n),
                n_periods=10, seed=seed)
            rho = cf.population_cca(spec)
            cov_yy, cov_yz, cov_zz = cf.population_covariance(spec)
            A = cov_yz @ np.linalg.solve(cov_zz, cov_yz.T)
            w = scipy.linalg.eigh(A, cov_yy, eigvals_only=True)
            expected = np.clip(w, 0.0, 1.0)[::-1][:min(n, k)]
            # compare squared correlations: the square root would turn the
            # oracle's 1e-16 eigenvalue noise into 1e-8 at the null pairs
            np.testing.assert_allclose(rho ** 2, expected, atol=1e-12)

    def test_correlation_count_equals_proxied_rank(self):
        spec = cf.scenario_missing_factor(0)
        rho = cf.population_cca(spec)
        assert rho.shape == (min(spec.n_responses, spec.n_proxies),)
        assert np.sum(rho > 1e-10) == spec.n_proxied
        assert np.all(np.diff(rho) <= 1e-12)

    def test_covariance_blocks_match_sample_moments(self):
        spec = small_spec(seed=9, n_periods=200_000)
        ds = cf.generate(spec)
        cov_yy, cov_yz, cov_zz = cf.population_covariance(spec)
        sample_yy = np.cov(ds.responses, rowvar=False)
        sample_yz = np.cov(np.column_stack([ds.responses, ds.proxies]),
                           rowvar=False)[:4, 4:]
        np.testing.assert_allclose(sample_yy, cov_yy, atol=0.05)
        np.testing.assert_allclose(sample_yz, cov_yz, atol=0.05)
        np.testing.assert_allclose(np.cov(ds.proxies, rowvar=False), cov_zz,
                                   atol=0.05)

    def test_sample_cca_approaches_population(self):
        spec = small_spec(seed=4, n_periods=50_000, noise=0.4)
        ds = cf.generate(spec)
        sample = cf.cca_fit(ds.responses, ds.proxies).correlations
        population = cf.population_cca(spec)
        # two pairs are real; the third is null and carries only the
        # usual upward small-sample bias
        np.testing.assert_allclose(sample[:2], population[:2], atol=0.02)
        assert sample[2] < 0.05 and population[2] < 1e-10

    def test_noiseless_limit_gives_perfect_leading_pairs(self):
        # idio variance well above the singularity guard but far below the
        # factor signal, so the leading pairs sit next to 1
        spec = cf.FactorModelSpec(
            intercepts=[0.0, 1.0, 2.0],
            proxied_loadings=[[1.0, 0.0], [0.0, 1.0], [0.7, 0.7]],
            missing_loadings=np.empty((3, 0)),
            proxy_projection=[[1.0, 0.0], [0.0, 1.0], [0.5, -0.5]],
            proxy_noise_scale=0.0,
            idio_variances=[1e-6, 1e-6, 1e-6],
            n_periods=400, seed=12)
        rho = cf.population_cca(spec)
        np.testing.assert_allclose(rho[:2], [1.0, 1.0], atol=2e-6)
        ds = cf.generate(spec)
        sample = cf.cca_fit(ds.responses, ds.proxies).correlations
        np.testing.assert_allclose(sample[:2], [1.0, 1.0], atol=1e-4)

    @pytest.mark.parametrize("idio", [1e-16, 1e-30])
    def test_vanishing_idio_variance_is_a_numerical_error(self, idio):
        # the joint covariance is then not positive definite in floating point
        spec = cf.FactorModelSpec(
            intercepts=[0.0, 1.0, 2.0],
            proxied_loadings=[[1.0, 0.0], [0.0, 1.0], [0.7, 0.7]],
            missing_loadings=np.empty((3, 0)),
            proxy_projection=[[1.0, 0.0], [0.0, 1.0], [0.5, -0.5]],
            proxy_noise_scale=0.0,
            idio_variances=[idio] * 3,
            n_periods=400, seed=12)
        with pytest.raises(cf.NumericalError, match="use positive idio_variances"):
            cf.population_cca(spec)


class TestCannedSpecs:
    def test_scenarios_share_the_proxied_block(self):
        a = cf.scenario_no_missing_factor(0)
        b = cf.scenario_missing_factor(0)
        np.testing.assert_array_equal(a.proxied_loadings, b.proxied_loadings)
        np.testing.assert_array_equal(a.proxy_projection, b.proxy_projection)
        assert a.n_missing == 0
        assert b.n_missing == 1

    def test_scenario_dimensions(self):
        spec = cf.scenario_missing_factor(5)
        assert spec.n_responses == 6
        assert spec.n_proxies == 5
        assert spec.n_proxied == 2
        assert spec.n_periods == 240
        assert spec.seed == 5

    def test_default_spec_dimensions(self):
        spec = cf.default_spec(seed=3)
        assert spec.n_responses == 12
        assert spec.n_proxies == 10
        assert spec.n_proxied == 3
        assert spec.n_periods == 63


class TestSpecFile:
    """read_spec's refusals; tests/test_cli.py runs the format through `simulate`."""

    @pytest.mark.parametrize("text, message", [
        ('{"preset": "nope"}', "unknown preset 'nope' (expected one of ['default', "
                               "'missing_factor', 'no_missing_factor'])"),
        ('{"preset": "default", "foo": 1}', "unexpected keys with preset: ['foo']"),
        ('{"preset": "default", "seed": "x"}', "invalid literal for int() with base 10: 'x'"),
        ("[1, 2]", "expected a JSON object"),
        ('{"intercepts": [1.0]}', "missing keys: ['idio_variances', 'n_periods', "
                                  "'proxied_loadings', 'proxy_noise_scale', "
                                  "'proxy_projection', 'seed']"),
        ('{"preset": "def', "not valid JSON (Unterminated string starting at: line 1 "
                            "column 12 (char 11))"),
        ('{"intercepts": [1.0], "proxied_loadings": [[1.0]], "proxy_projection": [[1.0]], '
         '"proxy_noise_scale": 0.1, "idio_variances": [1.0], "n_periods": 30, "seed": 0, '
         '"extra": 1}', "unknown keys: ['extra']"),
    ], ids=["unknown-preset", "extra-with-preset", "bad-seed", "array", "missing-keys",
            "truncated", "unknown-key"])
    def test_a_fault_in_the_file_names_it(self, tmp_path, text, message):
        (tmp_path / "spec.json").write_text(text)
        with pytest.raises(cf.DataError) as caught:
            cf.synthgen.read_spec(tmp_path / "spec.json", seed=3)
        assert str(caught.value) == f"{tmp_path / 'spec.json'}: {message}"
