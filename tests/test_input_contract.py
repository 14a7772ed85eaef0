"""One input contract for every array the numerical entry points take.

Each array goes through _linalg.finite_array: a NaN or infinite cell, or an array
with the wrong number of dimensions, raises a DataError that starts with the
argument's label, never numpy's LinAlgError or ValueError and never a result.
"""

import numpy as np
import pytest

import creditfactors as cf
from creditfactors.regress import stepwise_columns

RNG = np.random.default_rng(2020)
T = 60
Y = RNG.normal(size=(T, 3))
Z = RNG.normal(size=(T, 4)) + np.column_stack([Y, Y[:, 0]])
X = RNG.normal(size=(T, 2))
NAMES = ["a", "b", "c"]
SOLUTION = cf.cca_fit(Y, Z)
FACTORS = cf.FactorScores.from_solution(SOLUTION, 2)
FITS = cf.ols_columns(Y, X, NAMES)
RHO = np.array([0.5, 0.3, 0.1])
SPEC = cf.scenario_missing_factor(0, n_periods=30)
SPEC_FIELDS = {name: getattr(SPEC, name) for name in SPEC.__slots__}
DATA_FIELDS = {name: getattr(cf.generate(SPEC), name) for name in cf.SyntheticDataset.__slots__}


def _with(build, fields, name):
    return lambda a: build(**fields | {name: a})


# (entry, label of the argument made bad, a valid value of it, the call on a value)
ENTRIES = [
    ("ols", "predictor matrix", X, lambda a: cf.ols(Y[:, 0], a)),
    ("ols_columns", "response matrix", Y, lambda a: cf.ols_columns(a, X, NAMES)),
    ("stepwise_aic", "predictor matrix", X, lambda a: cf.stepwise_aic(Y[:, 0], a)),
    ("stepwise_columns", "response matrix", Y, lambda a: stepwise_columns(a, X, NAMES)),
    ("cca_fit-left", "left set", Y, lambda a: cf.cca_fit(a, Z)),
    ("cca_fit-right", "right set", Z, lambda a: cf.cca_fit(Y, a)),
    ("redundancy", "left set", Y, lambda a: cf.redundancy(SOLUTION, a)),
    ("cross_loadings", "right set", Z, lambda a: cf.cross_loadings(SOLUTION, a)),
    ("eigen_table", "canonical correlations", RHO, cf.eigen_table),
    ("wilks_lambda", "canonical correlations", RHO,
     lambda a: cf.wilks_lambda(a, p=3, q=4, n_obs=T)),
    ("adf_test", "series", Y[:, 0].cumsum(), cf.adf_test),
    ("johansen_trace", "panel", Y.cumsum(axis=0), cf.johansen_trace),
    ("factor_regressions", "responses", Y, lambda a: cf.factor_regressions(a, FACTORS)),
    ("residual_pc1", "residual matrix", Y, cf.residual_pc1),
    ("augment_with_pc1-design", "design", X, lambda a: cf.augment_with_pc1(FITS, a, Y)),
    ("augment_with_pc1-responses", "responses", Y,
     lambda a: cf.augment_with_pc1(FITS, X, a)),
    ("missing_factor_diagnostic", "design", X,
     lambda a: cf.missing_factor_diagnostic(FITS, a, Y)),
    ("FactorScores", "scores", FACTORS.scores, lambda a: cf.FactorScores(a, 2)),
    *[(f"FactorModelSpec-{name}", name, SPEC_FIELDS[name],
       _with(cf.FactorModelSpec, SPEC_FIELDS, name))
      for name in ("intercepts", "proxied_loadings", "missing_loadings", "proxy_projection",
                   "idio_variances")],
    *[(f"SyntheticDataset-{name}", name, DATA_FIELDS[name],
       _with(cf.SyntheticDataset, DATA_FIELDS, name))
      for name in cf.SyntheticDataset.__slots__ if name != "spec"],
]
BAD = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf, "ndim": None}


@pytest.mark.parametrize("entry, label, valid, call", ENTRIES, ids=[e[0] for e in ENTRIES])
def test_the_valid_value_is_accepted(entry, label, valid, call):
    call(valid)


@pytest.mark.parametrize("kind", BAD)
@pytest.mark.parametrize("entry, label, valid, call", ENTRIES, ids=[e[0] for e in ENTRIES])
def test_a_bad_array_raises_a_data_error_naming_it(entry, label, valid, call, kind):
    # before the one check, johansen_trace and residual_pc1 raised LinAlgError on an inf
    # cell, adf_test flattened a matrix, augment_with_pc1 raised numpy's ValueError on a
    # 3-D design, FactorScores took NaN scores, and eigen_table and wilks_lambda returned
    # NaN rows for a NaN correlation and flattened a 2-D array
    if kind == "ndim":
        bad = np.asarray(valid)[..., None]
        message = f"{label} must be {np.ndim(valid)}-D, got shape {bad.shape}"
    else:
        bad = np.array(valid, dtype=float)
        bad.flat[1] = BAD[kind]
        message = f"{label} must be finite, got a missing or infinite value"
    with pytest.raises(cf.DataError) as exc:
        call(bad)
    assert str(exc.value) == message


# ols and stepwise_aic take one response, a vector or a one-column matrix; the table's
# ndim case (a valid value with an axis appended) would be that accepted column
RESPONSE_CALLS = {"ols": lambda y: cf.ols(y, X),
                  "stepwise_aic": lambda y: cf.stepwise_aic(y, X)[0]}


@pytest.mark.parametrize("entry", RESPONSE_CALLS)
def test_one_response_is_a_vector_or_a_column(entry):
    fit, column = RESPONSE_CALLS[entry](Y[:, 0]), RESPONSE_CALLS[entry](Y[:, :1])
    assert fit.n_obs == column.n_obs == T
    np.testing.assert_array_equal(fit.coefficients, column.coefficients)


@pytest.mark.parametrize("shape", [(T // 2, 2), (T, 2), (1, T), (T, 1, 1), ()])
@pytest.mark.parametrize("entry", RESPONSE_CALLS)
def test_any_other_response_shape_raises_a_data_error(entry, shape):
    # a (T/2, 2) response was fitted end to end as one T-row series
    with pytest.raises(cf.DataError) as exc:
        RESPONSE_CALLS[entry](np.zeros(shape))
    assert str(exc.value) == f"response must be 1-D, got shape {shape}"


@pytest.mark.parametrize("entry", RESPONSE_CALLS)
def test_a_non_finite_response_raises_a_data_error_naming_it(entry):
    bad = Y[:, :1].copy()
    bad[1, 0] = np.nan
    with pytest.raises(cf.DataError) as exc:
        RESPONSE_CALLS[entry](bad)
    assert str(exc.value) == "response must be finite, got a missing or infinite value"
