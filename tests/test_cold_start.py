"""What `import creditfactors.cli` loads, the lazy public names, and the frozen records.

The import checks run in a fresh interpreter: the test process has already
imported every module.
"""

import copy
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

import creditfactors as cf

PUBLIC_NAMES = [
    "AdfResult", "AlignedPanel", "CcaSolution", "DataError", "DiagnosticReport", "EigenRow",
    "FactorModelSpec", "FactorScores", "GRADES", "INTERCEPT", "JohansenResult", "LoanBook",
    "LoanRecord", "Month", "NumericalError", "PC1_NAME", "REGRESSION_CONSTANT",
    "REGRESSION_CONSTANT_TREND", "REGRESSION_KINDS", "RedundancyRow", "RegressionFit",
    "StepwiseStep", "StepwiseTrace", "SyntheticDataset", "TERMS", "TRACE_CV_5PCT",
    "VERDICT_INCONCLUSIVE", "VERDICT_MISSING", "VERDICT_NONE", "WilksRow", "YieldCurvePoint",
    "adf_table", "adf_test", "aggregate_loans", "align", "augment_with_pc1", "cca", "cca_fit",
    "cross_loadings", "cross_loadings_table_rows", "default_lag_order", "default_spec",
    "diagnostic_table_rows", "eigen_table", "eigen_table_rows", "errors", "factor_model",
    "factor_regressions", "first_difference", "fit_table", "generate", "interpolate_quarterly",
    "johansen_table", "johansen_trace", "missing_factor_diagnostic", "ols", "ols_columns",
    "panel", "population_cca", "population_covariance", "read_loans_csv", "read_panel_csv",
    "read_yields_csv", "redundancy", "redundancy_table_rows", "regress", "residual_matrix",
    "residual_pc1", "scenario_missing_factor", "scenario_no_missing_factor", "stattests",
    "stepwise_aic", "synthgen", "tables", "term_of_series", "to_csv_text", "to_markdown",
    "to_spreads", "wilks_lambda", "wilks_table_rows", "write_panel_csv",
]


def fresh(code):
    """stdout of `code` run by a new interpreter that finds this package first."""
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(cf.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=package_root))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_synthgen_import_loads_no_dataclasses():
    assert fresh("import sys, creditfactors.synthgen; print('dataclasses' in sys.modules)") == \
        "False"


def test_cli_import_leaves_out_what_only_simulate_uses():
    code = ("import sys, creditfactors.cli; "
            "print(sorted({'creditfactors.synthgen', 'json', 'dataclasses'} & set(sys.modules)))")
    assert fresh(code) == "[]"


def test_package_import_loads_no_module_of_its_own():
    code = ("import sys, creditfactors; "
            "print(sorted(m for m in sys.modules if m.startswith('creditfactors.')))")
    assert fresh(code) == "[]"


def test_public_names_resolve_lazily():
    assert len(PUBLIC_NAMES) == 81
    code = ("import creditfactors as cf\n"
            "names = sorted(cf.__all__)\n"
            "assert all(getattr(cf, n) is not None for n in names)\n"
            "assert set(names) <= set(dir(cf))\n"
            "scope = {}\n"
            "exec('from creditfactors import *', scope)\n"
            "assert all(n in scope for n in names)\n"
            "assert scope['Month'] is cf.panel.Month and scope['synthgen'] is cf.synthgen\n"
            "print(' '.join(names))")
    assert fresh(code).split() == PUBLIC_NAMES


def test_dir_lists_every_public_name():
    # in this process too: the fresh interpreter above calls __dir__ outside the tracer
    names = dir(cf)
    assert set(cf.__all__) <= set(names) and "__version__" in names


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
        cf.frobnicate  # noqa: B018
    assert not hasattr(cf, "cli_main")


def test_month_orders_compares_and_hashes_as_year_and_month():
    a, b, c = cf.Month(2010, 12), cf.Month(2011, 1), cf.Month(2011, 1)
    assert a < b and a <= b and b > a and b >= a and b <= c and b >= c
    assert not (b < c or b > c)
    assert b == c and a != b and b != (2011, 1)
    assert hash(b) == hash(c) == hash((2011, 1))
    assert len({a, b, c}) == 2
    assert sorted([b, a]) == [a, b] and min(b, a) is a
    with pytest.raises(TypeError):
        a < (2011, 1)  # noqa: B015
    assert repr(a) == "Month(year=2010, month=12)"
    assert copy.deepcopy(a) == a


def every_record():
    """One instance of each frozen record class, from the functions that build them."""
    rng = np.random.default_rng(3)
    T = 80
    Y = rng.normal(size=(T, 3)).cumsum(axis=0)
    Z = rng.normal(size=(T, 3)) + Y @ rng.normal(size=(3, 3))
    month = cf.Month(2010, 1)
    loan = cf.LoanRecord(month, 7.5, "A", 36)
    fit, trace = cf.stepwise_aic(Y[:, 0], Z)
    sol = cf.cca_fit(Y, Z)
    scores = cf.FactorScores.from_solution(sol, r=1)
    fits = cf.factor_regressions(Y, scores)
    spec = cf.scenario_missing_factor(seed=1, n_periods=12)
    return [spec, cf.generate(spec), month, loan, cf.LoanBook.from_records([loan]),
            cf.YieldCurvePoint(month, 36, 2.0), cf.AlignedPanel(month, ("S1",), Y[:, :1]),
            fit, trace.steps[0], trace, cf.adf_test(Y[:, 0]), cf.johansen_trace(Y[:, :2]), sol,
            cf.eigen_table(sol)[0], cf.wilks_lambda(sol)[0], cf.redundancy(sol, Y)[0], scores,
            cf.missing_factor_diagnostic(fits, scores.scores, Y)]


def test_records_refuse_assignment_and_deletion():
    records = every_record()
    assert len({type(r) for r in records}) == 18
    for record in records:
        name = type(record).__slots__[0]
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, before)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is before
        assert not hasattr(record, "__dict__")  # the fields live in slots


def test_records_compare_by_value():
    month = cf.Month(2010, 1)
    assert cf.LoanRecord(month, 7.5, "A", 36) == cf.LoanRecord(cf.Month(2010, 1), 7.5, "A", 36)
    assert cf.StepwiseStep("add", "x1", -3.0) != cf.StepwiseStep("drop", "x1", -3.0)
    book = cf.LoanBook([24120], [0], [7.5])
    assert book == book and book != cf.LoanBook([24120], [0], [7.5])  # arrays: by identity
    report = every_record()[-1]
    args = [getattr(report, n) for n in type(report).__slots__]
    assert cf.DiagnosticReport(*args[:-1]) == report  # the augmented fits are not compared
    assert "augmented" not in repr(report)


def test_a_spec_survives_deepcopy_and_pickle_and_is_checked_again():
    spec, dataset = every_record()[:2]
    for copied in (copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
        assert repr(copied) == repr(spec)
        assert not copied.intercepts.flags.writeable
        assert copied.intercepts is not spec.intercepts
    assert repr(copy.deepcopy(dataset)) == repr(dataset)
    assert not pickle.loads(pickle.dumps(dataset)).responses.flags.writeable
    bad = copy.copy(spec)
    object.__setattr__(bad, "seed", -1)  # past the frozen guard, to the slot itself
    for rebuild in (copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))):
        with pytest.raises(cf.DataError, match="seed must be nonnegative, got -1"):
            rebuild(bad)
