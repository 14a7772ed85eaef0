"""creditfactors: latent-factor econometrics for credit spread panels.

The public names below load on first use (PEP 562), each from the module that
defines it, so `import creditfactors.cli` pays only for the modules it runs.
"""

__version__ = "0.1.0"

# public name -> the submodule that defines it
_DEFINED_IN = {name: module for module, names in {
    "errors": "DataError NumericalError",
    "panel": "GRADES TERMS AlignedPanel LoanBook LoanRecord Month YieldCurvePoint "
             "aggregate_loans align first_difference interpolate_quarterly read_loans_csv "
             "read_panel_csv read_yields_csv term_of_series to_spreads write_panel_csv",
    "regress": "INTERCEPT RegressionFit StepwiseStep StepwiseTrace fit_table ols ols_columns "
               "residual_matrix stepwise_aic",
    "stattests": "REGRESSION_CONSTANT REGRESSION_CONSTANT_TREND REGRESSION_KINDS TRACE_CV_5PCT "
                 "AdfResult JohansenResult adf_table adf_test default_lag_order johansen_table "
                 "johansen_trace",
    "cca": "CcaSolution EigenRow RedundancyRow WilksRow cca_fit cross_loadings "
           "cross_loadings_table_rows eigen_table eigen_table_rows redundancy "
           "redundancy_table_rows wilks_lambda wilks_table_rows",
    "factor_model": "PC1_NAME VERDICT_INCONCLUSIVE VERDICT_MISSING VERDICT_NONE DiagnosticReport "
                    "FactorScores augment_with_pc1 diagnostic_table_rows factor_regressions "
                    "missing_factor_diagnostic residual_pc1",
    "tables": "to_csv_text to_markdown",
    "synthgen": "FactorModelSpec SyntheticDataset default_spec generate population_cca "
                "population_covariance scenario_missing_factor scenario_no_missing_factor",
}.items() for name in names.split()}
_SUBMODULES = set(_DEFINED_IN.values())

__all__ = sorted([*_SUBMODULES, *_DEFINED_IN])


def __getattr__(name):
    import sys

    if name not in _SUBMODULES and name not in _DEFINED_IN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = f"{__name__}.{_DEFINED_IN.get(name, name)}"
    __import__(module)  # as an import statement does, so `python -X importtime` lists it
    value = sys.modules[module]
    if name in _DEFINED_IN:
        value = getattr(value, name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
