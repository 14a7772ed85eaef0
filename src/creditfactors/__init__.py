"""creditfactors: latent-factor econometrics for credit spread panels."""

from .errors import DataError, NumericalError
from .panel import (
    GRADES,
    TERMS,
    AlignedPanel,
    LoanBook,
    LoanRecord,
    Month,
    YieldCurvePoint,
    aggregate_loans,
    align,
    first_difference,
    interpolate_quarterly,
    read_loans_csv,
    read_panel_csv,
    read_yields_csv,
    term_of_series,
    to_spreads,
    write_panel_csv,
)
from .regress import (
    INTERCEPT,
    RegressionFit,
    StepwiseStep,
    StepwiseTrace,
    fit_table,
    ols,
    ols_columns,
    residual_matrix,
    stepwise_aic,
)
from .stattests import (
    REGRESSION_CONSTANT,
    REGRESSION_CONSTANT_TREND,
    REGRESSION_KINDS,
    TRACE_CV_5PCT,
    AdfResult,
    JohansenResult,
    adf_table,
    adf_test,
    default_lag_order,
    johansen_table,
    johansen_trace,
)
from .cca import (
    CcaSolution,
    EigenRow,
    RedundancyRow,
    WilksRow,
    cca_fit,
    cross_loadings,
    cross_loadings_table_rows,
    eigen_table,
    eigen_table_rows,
    redundancy,
    redundancy_table_rows,
    wilks_lambda,
    wilks_table_rows,
)
from .factor_model import (
    PC1_NAME,
    VERDICT_INCONCLUSIVE,
    VERDICT_MISSING,
    VERDICT_NONE,
    DiagnosticReport,
    FactorScores,
    augment_with_pc1,
    diagnostic_table_rows,
    factor_regressions,
    missing_factor_diagnostic,
    residual_pc1,
)
from .tables import to_csv_text, to_markdown
from .synthgen import (
    FactorModelSpec,
    SyntheticDataset,
    default_spec,
    generate,
    population_cca,
    population_covariance,
    scenario_missing_factor,
    scenario_no_missing_factor,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
