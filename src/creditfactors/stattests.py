"""Unit-root and cointegration testing on monthly series.

adf_test runs the augmented Dickey-Fuller regression and interpolates its
p-value from embedded finite-sample quantile tables, so reported p-values live
on [0.01, 0.99] and extreme statistics saturate at the ends instead of
extrapolating. johansen_trace runs the trace variant of the reduced-rank
cointegration test with an unrestricted constant (series with linear trends in
levels) and compares against embedded 5% critical values for up to six series.
"""

import numpy as np

from ._linalg import RCOND_MIN, canonical_pairs, finite_array, unit_columns
from ._record import Record, readonly
from .errors import DataError, NumericalError
from .panel import AlignedPanel
from .regress import ols, ols_columns, residual_matrix

REGRESSION_CONSTANT = "constant"
REGRESSION_CONSTANT_TREND = "constant_trend"
REGRESSION_KINDS = (REGRESSION_CONSTANT, REGRESSION_CONSTANT_TREND)

# Finite-sample quantiles of the Dickey-Fuller t distribution. Rows are sample
# sizes (last row is the asymptotic limit), columns cumulative probabilities.
_DF_SAMPLE_SIZES = np.array([25.0, 50.0, 100.0, 250.0, 500.0, 1e5])
_DF_PROBS = np.array([0.01, 0.025, 0.05, 0.10, 0.90, 0.95, 0.975, 0.99])
_DF_QUANTILES = {
    REGRESSION_CONSTANT: np.array([
        [-3.75, -3.33, -3.00, -2.63, -0.37, 0.00, 0.34, 0.72],
        [-3.58, -3.22, -2.93, -2.60, -0.40, -0.03, 0.29, 0.66],
        [-3.51, -3.17, -2.89, -2.58, -0.42, -0.05, 0.26, 0.63],
        [-3.46, -3.14, -2.88, -2.57, -0.42, -0.06, 0.24, 0.62],
        [-3.44, -3.13, -2.87, -2.57, -0.43, -0.07, 0.24, 0.61],
        [-3.43, -3.12, -2.86, -2.57, -0.44, -0.07, 0.23, 0.60],
    ]),
    REGRESSION_CONSTANT_TREND: np.array([
        [-4.38, -3.95, -3.60, -3.24, -1.14, -0.80, -0.50, -0.15],
        [-4.15, -3.80, -3.50, -3.18, -1.19, -0.87, -0.58, -0.24],
        [-4.04, -3.73, -3.45, -3.15, -1.22, -0.90, -0.62, -0.28],
        [-3.99, -3.69, -3.43, -3.13, -1.23, -0.92, -0.64, -0.31],
        [-3.98, -3.68, -3.42, -3.13, -1.24, -0.93, -0.65, -0.32],
        [-3.96, -3.66, -3.41, -3.12, -1.25, -0.94, -0.66, -0.33],
    ]),
}

# 5% critical values of the trace statistic (unrestricted constant), indexed by
# the number of common trends under the null, k - r = 1..6.
TRACE_CV_5PCT = {1: 8.18, 2: 17.95, 3: 31.52, 4: 48.28, 5: 70.60, 6: 90.39}


class AdfResult(Record):
    """One unit-root test; n_obs counts the rows entering the test regression."""

    __slots__ = ("statistic", "p_value", "lag_order", "regression_kind", "n_obs")

    def __init__(self, statistic: float, p_value: float, lag_order: int, regression_kind: str,
                 n_obs: int):
        if not 0.01 <= p_value <= 0.99:
            raise DataError(f"p-value outside [0.01, 0.99]: {p_value}")
        if regression_kind not in REGRESSION_KINDS:
            raise DataError(f"unknown regression kind {regression_kind!r}")
        self._set(statistic, p_value, lag_order, regression_kind, n_obs)


def default_lag_order(n: int) -> int:
    """Cube-root rule of thumb for the number of lagged difference terms."""
    return int(np.floor((max(n - 1, 1)) ** (1.0 / 3.0)))


def _df_pvalue(stat: float, n: int, kind: str) -> float:
    table = _DF_QUANTILES[kind]
    at_n = np.array([np.interp(n, _DF_SAMPLE_SIZES, table[:, j])
                     for j in range(table.shape[1])])
    # both interpolations clamp at the table edges, flooring/capping the p-value
    return float(np.interp(stat, at_n, _DF_PROBS))


def adf_test(series, lag_order: int = None, kind: str = REGRESSION_CONSTANT_TREND) -> AdfResult:
    """Augmented Dickey-Fuller test for a unit root in one complete series.

    The test regresses the first difference on the lagged level, lag_order
    lagged differences, a constant, and (for kind constant_trend) a linear
    trend. The statistic is the t-ratio on the lagged level. lag_order
    defaults to floor((n-1)^(1/3)).
    """
    y = finite_array(series, "series", ndim=1)
    n = y.size
    if kind not in REGRESSION_KINDS:
        raise DataError(f"unknown regression kind {kind!r}")
    if lag_order is None:
        lag_order = default_lag_order(n)
    lag_order = int(lag_order)
    if lag_order < 0:
        raise DataError(f"lag_order must be nonnegative, got {lag_order}")
    # at least 10 points, and more regression rows (n - 1 - lag) than parameters
    # (constant, lagged level, the lagged differences and any trend)
    need = max(lag_order + 10, 2 * lag_order + 4 + (kind == REGRESSION_CONSTANT_TREND))
    if n < need:
        raise DataError(f"series too short for the test at lag order {lag_order} "
                        f"(n={n}, need >= {need})")
    if np.ptp(y) == 0:
        raise NumericalError("degenerate series (constant)")

    dy = np.diff(y)
    p = lag_order
    rows = n - 1 - p
    response = dy[p:]
    cols = [y[p:n - 1]]
    names = ["lag_level"]
    for i in range(1, p + 1):
        cols.append(dy[p - i:n - 1 - i])
        names.append(f"diff_lag{i}")
    if kind == REGRESSION_CONSTANT_TREND:
        cols.append(np.arange(1, rows + 1, dtype=float))
        names.append("trend")
    fit = ols(response, np.column_stack(cols), response_name="diff", predictor_names=names)
    stat = float(fit.t_statistics[1])
    pval = _df_pvalue(stat, n - 1, kind)
    return AdfResult(statistic=stat, p_value=pval, lag_order=p,
                     regression_kind=kind, n_obs=rows)


class JohansenResult(Record):
    """Trace statistics for the nested nulls r <= k-1 down to r = 0.

    eigenvalues are descending, in [0, 1); n_obs counts the rows entering the
    reduced-rank regression.
    """

    __slots__ = ("hypotheses", "trace_statistics", "critical_values_5pct", "rejected",
                 "eigenvalues", "lag_order", "n_obs")

    def __init__(self, hypotheses: tuple, trace_statistics, critical_values_5pct,
                 rejected: tuple, eigenvalues, lag_order: int, n_obs: int):
        self._set(tuple(hypotheses), readonly(trace_statistics), readonly(critical_values_5pct),
                  tuple(bool(b) for b in rejected), readonly(eigenvalues), lag_order, n_obs)
        if not (len(self.hypotheses) == len(self.trace_statistics)
                == len(self.critical_values_5pct) == len(self.rejected)):
            raise DataError("result rows have inconsistent lengths")


def johansen_trace(panel, lag_order: int = 2) -> JohansenResult:
    """Johansen trace test on the levels of 2..6 jointly complete series.

    lag_order is the VAR lag length in levels (lag_order - 1 lagged
    differences enter the auxiliary regressions). The constant enters
    unrestricted, matching critical values for series with linear trends.

    It runs on the centred, unit-norm levels of _linalg.unit_columns, so
    neither the statistic nor the rank check (reciprocal condition number
    above RCOND_MIN) depends on a series' level or units.
    """
    X = finite_array(panel.values if isinstance(panel, AlignedPanel) else panel, "panel")
    n, k = X.shape
    if not 2 <= k <= 6:
        raise DataError(f"need 2..6 series (critical values embedded up to 6), got {k}")
    K = int(lag_order)
    if K < 1:
        raise DataError(f"lag_order must be >= 1, got {lag_order}")
    if n < 5 * k:
        raise DataError(f"too few observations (n={n}, need >= {5 * k})")
    # more auxiliary-regression rows (n - K) than parameters (constant, K - 1 lagged differences)
    need = K + 2 + (K - 1) * k
    if n < need:
        raise DataError(f"series too short for the test at lag order {K} (n={n}, need >= {need})")
    _, X, _ = unit_columns(X)
    sv = np.linalg.svd(X, compute_uv=False)
    if sv[-1] <= RCOND_MIN * sv[0]:
        raise NumericalError("collinear columns in panel")

    dX = np.diff(X, axis=0)
    rows = n - K
    lagged_diffs = np.hstack([np.empty((rows, 0))]
                             + [dX[K - 1 - i:n - 1 - i] for i in range(1, K)])

    # residuals R0 (differences) and RK (levels lagged K) of the auxiliary
    # regressions on a constant and the lagged differences, in one fit
    W = np.column_stack([dX[K - 1:], X[:n - K]])
    names = [f"{block}_{j + 1}" for block in ("R0", "RK") for j in range(k)]
    lag_names = [f"d{j + 1}_lag{i}" for i in range(1, K) for j in range(k)]
    R = residual_matrix(ols_columns(W, lagged_diffs, names, lag_names))
    # Johansen's eigenvalues, those of SKK^-1 SK0 S00^-1 S0K with S = R'R/rows,
    # are the squared canonical correlations of the residual blocks R0 and RK
    rho = canonical_pairs(R[:, :k], R[:, k:], ("R0", "RK"), "columns may be collinear")[0]
    lam = rho ** 2
    if np.any(1.0 - lam <= 1e-14):
        raise NumericalError("degenerate eigenvalue at 1; system is collinear")

    stats, cvs, hyps, rej = [], [], [], []
    for r_star in range(k - 1, -1, -1):
        stat = float(-rows * np.sum(np.log(1.0 - lam[r_star:])))
        cv = TRACE_CV_5PCT[k - r_star]
        hyps.append(f"r <= {r_star}" if r_star > 0 else "r = 0")
        stats.append(stat)
        cvs.append(cv)
        rej.append(stat > cv)
    return JohansenResult(
        hypotheses=tuple(hyps),
        trace_statistics=np.array(stats),
        critical_values_5pct=np.array(cvs),
        rejected=tuple(rej),
        eigenvalues=lam,
        lag_order=K,
        n_obs=rows,
    )


# ---------------------------------------------------------------------------
# table layouts
# ---------------------------------------------------------------------------

def adf_table(results: dict):
    """(header, rows) with one series per row: statistic and p-value."""
    header = ["", "Test Statistic", "p-value"]
    rows = [[name, format(res.statistic, ".2f"), format(res.p_value, ".2f")]
            for name, res in results.items()]
    return header, rows


def johansen_table(result: JohansenResult):
    """(header, rows) with one null hypothesis per row."""
    header = ["", "Test Statistic", "Critical Value (5%)", "Rejected"]
    rows = []
    for h, stat, cv, rej in zip(result.hypotheses, result.trace_statistics,
                                result.critical_values_5pct, result.rejected):
        rows.append([h, format(stat, ".2f"), format(cv, ".2f"),
                     "yes" if rej else "no"])
    return header, rows
