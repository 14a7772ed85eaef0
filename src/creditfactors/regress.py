"""Ordinary least squares with classical inference and AIC-driven stepwise selection.

Every fit has an intercept. ols_columns fits all response columns that share
one design against a single SVD of its centred, unit-norm predictor columns,
and ols is its one-column view. The stepwise search scores every candidate
model from the cross-products of those same columns and calls ols only for
the candidates that can still win, so its fits and AIC values are ols's own.

Conventions: t-statistics are classical (homoskedastic) ratios, adjusted R^2 is
1 - (1 - R^2)(T - 1)/(T - p - 1) for p slope predictors next to an intercept,
and AIC is the constant-free form T*ln(RSS/T) + 2k with k counting every
estimated mean parameter (intercept included). Only AIC differences between
models on the same response are meaningful.
"""

import numpy as np

from ._linalg import RCOND_MIN, unit_columns
from ._record import Record, readonly
from .errors import DataError, NumericalError

INTERCEPT = "(Intercept)"

# stepwise refits with ols every move whose fast AIC may be this close to a winner
AIC_WINDOW = 1e-6


class RegressionFit(Record):
    """One fitted least-squares equation and its classical diagnostics.

    condition_number is that of the centred, unit-norm slope columns, which
    does not depend on their units or levels; 1.0 for an intercept-only fit.
    """

    __slots__ = ("response_name", "predictor_names", "coefficients", "std_errors",
                 "t_statistics", "residuals", "r_squared", "adj_r_squared", "aic", "n_obs",
                 "condition_number")

    def __init__(self, response_name: str, predictor_names: tuple, coefficients, std_errors,
                 t_statistics, residuals, r_squared: float, adj_r_squared: float, aic: float,
                 n_obs: int, condition_number: float):
        self._set(response_name, predictor_names,
                  *map(readonly, (coefficients, std_errors, t_statistics, residuals)),
                  r_squared, adj_r_squared, aic, n_obs, condition_number)
        k = len(predictor_names)
        if not (len(self.coefficients) == len(self.std_errors) == len(self.t_statistics) == k):
            raise DataError("coefficient vectors do not match predictor names")
        if len(self.residuals) != n_obs:
            raise DataError("residual length does not match n_obs")

    @property
    def slope_names(self) -> tuple:
        return tuple(n for n in self.predictor_names if n != INTERCEPT)

    def coefficient(self, name: str) -> float:
        try:
            return float(self.coefficients[self.predictor_names.index(name)])
        except ValueError:
            raise DataError(f"no predictor named {name!r} in this fit") from None


def _as_design(Y, X):
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2:
        raise DataError(f"response matrix must be 2-D, got shape {Y.shape}")
    if X is None:
        X = np.empty((Y.shape[0], 0))
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2:
        raise DataError(f"predictor matrix must be 2-D, got shape {X.shape}")
    if X.shape[0] != Y.shape[0]:
        raise DataError(f"response has {Y.shape[0]} rows but predictors have {X.shape[0]}")
    if not (np.isfinite(Y).all() and np.isfinite(X).all()):
        raise DataError("regression inputs contain NaN or infinite values; align or trim first")
    return Y, X


def _predictor_names(predictor_names, p):
    if predictor_names is None:
        return [f"x{j + 1}" for j in range(p)]
    names = [str(n) for n in predictor_names]
    if len(names) != p:
        raise DataError(f"{len(names)} predictor names for {p} columns")
    return names


def ols_columns(Y, X, response_names, predictor_names=None) -> tuple:
    """Least squares of every column of Y on an intercept and X, one fit per column.

    The design is validated and decomposed once, as its centred, unit-norm
    columns Xs (_linalg.unit_columns), so neither fit nor rank guard depends
    on the predictors' units or levels: a constant column, or a reciprocal
    condition number of Xs below RCOND_MIN, raises NumericalError naming the
    collinear columns. Each column of Y then goes through the same vector
    arithmetic, so a fit does not depend on which other columns share X.
    """
    Y, X = _as_design(Y, X)
    T, p = X.shape
    response_names = list(response_names)
    if len(response_names) != Y.shape[1]:
        raise DataError(f"{len(response_names)} response names for {Y.shape[1]} columns")
    slope_names = tuple(_predictor_names(predictor_names, p))
    k = p + 1
    if T <= k:
        raise DataError(f"need more observations than parameters (T={T}, parameters={k})")

    means, Xs, norms = unit_columns(X)
    u, s, vt = np.linalg.svd(Xs, full_matrices=False)
    if p and s[-1] <= RCOND_MIN * s[0]:
        # columns on the near-null singular vector; a constant one is collinear with the intercept
        null_vec = np.abs(vt[-1])
        flagged = [INTERCEPT] * bool((norms == 0).any()) + [
            n for n, v in zip(slope_names, null_vec) if v >= 0.1 * null_vec.max()]
        raise NumericalError(
            f"rank deficient design for {', '.join(map(repr, response_names))}; "
            f"collinear columns: {', '.join(flagged)}")
    condition = float(s[0] / s[-1]) if p else 1.0
    # diagonal of (Xc'Xc)^-1 for the slopes, and 1/T + xbar'(Xc'Xc)^-1 xbar for the intercept
    vs = vt / s[:, None]
    var_factors = np.concatenate([[1.0 / T + np.sum((vs @ (means / norms)) ** 2)],
                                  np.einsum("ji,ji->i", vs, vs) / norms ** 2])

    fits = []
    for j, response_name in enumerate(response_names):
        y = np.ascontiguousarray(Y[:, j])
        y_mean = y.mean()
        yc = y - y_mean
        coef = np.zeros(k)
        if np.all(y == y[0]):
            # the intercept alone fits a constant response exactly; solving would
            # leak noise-scale slopes whose t-statistics are meaningless
            coef[0] = y[0]
            resid, rss = np.zeros(T), 0.0
        else:
            gamma = vt.T @ ((u.T @ yc) / s)
            coef[1:] = gamma / norms
            coef[0] = y_mean - means @ coef[1:]
            resid = yc - Xs @ gamma
            rss = float(resid @ resid)

        tss = float(yc @ yc)
        r2 = 0.0 if tss == 0.0 else 1.0 - rss / tss
        adj = 1.0 - (1.0 - r2) * (T - 1) / (T - k)

        sigma2 = rss / (T - k)
        se = np.sqrt(sigma2 * var_factors)
        with np.errstate(divide="ignore", invalid="ignore"):
            tstats = coef / se
            aic = float(T * np.log(rss / T) + 2 * k)
        tstats = np.where(np.isnan(tstats), 0.0, tstats)

        fits.append(RegressionFit(
            response_name=response_name, predictor_names=(INTERCEPT,) + slope_names,
            coefficients=coef, std_errors=se, t_statistics=tstats, residuals=resid,
            r_squared=float(r2), adj_r_squared=float(adj), aic=aic, n_obs=T,
            condition_number=condition))
    return tuple(fits)


def ols(y, X=None, response_name: str = "y", predictor_names=None) -> RegressionFit:
    """Least squares of one response y on an intercept and X: ols_columns for one column."""
    return ols_columns(np.reshape(y, (-1, 1)), X, [response_name], predictor_names)[0]


class StepwiseStep(Record):
    __slots__ = ("action", "predictor", "aic_after")

    def __init__(self, action: str, predictor: str, aic_after: float):
        if action not in ("add", "drop"):
            raise DataError(f"unknown stepwise action {action!r}")
        self._set(action, predictor, aic_after)


class StepwiseTrace(Record):
    """Accepted moves of a stepwise search, in order. AIC strictly decreases."""

    __slots__ = ("initial_aic", "steps")

    def __init__(self, initial_aic: float, steps: tuple):
        self._set(initial_aic, tuple(steps))
        prev = initial_aic
        for step in self.steps:
            if not step.aic_after < prev:
                raise DataError("stepwise trace must strictly decrease the AIC")
            prev = step.aic_after

    @property
    def final_aic(self) -> float:
        return self.steps[-1].aic_after if self.steps else self.initial_aic


def _subset_scorer(y, X):
    """Fast AIC of y on an intercept and column subsets of X, with an error bound.

    It uses the columns ols solves on, Xs = _linalg.unit_columns(X), with
    A = Xs'Xs (a unit diagonal), b = Xs'yc and yy = yc'yc. For a subset S with
    k = |S| + 1 parameters, one eigendecomposition of A_SS gives its eigenvalue
    ratio kappa and RSS = yy - b_S' A_SS^-1 b_S, and AIC = T ln(RSS/T) + 2k.

    Returns score(subsets) -> (aic, bound) for an (n, m) integer array of
    column subsets. bound is a first-order bound on |aic - ols AIC|,

        8 T eps (yy/RSS) (k kappa + sqrt(k kappa)):

    - the solve: a backward error of order k eps in A_SS moves b'A^-1 b by
      at most ||A^-1 b||^2 k eps <= k kappa eps yy, since a unit diagonal
      has lambda_max >= 1;
    - ols's SVD solve on the same Xs_S and yc has a backward error of order
      eps in each, so with ||Xs_S||_F < sqrt(k) and ||gamma||^2 <= kappa yy
      its RSS moves by at most 2 ||r|| ||dy - dX gamma|| <= 4 eps sqrt(k kappa yy RSS);
    - AIC moves by T times the relative RSS error, yy/RSS >= 1 is the
      cancellation in yy - b'A^-1 b, and the factor 8 covers the constants.

    The bound is infinite where A_SS is not positive definite, RSS <= 0 or yy = 0.
    """
    T = len(y)
    yc = y - y.mean()
    _, Xs, _ = unit_columns(X)
    A, b, yy = Xs.T @ Xs, Xs.T @ yc, yc @ yc
    scale = 8 * T * np.finfo(float).eps

    def score(subsets):
        n, m = subsets.shape
        k = m + 1
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if m:
                w, V = np.linalg.eigh(A[subsets[:, :, None], subsets[:, None, :]])
                kappa = w[:, -1] / w[:, 0]
                rss = yy - np.sum(np.einsum("nij,ni->nj", V, b[subsets]) ** 2 / w, axis=1)
                definite = w[:, 0] > 0
            else:
                kappa, rss, definite = 1.0, np.full(n, yy), True
            aic = T * np.log(rss / T) + 2 * k
            bound = scale * (yy / rss) * (k * kappa + np.sqrt(k * kappa))
        ok = definite & (rss > 0) & (yy > 0) & np.isfinite(bound)
        return aic, np.where(ok, bound, np.inf)

    return score


def stepwise_aic(y, X_full=None, response_name: str = "y", predictor_names=None):
    """Greedy AIC search from the intercept-only model.

    Every pass considers all single-predictor additions and removals, takes
    the best improvement of more than 1e-10, and stops when none exists.
    Ties go to the predictor earliest in column order. Returns (final fit,
    trace); selected predictors keep their original column order.

    _subset_scorer scores every move of a pass, and ols refits only the
    moves that can still win, so the fit and every AIC of the trace are the
    ones an ols fit of every move would give. A move whose error bound
    reaches AIC_WINDOW is unresolved and always refitted. The rest are
    refitted in ascending fast AIC until one lies at or above the current
    AIC plus the window, or more than the window above the best refitted
    AIC: its ols AIC can then beat neither. A move that ols rejects is
    skipped and the scan goes on. An add that would leave no more rows than
    parameters is skipped, as ols would reject it.

    A move ols rejects for collinearity is never resolved: ols rejects it only
    if s_min <= RCOND_MIN s_max on the scorer's own columns Xs_S, so A_SS has
    kappa >= 1e20. Rounding moves its eigenvalues by O(k T eps) lambda_max, so
    the computed A_SS is not positive definite (infinite bound) or has kappa
    of order 1/(k T eps) or more: a bound 8 T eps k kappa of order 8 >> AIC_WINDOW.
    """
    Y, X = _as_design(np.reshape(y, (-1, 1)), X_full)
    T, p = X.shape
    names = _predictor_names(predictor_names, p)

    def fit_for(selected):
        try:
            return ols(Y, X[:, selected], response_name=response_name,
                       predictor_names=[names[j] for j in selected])
        except (DataError, NumericalError):
            return None  # unusable move (collinear)

    selected = []
    current = ols(Y, response_name=response_name)
    initial_aic = current.aic
    score = _subset_scorer(Y[:, 0], X)
    steps = []
    while True:
        moves = {j: [i for i in selected if i != j] if j in selected else sorted(selected + [j])
                 for j in range(p) if j in selected or len(selected) + 2 < T}
        fast, bound = {}, {}
        for group in ([j for j in moves if j not in selected], selected):
            if group:
                aic, err = score(np.array([moves[j] for j in group], dtype=np.intp))
                fast.update(zip(group, aic))
                bound.update(zip(group, err))
        exact = {j: fit_for(moves[j]) for j in moves if not bound[j] < AIC_WINDOW}
        for j in sorted(set(moves) - set(exact), key=lambda j: (fast[j], j)):
            best = min((f.aic for f in exact.values() if f is not None), default=np.inf)
            if fast[j] >= current.aic + AIC_WINDOW or fast[j] > best + AIC_WINDOW:
                break
            exact[j] = fit_for(moves[j])
        wins = [j for j in sorted(exact)
                if exact[j] is not None and exact[j].aic < current.aic - 1e-10]
        if not wins:
            break
        j = min(wins, key=lambda j: exact[j].aic)  # the earliest column on ties
        current = exact[j]
        steps.append(StepwiseStep(action="drop" if j in selected else "add",
                                  predictor=names[j], aic_after=current.aic))
        selected = moves[j]
    return current, StepwiseTrace(initial_aic=initial_aic, steps=tuple(steps))


def residual_matrix(fits) -> np.ndarray:
    """Residual vectors of several fits, stacked as columns."""
    fits = list(fits)
    if not fits:
        raise DataError("no fits")
    T = fits[0].n_obs
    for f in fits[1:]:
        if f.n_obs != T:
            raise DataError(
                f"fits cover different sample sizes ({f.response_name!r} has "
                f"{f.n_obs} rows, expected {T})")
    return np.column_stack([f.residuals for f in fits])


def fit_table(fits, predictors=None, decimals: int = 3):
    """Two-line report layout: a coefficient row over its t-statistic row.

    Returns (header, rows) of strings. Predictors a fit did not select are
    blank. Column order follows `predictors` or first appearance.
    """
    fits = list(fits)
    if predictors is None:
        predictors = []
        for f in fits:
            for name in f.predictor_names:
                if name not in predictors:
                    predictors.append(name)
    header = [""] + list(predictors) + ["Adj. R2"]
    rows = []
    for f in fits:
        coef_row = [f.response_name]
        t_row = [""]
        for name in predictors:
            if name in f.predictor_names:
                i = f.predictor_names.index(name)
                coef_row.append(format(f.coefficients[i], f".{decimals}f"))
                t_row.append(format(f.t_statistics[i], f".{decimals}f"))
            else:
                coef_row.append("")
                t_row.append("")
        coef_row.append(format(f.adj_r_squared, f".{decimals}f"))
        t_row.append("")
        rows.append(coef_row)
        rows.append(t_row)
    return header, rows
