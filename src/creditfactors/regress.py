"""Ordinary least squares with classical inference and AIC-driven stepwise selection.

Every fit has an intercept. ols_columns fits all response columns that share
one design against a single SVD of its centred, unit-norm predictor columns,
and ols is its one-column view. stepwise_columns runs the greedy search of
every such column in lockstep, and stepwise_aic is its one-column view: each
pass scores every column's moves from the cross-products of those same
columns in one scorer call per subset size, and refits only the moves that
can still win, on slices of the same columns through ols's own path, so its
fits and AIC values are ols's own.

Conventions: t-statistics are classical (homoskedastic) ratios, adjusted R^2 is
1 - (1 - R^2)(T - 1)/(T - p - 1) for p slope predictors next to an intercept,
and AIC is the constant-free form T*ln(RSS/T) + 2k with k counting every
estimated mean parameter (intercept included). Only AIC differences between
models on the same response are meaningful.
"""

import numpy as np

from ._linalg import RCOND_MIN, finite_array, unit_columns
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
    Y = finite_array(Y, "response matrix")
    X = np.empty((Y.shape[0], 0)) if X is None else np.asarray(X, dtype=float)
    X = finite_array(X[:, None] if X.ndim == 1 else X, "predictor matrix")
    if X.shape[0] != Y.shape[0]:
        raise DataError(f"response has {Y.shape[0]} rows but predictors have {X.shape[0]}")
    return Y, X


def _response_column(y) -> np.ndarray:
    """One response of shape (T,) or (T, 1) as a T x 1 column; any other shape is a DataError."""
    y = np.asarray(y, dtype=float)
    return finite_array(y[:, 0] if y.shape[1:] == (1,) else y, "response", ndim=1)[:, None]


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
    if T <= p + 1:
        raise DataError(f"need more observations than parameters (T={T}, parameters={p + 1})")
    return _fit_columns(Y, *unit_columns(X), response_names, slope_names)


def _fit_columns(Y, means, Xs, norms, response_names, slope_names) -> tuple:
    """ols_columns after its checks, on X's unit columns Xs and their means and norms.

    Every least-squares fit goes through here, ols's and each stepwise refit alike.
    """
    T, p = Xs.shape
    k = p + 1
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
    return ols_columns(_response_column(y), X, [response_name], predictor_names)[0]


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


def _subset_scorer(Y, X):
    """Fast AIC of responses on an intercept and column subsets of X, with an error bound.

    Y is one response y or a T x c matrix of them. It uses the columns ols
    solves on, Xs = _linalg.unit_columns(X), with one A = Xs'Xs (a unit
    diagonal) and, per response, b = Xs'yc and yy = yc'yc. For a subset S with
    k = |S| + 1 parameters, one eigendecomposition of A_SS gives its eigenvalue
    ratio kappa and RSS = yy - b_S' A_SS^-1 b_S, and AIC = T ln(RSS/T) + 2k.

    Returns score(subsets, cols=0) -> (aic, bound) for an (n, m) integer array
    of column subsets, row i scored for response cols[i]; each row's numbers
    do not depend on the other rows. bound is a first-order bound on
    |aic - ols AIC|,

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
    yc = [y - y.mean() for y in np.array(np.reshape(Y, (len(Y), -1)).T, order="C")]
    _, Xs, _ = unit_columns(X)
    # one product per response, as for a lone one, so no response's numbers depend on the others
    A, B, YY = Xs.T @ Xs, np.array([Xs.T @ y for y in yc]), np.array([y @ y for y in yc])
    T, scale = len(Y), 8 * len(Y) * np.finfo(float).eps

    def score(subsets, cols=0):
        n, m = subsets.shape
        k = m + 1
        cols = np.broadcast_to(cols, n)
        yy = YY[cols]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if m:
                w, V = np.linalg.eigh(A[subsets[:, :, None], subsets[:, None, :]])
                kappa = w[:, -1] / w[:, 0]
                b = B[cols[:, None], subsets]
                rss = yy - np.sum(np.einsum("nij,ni->nj", V, b) ** 2 / w, axis=1)
                definite = w[:, 0] > 0
            else:
                kappa, rss, definite = 1.0, yy, True
            aic = T * np.log(rss / T) + 2 * k
            bound = scale * (yy / rss) * (k * kappa + np.sqrt(k * kappa))
        ok = definite & (rss > 0) & (yy > 0) & np.isfinite(bound)
        return aic, np.where(ok, bound, np.inf)

    return score


def stepwise_columns(Y, X, response_names, predictor_names=None) -> tuple:
    """Greedy AIC search of every column of Y on X; one (final fit, trace) per column.

    Each search starts from the intercept-only model. Every pass considers all
    single-predictor additions and removals, takes the best improvement of
    more than 1e-10, and stops when none exists. Ties go to the predictor
    earliest in column order. Selected predictors keep their original order.

    The searches run in lockstep on the one design: a pass scores the moves of
    every column still searching in one _subset_scorer call per subset size,
    then each column refits only its moves that can still win, on slices of
    the design's unit columns through _fit_columns, ols's own path. So each
    fit and AIC of a trace is the one an ols fit of every move would give, and
    a search does not depend on which other columns share X. A move whose
    error bound reaches AIC_WINDOW is unresolved and always refitted. The rest
    are refitted in ascending fast AIC until one lies at or above the current
    AIC plus the window, or more than the window above the best refitted AIC:
    its ols AIC can then beat neither. A move that ols rejects is skipped and
    the scan goes on. An add that would leave no more rows than parameters is
    skipped, as ols would reject it.

    A move ols rejects for collinearity is never resolved: ols rejects it only
    if s_min <= RCOND_MIN s_max on the scorer's own columns Xs_S, so A_SS has
    kappa >= 1e20. Rounding moves its eigenvalues by O(k T eps) lambda_max, so
    the computed A_SS is not positive definite (infinite bound) or has kappa
    of order 1/(k T eps) or more: a bound 8 T eps k kappa of order 8 >> AIC_WINDOW.
    """
    Y, X = _as_design(Y, X)
    T, p = X.shape
    names, response_names = _predictor_names(predictor_names, p), list(response_names)
    current = list(ols_columns(Y, None, response_names))
    initial_aic = [fit.aic for fit in current]
    means, Xs, norms = unit_columns(X)
    score = _subset_scorer(Y, X)

    def refit(c, subset):
        try:
            return _fit_columns(Y[:, [c]], means[subset], Xs.T[subset].T, norms[subset],
                                response_names[c:c + 1], tuple(names[j] for j in subset))[0]
        except NumericalError:
            return None  # unusable move (collinear)

    selected, steps, active = [[] for _ in current], [[] for _ in current], range(len(current))
    while active:
        moves = {c: {j: [i for i in selected[c] if i != j] if j in selected[c]
                     else sorted(selected[c] + [j])
                     for j in range(p) if j in selected[c] or len(selected[c]) + 2 < T}
                 for c in active}
        fast, bound = {}, {}
        for m in sorted({len(s) for mv in moves.values() for s in mv.values()}):
            keys = [(c, j) for c in active for j, s in moves[c].items() if len(s) == m]
            aic, err = score(np.array([moves[c][j] for c, j in keys], dtype=np.intp),
                             np.array(keys)[:, 0])
            fast.update(zip(keys, aic))
            bound.update(zip(keys, err))
        searching = []
        for c in active:
            exact = {j: refit(c, s) for j, s in moves[c].items() if not bound[c, j] < AIC_WINDOW}
            for j in sorted(set(moves[c]) - set(exact), key=lambda j: (fast[c, j], j)):
                best = min((f.aic for f in exact.values() if f is not None), default=np.inf)
                if fast[c, j] >= current[c].aic + AIC_WINDOW or fast[c, j] > best + AIC_WINDOW:
                    break
                exact[j] = refit(c, moves[c][j])
            wins = [j for j in sorted(exact)
                    if exact[j] is not None and exact[j].aic < current[c].aic - 1e-10]
            if wins:
                j = min(wins, key=lambda j: exact[j].aic)  # the earliest column on ties
                current[c] = exact[j]
                steps[c].append(StepwiseStep(action="drop" if j in selected[c] else "add",
                                             predictor=names[j], aic_after=current[c].aic))
                selected[c] = moves[c][j]
                searching.append(c)
        active = searching
    return tuple((fit, StepwiseTrace(initial_aic=aic, steps=tuple(s)))
                 for fit, aic, s in zip(current, initial_aic, steps))


def stepwise_aic(y, X_full=None, response_name: str = "y", predictor_names=None):
    """Greedy AIC search of one response y, (final fit, trace): stepwise_columns for one column."""
    return stepwise_columns(_response_column(y), X_full, [response_name], predictor_names)[0]


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


def fit_table(fits, predictors=None):
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
                coef_row.append(format(f.coefficients[i], ".3f"))
                t_row.append(format(f.t_statistics[i], ".3f"))
            else:
                coef_row.append("")
                t_row.append("")
        coef_row.append(format(f.adj_r_squared, ".3f"))
        t_row.append("")
        rows.append(coef_row)
        rows.append(t_row)
    return header, rows
