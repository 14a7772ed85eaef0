"""Canonical correlation analysis with significance and redundancy diagnostics.

cca_fit hands the centred, unit-norm columns of both variable sets to
_linalg.canonical_pairs, which takes thin QR factors Y = Qy Ry and Z = Qz Rz
and reads the canonical structure off the SVD Qy'Qz = P D V', without
forming a covariance matrix. Weights are a = Ry^-1 P and b = Rz^-1 V,
rescaled so every variate has unit sample variance (ddof=1), with the sign
convention that the largest weight in each left variate is positive.
eigen_table computes the eigenvalues rho^2/(1 - rho^2) and their percentage
shares of the total. wilks_lambda implements the sequential likelihood-ratio
tests with Rao's F approximation whose df constant m = n - 3/2 - (p + q)/2
is computed once from the full variable counts. Its p-value is the F upper
tail, computed in _f_sf as the regularized incomplete beta
I_w(dfd/2, dfn/2), w = dfd/(dfd + dfn*F), by the modified-Lentz continued
fraction of Numerical Recipes (Press et al., 6.4), so the package needs
numpy only.
"""

import math

import numpy as np

from ._linalg import canonical_pairs, finite_array, unit_columns
from ._record import Record, readonly
from .errors import DataError, NumericalError


class CcaSolution(Record):
    """Fitted canonical system for p left variables and q right variables.

    correlations (m,) are descending, in [0, 1]. U = standardized(Y) @ a_weights
    (p, m) and V = standardized(Z) @ b_weights (q, m) are the (T, m) u_scores and
    v_scores, of unit sample variance each.
    """

    __slots__ = ("p", "q", "n_obs", "correlations", "a_weights", "b_weights", "u_scores",
                 "v_scores", "ridge")

    def __init__(self, p: int, q: int, n_obs: int, correlations, a_weights, b_weights,
                 u_scores, v_scores, ridge: float):
        self._set(p, q, n_obs, *map(readonly, (correlations, a_weights, b_weights, u_scores,
                                               v_scores)), ridge)

    @property
    def m(self) -> int:
        return len(self.correlations)


def _unit_block(M, label):
    """The centred, unit-norm columns of M (_linalg.unit_columns); errors on a constant column."""
    _, Ms, norms = unit_columns(M, [f"{label} column {j}" for j in range(M.shape[1])])
    dead = np.flatnonzero(norms == 0)
    if dead.size:
        raise NumericalError(f"constant column(s) in {label}: indices {[int(i) for i in dead]}")
    return Ms


def cca_fit(Y, Z, ridge: float = 0.0) -> CcaSolution:
    """Canonical correlations and variates of two jointly observed sets.

    ridge (default 0) is added to the diagonals of both correlation matrices,
    as sqrt(ridge) I rows under each centred, unit-norm block. It is needed
    only when a block is exactly collinear (a reciprocal condition number at
    or below RCOND_MIN), and it is recorded on the solution.
    """
    Y, Z = finite_array(Y, "left set"), finite_array(Z, "right set")
    if Y.shape[0] != Z.shape[0]:
        raise DataError(f"row mismatch: left has {Y.shape[0]}, right has {Z.shape[0]}")
    T, p = Y.shape
    q = Z.shape[1]
    if p < 1 or q < 1:
        raise DataError("both sets need at least one column")
    if T <= p + q:
        raise DataError(f"need more rows than total variables (T={T}, p+q={p + q})")
    if not 0 <= ridge < math.inf:
        raise DataError(f"ridge must be finite and nonnegative, got {ridge}")

    Ys, Zs = _unit_block(Y, "left set"), _unit_block(Z, "right set")
    root = math.sqrt(ridge)
    hint = "supply a small ridge (e.g. 1e-8) to proceed" if ridge == 0 else ""
    _, a, b, u, v = canonical_pairs(np.vstack([Ys, root * np.eye(p + q, p)]),
                                    np.vstack([Zs, root * np.eye(p + q, q, -p)]),
                                    ("left-set", "right-set"), hint)

    # unit sample variance of every variate, with standardized(Y) = sqrt(T - 1) Ys;
    # the data rows of Qy P have unit norm under ridge = 0
    cu, cv = np.linalg.norm(u[:T], axis=0), np.linalg.norm(v[:T], axis=0)
    a, b, u, v = a / cu, b / cv, u[:T] * (math.sqrt(T - 1) / cu), v[:T] * (math.sqrt(T - 1) / cv)

    # orient: the largest-magnitude left weight of each pair is positive
    for k in range(a.shape[1]):
        jmax = int(np.argmax(np.abs(a[:, k])))
        if a[jmax, k] < 0:
            a[:, k], b[:, k], u[:, k], v[:, k] = -a[:, k], -b[:, k], -u[:, k], -v[:, k]

    rho = np.clip(np.einsum("tk,tk->k", u, v) / (T - 1), 0.0, 1.0)
    order = np.argsort(-rho, kind="stable")
    rho, a, b, u, v = rho[order], a[:, order], b[:, order], u[:, order], v[:, order]

    return CcaSolution(
        p=p, q=q, n_obs=T,
        correlations=rho,
        a_weights=a, b_weights=b,
        u_scores=u, v_scores=v,
        ridge=float(ridge),
    )


# ---------------------------------------------------------------------------
# derived tables
# ---------------------------------------------------------------------------

class EigenRow(Record):
    __slots__ = ("k", "correlation", "squared", "eigenvalue", "percentage", "cumulative")

    def __init__(self, k: int, correlation: float, squared: float, eigenvalue: float,
                 percentage: float, cumulative: float):
        self._set(k, correlation, squared, eigenvalue, percentage, cumulative)


def _correlations_of(source) -> np.ndarray:
    if isinstance(source, CcaSolution):
        return np.array(source.correlations, dtype=float)
    rho = finite_array(source, "canonical correlations", ndim=1)
    if rho.size == 0:
        raise DataError("no correlations")
    if np.any(rho < 0):
        raise DataError("canonical correlations must be nonnegative")
    return rho


def eigen_table(source) -> tuple:
    """Rows of the eigenvalue decomposition table for a solution or raw rhos.

    eigenvalue = rho^2/(1 - rho^2); percentage = its share of the eigenvalue
    total; cumulative sums the shares. A correlation of exactly 1 is an error.
    """
    rho = _correlations_of(source)
    if np.any(rho >= 1.0):
        raise NumericalError("degenerate correlation (rho = 1)")
    lam = rho ** 2 / (1.0 - rho ** 2)
    total = lam.sum()
    pct = 100.0 * lam / total if total > 0 else np.zeros_like(lam)
    cum = np.cumsum(pct)
    return tuple(
        EigenRow(k=i + 1, correlation=float(rho[i]), squared=float(rho[i] ** 2),
                 eigenvalue=float(lam[i]), percentage=float(pct[i]), cumulative=float(cum[i]))
        for i in range(rho.size)
    )


class WilksRow(Record):
    __slots__ = ("k", "lambda_stat", "f_approx", "num_df", "den_df", "p_value")

    def __init__(self, k: int, lambda_stat: float, f_approx: float, num_df: float,
                 den_df: float, p_value: float):
        self._set(k, lambda_stat, f_approx, num_df, den_df, p_value)


_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_LENTZ_FLOOR = 1e-300     # keeps the continued fraction's denominators off zero
_LENTZ_MAX_TERMS = 100_000
_LENTZ_TOL = 2.3e-16      # a step factor d*c within one ulp of 1 ends the fraction


def _stirling_delta(z: float) -> float:
    """lgamma(z) minus Stirling's (z - 1/2) log z - z + log(2 pi)/2.

    The asymptotic series is accurate to 1e-16 from z = 10 on; below that
    lgamma and the Stirling terms are small enough to subtract directly.
    """
    if z < 10.0:
        return math.lgamma(z) - ((z - 0.5) * math.log(z) - z + _HALF_LOG_2PI)
    r = 1.0 / (z * z)
    return (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r * (1 / 1680 - r * (
        1 / 1188 - r * 691 / 360360))))) / z


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of I_x(a, b) by modified Lentz (Numerical Recipes 6.4).

    It converges in O(sqrt(max(a, b))) terms for x below (a + 1)/(a + b + 2).
    """
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _LENTZ_FLOOR else _LENTZ_FLOOR)
    h = d
    for m in range(1, _LENTZ_MAX_TERMS):
        for aa in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > _LENTZ_FLOOR else _LENTZ_FLOOR)
            c = 1.0 + aa / c
            c = c if abs(c) > _LENTZ_FLOOR else _LENTZ_FLOOR
            h *= d * c
        if abs(d * c - 1.0) <= _LENTZ_TOL:
            return h
    raise NumericalError(f"incomplete beta did not converge (a={a}, b={b}, x={x})")


def _f_sf(x: float, dfn: float, dfd: float) -> float:
    """Upper tail P(F > x) of the F(dfn, dfd) distribution, as scipy.stats.f.sf.

    Returns I_w(a, b) with a = dfd/2, b = dfn/2 and w = dfd/(dfd + dfn*x),
    switching to 1 - I_(1-w)(b, a) above w = (a + 1)/(a + b + 2); 1 - w is
    formed directly as dfn*x/(dfd + dfn*x) so neither tail loses digits. The
    prefactor w^a (1-w)^b / B(a, b) is assembled from Stirling's formula, so
    the large log-gamma terms cancel algebraically, not in rounding.

    Like scipy: nan x or a df that is nan or not positive gives nan, x <= 0
    gives 1, x = inf gives 0, and an infinite df gives nan for every other x.
    An x so large that dfn*x overflows gives 0.
    """
    if math.isnan(x) or not (dfn > 0 and dfd > 0):
        return math.nan
    if x <= 0:
        return 1.0
    if x == math.inf:
        return 0.0
    if math.isinf(dfn) or math.isinf(dfd):
        return math.nan
    s = dfd + dfn * x
    if s == math.inf:
        return 0.0
    a, b, n = 0.5 * dfd, 0.5 * dfn, dfd + dfn
    # log(w (a+b)/a) = log(n/s) and log((1-w)(a+b)/b) = log(x n/s), each from
    # log1p of its exact offset from 1 where that is small
    e_a, e_b = dfn * (1.0 - x) / s, dfd * (x - 1.0) / s
    log_a = math.log1p(e_a) if abs(e_a) < 0.5 else math.log(n / s)
    log_b = math.log1p(e_b) if abs(e_b) < 0.5 else math.log(x) + math.log(n / s)
    prefactor = math.exp(a * log_a + b * log_b + 0.5 * math.log(a * b / (a + b))
                         - _HALF_LOG_2PI + _stirling_delta(a + b)
                         - _stirling_delta(a) - _stirling_delta(b))
    w = dfd / s
    if w > (a + 1.0) / (a + b + 2.0):
        return 1.0 - prefactor * _beta_cf(b, a, dfn * x / s) / b
    return prefactor * _beta_cf(a, b, w) / a


def wilks_lambda(source, p: int = None, q: int = None, n_obs: int = None) -> tuple:
    """Sequential likelihood-ratio rows: row k tests rho_k = ... = rho_m = 0.

    Accepts a CcaSolution, or raw correlations plus explicit p, q, n_obs.
    Row k uses Lambda_k = prod_{i>=k}(1 - rho_i^2) and the F approximation
    with p_k = p-k+1, q_k = q-k+1 and the df constant fixed at the original
    variable counts.
    """
    if isinstance(source, CcaSolution):
        rho, p, q, n_obs = source.correlations, source.p, source.q, source.n_obs
    else:
        rho = _correlations_of(source)
        if p is None or q is None or n_obs is None:
            raise DataError("raw correlations need explicit p, q, and n_obs")
    m = rho.size
    if m != min(p, q):
        raise DataError(f"expected min(p, q) = {min(p, q)} correlations, got {m}")
    if np.any(rho >= 1.0):
        raise NumericalError("degenerate correlation (rho = 1)")

    one_minus = 1.0 - np.asarray(rho, dtype=float) ** 2
    lam_seq = np.flip(np.cumprod(np.flip(one_minus)))
    m_const = n_obs - 1.5 - (p + q) / 2.0
    rows = []
    for i in range(m):
        pk = p - i
        qk = q - i
        denom = pk * pk + qk * qk - 5
        s = np.sqrt((pk * pk * qk * qk - 4.0) / denom) if denom > 0 else 1.0
        num_df = float(pk * qk)
        den_df = float(m_const * s - pk * qk / 2.0 + 1.0)
        lam = float(lam_seq[i])
        root = lam ** (1.0 / s)
        f_stat = float((1.0 - root) / root * den_df / num_df)
        p_val = _f_sf(f_stat, num_df, den_df)
        rows.append(WilksRow(k=i + 1, lambda_stat=lam, f_approx=f_stat,
                             num_df=num_df, den_df=den_df, p_value=p_val))
    return tuple(rows)


class RedundancyRow(Record):
    __slots__ = ("k", "redundancy")

    def __init__(self, k: int, redundancy: float):
        self._set(k, redundancy)


def _column_correlations(A, B, label):
    """corr(A_j, B_k) matrix; errors on constant columns of either."""
    if A.shape[0] != B.shape[0]:
        raise DataError(f"{label}: row count {A.shape[0]} does not match scores {B.shape[0]}")
    return _unit_block(A, label).T @ _unit_block(B, "variate scores")


def redundancy(solution: CcaSolution, Y) -> tuple:
    """Share of the left set's variance explained by each opposite variate.

    Row k is rho_k^2 times the mean squared loading corr(Y_j, U_k) over the
    left variables (so it equals the variance share of Y carried by V_k).
    """
    Y = finite_array(Y, "left set")
    if Y.shape[1] != solution.p:
        raise DataError(f"left set has {Y.shape[1]} columns, solution expects {solution.p}")
    loadings = _column_correlations(Y, solution.u_scores, "left set")
    rd = solution.correlations ** 2 * np.mean(loadings ** 2, axis=0)
    return tuple(RedundancyRow(k=i + 1, redundancy=float(rd[i])) for i in range(rd.size))


def cross_loadings(solution: CcaSolution, Z, k_max: int = None) -> np.ndarray:
    """corr(Z_j, U_k) for the first k_max variates; shape (q, k_max)."""
    Z = finite_array(Z, "right set")
    if Z.shape[1] != solution.q:
        raise DataError(f"right set has {Z.shape[1]} columns, solution expects {solution.q}")
    m = solution.m
    k_max = m if k_max is None else int(k_max)
    if not 1 <= k_max <= m:
        raise DataError(f"k_max must be in 1..{m}, got {k_max}")
    return _column_correlations(Z, solution.u_scores[:, :k_max], "right set")


# ---------------------------------------------------------------------------
# table layouts
# ---------------------------------------------------------------------------

def eigen_table_rows(rows):
    header = ["", "CanCor", "CanCorSq", "Eigenvalue", "Percentage", "Cumulative"]
    out = [[str(r.k), format(r.correlation, ".5f"), format(r.squared, ".5f"),
            format(r.eigenvalue, ".5f"), format(r.percentage, ".5f"),
            format(r.cumulative, ".2f")] for r in rows]
    return header, out


def wilks_table_rows(rows, correlations):
    header = ["", "CanCor", "LR Statistic", "Approx F", "NumDF", "DenDF", "Pr(>F)"]
    out = []
    for r, rho in zip(rows, correlations):
        out.append([str(r.k), format(rho, ".4f"), format(r.lambda_stat, ".4f"),
                    format(r.f_approx, ".2f"), format(r.num_df, ".0f"),
                    format(r.den_df, ".2f"), format(r.p_value, ".4f")])
    return header, out


def redundancy_table_rows(rows):
    header = ["", "Redundancy"]
    return header, [[str(r.k), format(r.redundancy, ".4f")] for r in rows]


def cross_loadings_table_rows(matrix, names):
    matrix = np.asarray(matrix, dtype=float)
    header = [""] + [f"U{k + 1}" for k in range(matrix.shape[1])]
    rows = [[str(names[j])] + [format(matrix[j, k], ".4f") for k in range(matrix.shape[1])]
            for j in range(matrix.shape[0])]
    return header, rows
