"""Factor regressions and the residual-PC missing-factor diagnostic.

The workflow: keep the first r canonical variates of the response set as
estimated factor scores, regress every response on them, then ask whether the
first principal component of the stacked residuals still explains the
responses. Large, across-the-board adjusted-R^2 gains from that component are
the signature of a common factor the proxies never saw.
"""

import math

import numpy as np

from ._linalg import RCOND_MIN, finite_array
from ._record import Record, readonly
from .cca import CcaSolution
from .errors import DataError, NumericalError
from .panel import AlignedPanel
from .regress import ols_columns, residual_matrix

VERDICT_MISSING = "missing_factor"
VERDICT_NONE = "no_missing_factor"
VERDICT_INCONCLUSIVE = "inconclusive"

PC1_NAME = "ResidualPC1"


class FactorScores(Record):
    """Retained factor score series (unit sample variance each): scores is (T, r)."""

    __slots__ = ("scores", "r", "source")

    def __init__(self, scores, r: int, source: CcaSolution = None):
        arr = readonly(finite_array(scores, "scores"))
        if arr.shape[1] != r:
            raise DataError(f"r={r} but scores have {arr.shape[1]} columns")
        self._set(arr, r, source)

    @classmethod
    def from_solution(cls, solution: CcaSolution, r: int) -> "FactorScores":
        if not 1 <= r <= solution.m:
            raise DataError(f"r must be in 1..{solution.m}, got {r}")
        return cls(scores=solution.u_scores[:, :r], r=int(r), source=solution)

    @property
    def names(self) -> tuple:
        return tuple(f"Factor{k + 1}" for k in range(self.r))


def _responses_of(data):
    panel = isinstance(data, AlignedPanel)
    M = finite_array(data.values if panel else data, "responses")
    return M, list(data.names) if panel else [f"y{j + 1}" for j in range(M.shape[1])]


def factor_regressions(responses, factors: FactorScores) -> tuple:
    """OLS of every response column on the retained factor scores."""
    Y, names = _responses_of(responses)
    return ols_columns(Y, factors.scores, names, factors.names)


def _pc1(residuals):
    """residual_pc1, plus the singular values of the centred residuals."""
    R = finite_array(residuals, "residual matrix")
    if R.shape[1] < 2:
        raise DataError("need at least two residual series")
    if R.shape[0] < 3:
        raise DataError("need at least three rows")
    if not np.any(R):
        raise NumericalError("degenerate residuals (all zero)")
    centered = R - R.mean(axis=0)
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    lead = vt[0]
    jmax = int(np.argmax(np.abs(lead)))
    if lead[jmax] < 0:
        lead = -lead
    scores = centered @ lead
    scale = scores.std(ddof=1)
    if scale == 0:
        raise NumericalError("degenerate residuals (no variation along the first component)")
    return scores / scale, float(s[0] ** 2 / np.sum(s ** 2)), s


def residual_pc1(residuals) -> tuple:
    """First principal component of a residual matrix.

    Columns are centered and decomposed by SVD; scores are rescaled to unit
    sample variance with the largest-magnitude loading oriented positive.
    Returns (scores, share of total residual variance carried by the component).
    """
    return _pc1(residuals)[:2]


def augment_with_pc1(fits, design, responses):
    """Refit every equation with the residual PC1 appended as a predictor.

    design is the one slope matrix every fit shares (without the intercept
    column) and responses the fitted responses, one column per fit in order
    (a matrix or a complete AlignedPanel). All equations are refitted in one
    ols_columns call. Returns (augmented fits, pc1 scores, pc1 variance share).
    Residuals whose second singular value is at most RCOND_MIN times the first
    raise NumericalError: their first component would fit every response exactly.
    """
    fits = list(fits)
    if len(fits) < 2:
        raise DataError("need at least two fitted responses")
    if any(f.predictor_names != fits[0].predictor_names for f in fits):
        raise DataError("fits do not share one design")
    X = np.asarray(design, dtype=float)
    X = finite_array(X[:, None] if X.ndim == 1 else X, "design")
    R = residual_matrix(fits)  # checks that every fit has the same rows
    if X.shape[0] != R.shape[0]:
        raise DataError(f"design rows {X.shape[0]} do not match fit rows {R.shape[0]}")
    Y = _responses_of(responses)[0]
    if Y.shape != R.shape:
        raise DataError(f"responses have shape {Y.shape}, fits {R.shape}")
    pc1, share, s = _pc1(R)
    if not s[1] > RCOND_MIN * s[0]:  # n responses on r factors of their own span: rank n - r
        raise NumericalError(f"residuals of {R.shape[1]} responses have rank 1, so their first "
                             "component fits each exactly; use fewer factors (setting 'factors')")
    augmented = ols_columns(Y, np.column_stack([X, pc1]), [f.response_name for f in fits],
                            fits[0].slope_names + (PC1_NAME,))
    return augmented, pc1, share


class DiagnosticReport(Record):
    """Before/after fit comparison and the verdict it implies.

    augmented holds the fits with PC1 added; equality and repr leave it out.
    """

    __slots__ = ("responses", "adj_r2_before", "adj_r2_after", "deltas", "mean_delta",
                 "pc1_variance_share", "strong_threshold", "weak_threshold", "verdict",
                 "augmented")
    _shown = __slots__[:-1]

    def __init__(self, responses: tuple, adj_r2_before: tuple, adj_r2_after: tuple,
                 deltas: tuple, mean_delta: float, pc1_variance_share: float,
                 strong_threshold: float, weak_threshold: float, verdict: str,
                 augmented: tuple = ()):
        if verdict not in (VERDICT_MISSING, VERDICT_NONE, VERDICT_INCONCLUSIVE):
            raise DataError(f"unknown verdict {verdict!r}")
        self._set(responses, adj_r2_before, adj_r2_after, deltas, mean_delta,
                  pc1_variance_share, strong_threshold, weak_threshold, verdict, augmented)


def missing_factor_diagnostic(fits_before, design, responses,
                              thresholds=(0.30, 0.10)) -> DiagnosticReport:
    """Decide whether the residual PC1 behaves like an omitted common factor.

    missing_factor: every adjusted-R^2 delta is at least the strong threshold.
    no_missing_factor: the mean delta is at most the weak threshold, or gains
    above strong are confined to at most ceil(n/3) responses. Anything else is
    inconclusive. design and responses are as in augment_with_pc1.
    """
    strong, weak = float(thresholds[0]), float(thresholds[1])
    if not (math.isfinite(strong) and math.isfinite(weak)):
        raise DataError(f"thresholds must be finite, got strong={strong} weak={weak}")
    if strong <= weak:
        raise DataError(f"strong threshold must exceed weak ({strong} vs {weak})")
    fits = list(fits_before)
    augmented, _, share = augment_with_pc1(fits, design, responses)
    before = np.array([f.adj_r_squared for f in fits])
    after = np.array([f.adj_r_squared for f in augmented])
    deltas = after - before
    n = len(fits)
    if np.all(deltas >= strong):
        verdict = VERDICT_MISSING
    elif deltas.mean() <= weak or int(np.sum(deltas >= strong)) <= math.ceil(n / 3):
        verdict = VERDICT_NONE
    else:
        verdict = VERDICT_INCONCLUSIVE
    return DiagnosticReport(
        responses=tuple(f.response_name for f in fits),
        adj_r2_before=tuple(float(v) for v in before),
        adj_r2_after=tuple(float(v) for v in after),
        deltas=tuple(float(v) for v in deltas),
        mean_delta=float(deltas.mean()),
        pc1_variance_share=share,
        strong_threshold=strong,
        weak_threshold=weak,
        verdict=verdict,
        augmented=augmented,
    )


def diagnostic_table_rows(report: DiagnosticReport):
    header = ["", "Adj. R2 (factors)", "Adj. R2 (factors + PC1)", "Delta"]
    rows = [[name, format(b, ".3f"), format(a, ".3f"), format(d, ".3f")]
            for name, b, a, d in zip(report.responses, report.adj_r2_before,
                                     report.adj_r2_after, report.deltas)]
    rows.append(["mean", "", "", format(report.mean_delta, ".3f")])
    return header, rows
