"""Internal linear-algebra helpers shared by the factor modules."""

import numpy as np

from .errors import DataError, NumericalError

# a matrix whose reciprocal condition number falls to this is rank deficient
RCOND_MIN = 1e-10
# a non-constant column's sum of squares is exact to rounding only in [_TINY, inf)
_TINY = np.finfo(float).tiny


def finite_array(value, label, ndim=2) -> np.ndarray:
    """value as a float array, which must be ndim-D and finite; else a DataError naming label."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim != ndim:
        raise DataError(f"{label} must be {ndim}-D, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DataError(f"{label} must be finite, got a missing or infinite value")
    return arr


def check_squares(squares, name):
    """NumericalError naming name unless squares, the centred sum of squares of a
    non-constant column, is at least the smallest normal double and finite."""
    if not _TINY <= squares < np.inf:
        size = "small" if squares < _TINY else "large"
        raise NumericalError(f"values of {name} are too {size} to square in double precision")


def unit_columns(X, names=None):
    """Centre a copy of the T x p matrix X and scale each column to unit norm.

    Returns (means, Xs, norms), X = means + Xs * norms. Each column is reduced
    along its own row of X', so its results do not depend on which other
    columns share X. A constant column centres to exactly zero, with norm 0.
    A non-constant column that check_squares refuses raises NumericalError,
    named by names[j] if given, else as column j.
    """
    Xt = np.array(np.asarray(X, dtype=float).T, order="C")
    constant = Xt.min(axis=1) == Xt.max(axis=1)
    with np.errstate(over="ignore"):  # check_squares refuses a column whose mean overflowed
        means = np.where(constant, Xt[:, 0], Xt.mean(axis=1))
    Xt -= means[:, None]
    squares = np.einsum("ij,ij->i", Xt, Xt)
    for j in np.flatnonzero(~constant):
        check_squares(squares[j], names[j] if names else f"column {j}")
    norms = np.sqrt(squares)
    Xt /= np.where(norms > 0, norms, 1.0)[:, None]
    return means, Xt.T, norms


def canonical_pairs(A, B, labels, hint: str = ""):
    """Canonical correlations, weights and variates of two column blocks.

    A (n x p) and B (n x q) share their rows, and A'A, B'B and A'B are the
    two covariances and the cross-covariance up to one common factor. With
    thin QR factors A = Qa Ra and B = Qb Rb, the correlations are the singular
    values of Qa'Qb = P D V' (Bjorck and Golub 1973), so the condition number
    of a block enters once, not squared as in a covariance.

    Returns the min(p, q) leading correlations diag(D), descending, the
    weights Ra^-1 P and Rb^-1 V, and the variates Qa P and Qb V. A block whose
    R factor has a reciprocal condition number at or below RCOND_MIN raises
    NumericalError naming it by labels and carrying hint.
    """
    (Qa, Ra), (Qb, Rb) = np.linalg.qr(A), np.linalg.qr(B)
    for R, label in zip((Ra, Rb), labels):
        s = np.linalg.svd(R, compute_uv=False)
        if not s[-1] > RCOND_MIN * s[0]:
            msg = f"rank deficient {label} block (reciprocal condition number {s[-1] / s[0]:.3e})"
            raise NumericalError(f"{msg}; {hint}" if hint else msg)
    P, d, Vt = np.linalg.svd(Qa.T @ Qb, full_matrices=False)
    return d, np.linalg.solve(Ra, P), np.linalg.solve(Rb, Vt.T), Qa @ P, Qb @ Vt.T
