"""Internal linear-algebra helpers shared by the factor modules."""

import numpy as np

from .errors import NumericalError

# relative eigenvalue floor below which a covariance matrix counts as singular
EIG_RTOL = 1e-12


def inv_sqrt_psd(matrix: np.ndarray, label: str, hint: str = "") -> np.ndarray:
    """Symmetric inverse square root of a positive definite matrix.

    Raises NumericalError when the smallest eigenvalue is numerically zero
    relative to the largest.
    """
    sym = 0.5 * (matrix + matrix.T)
    w, v = np.linalg.eigh(sym)
    if w[-1] <= 0 or w[0] <= EIG_RTOL * w[-1]:
        msg = f"singular {label} covariance (smallest eigenvalue {w[0]:.3e})"
        if hint:
            msg += f"; {hint}"
        raise NumericalError(msg)
    return (v / np.sqrt(w)) @ v.T


def unit_columns(X):
    """Centre a copy of the T x p matrix X and scale each column to unit norm.

    Returns (means, Xs, norms), X = means + Xs * norms. Each column is reduced
    along its own row of X', so its results do not depend on which other
    columns share X. A constant column centres to exactly zero, with norm 0.
    """
    Xt = np.array(np.asarray(X, dtype=float).T, order="C")
    means = np.where(Xt.min(axis=1) == Xt.max(axis=1), Xt[:, 0], Xt.mean(axis=1))
    Xt -= means[:, None]
    norms = np.sqrt(np.einsum("ij,ij->i", Xt, Xt))
    Xt /= np.where(norms > 0, norms, 1.0)[:, None]
    return means, Xt.T, norms


def canonical_pairs(Sxx, Syy, Sxy, labels, hint: str = ""):
    """Canonical correlations and weights of two blocks from their covariances.

    Both blocks are whitened and the whitened cross-covariance decomposed,

        Sxx^(-1/2) Sxy Syy^(-1/2) = P D Q',

    giving the min(p, q) leading correlations diag(D), descending, with
    weights a = Sxx^(-1/2) P and b = Syy^(-1/2) Q. labels names the two blocks
    in the singular-covariance error, which carries hint.
    """
    ix = inv_sqrt_psd(Sxx, labels[0], hint)
    iy = inv_sqrt_psd(Syy, labels[1], hint)
    P, d, Qt = np.linalg.svd(ix @ Sxy @ iy)
    m = d.size
    return d, ix @ P[:, :m], iy @ Qt[:m].T
