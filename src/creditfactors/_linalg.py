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
