"""cca_fit against two judges: the covariance whitening it replaced, and
50-digit canonical correlations of nearly collinear predictors.

The whitening oracle below is the earlier implementation, kept verbatim: it
forms the correlation matrices, adds the ridge to their diagonals and takes
their inverse square roots, so it squares the condition number of the data.
It stays exact enough to judge the ridge on well-conditioned data.

The references of NEAR_COLLINEAR were computed at 50 significant digits by
scripts/cca_references.py (which needs mpmath) from the float data that
near_collinear_case draws, so they measure the solver's rounding alone.
"""

import numpy as np
import pytest

import creditfactors as cf
from creditfactors._linalg import unit_columns
from creditfactors.errors import NumericalError


# ---------------------------------------------------------------------------
# the covariance whitening, verbatim
# ---------------------------------------------------------------------------

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


def whitened_cca(Y, Z, ridge):
    """cca_fit's scaling, orientation and order around the whitening kernel:
    (correlations, a weights, b weights, u scores, v scores)."""
    T, p = Y.shape
    q = Z.shape[1]
    Ys = (Y - Y.mean(axis=0)) / Y.std(axis=0, ddof=1)
    Zs = (Z - Z.mean(axis=0)) / Z.std(axis=0, ddof=1)
    Sy, Sz, Syz = Ys.T @ Ys / (T - 1), Zs.T @ Zs / (T - 1), Ys.T @ Zs / (T - 1)
    _, a, b = canonical_pairs(Sy + ridge * np.eye(p), Sz + ridge * np.eye(q), Syz,
                              ("left-set", "right-set"))
    a = a / np.sqrt(np.einsum("jk,jk->k", a, Sy @ a))
    b = b / np.sqrt(np.einsum("jk,jk->k", b, Sz @ b))
    for k in range(a.shape[1]):
        if a[int(np.argmax(np.abs(a[:, k]))), k] < 0:
            a[:, k], b[:, k] = -a[:, k], -b[:, k]
    u, v = Ys @ a, Zs @ b
    rho = np.clip(np.einsum("tk,tk->k", u, v) / (T - 1), 0.0, 1.0)
    order = np.argsort(-rho, kind="stable")
    return rho[order], a[:, order], b[:, order], u[:, order], v[:, order]


def conditioned_sets(seed, T=120, p=4, q=5):
    """Correlated sets whose last predictor is a noisy copy of the first.

    The predictors' condition number is about 7. The oracle's own error grows
    like eps cond^2: at a copy noise of 0.05 (cond 40) its weights already
    differ from cca_fit's by 1e-12.
    """
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((T, q))
    Z[:, -1] = Z[:, 0] + 0.3 * rng.standard_normal(T)
    Y = Z @ rng.standard_normal((q, p)) + rng.standard_normal((T, p))
    return Y, Z


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("ridge", [0.0, 1e-6, 0.05, 1.0])
def test_ridge_matches_the_whitening_oracle(seed, ridge):
    Y, Z = conditioned_sets(seed)
    for M in (Y, Z):
        assert np.linalg.cond(unit_columns(M)[1]) <= 1e3
    sol = cf.cca_fit(Y, Z, ridge=ridge)
    expected = whitened_cca(Y, Z, ridge)
    got = (sol.correlations, sol.a_weights, sol.b_weights, sol.u_scores, sol.v_scores)
    for name, g, e in zip(("correlations", "a", "b", "u", "v"), got, expected):
        np.testing.assert_allclose(g, e, rtol=0, atol=1e-12, err_msg=name)


def test_exact_duplicate_needs_the_ridge():
    Y, Z = conditioned_sets(3)
    Z = np.column_stack([Z, Z[:, 1]])
    with pytest.raises(NumericalError, match=r"right-set .*supply a small ridge"):
        cf.cca_fit(Y, Z)
    np.testing.assert_allclose(cf.cca_fit(Y, Z, ridge=1e-6).correlations,
                               whitened_cca(Y, Z, 1e-6)[0], rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# 50-digit references
# ---------------------------------------------------------------------------

def near_collinear_case(seed, cond):
    """T=120 rows of 4 responses and 6 predictors whose last predictor copies
    the fifth up to a noise e of scale 2.2/cond, which puts the condition
    number of the centred, unit-norm predictors near cond. The responses load
    on e too, so the leading pairs weigh the near-null direction heavily."""
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((120, 6))
    e = rng.standard_normal(120)
    Z[:, 5] = Z[:, 4] + (2.2 / cond) * e
    Y = (Z @ rng.standard_normal((6, 4)) + np.outer(e, rng.standard_normal(4))
         + 2.0 * rng.standard_normal((120, 4)))
    return Y, Z


# (seed, cond): the four canonical correlations, to 20 significant digits.
# Seed 0 runs up to cond 1e8, where cca_fit errs by 2.9e-10; seeds 1 to 4 err
# by 0.1e-10 to 1.0e-10 at 1e7 and by 3.1e-10 to 7.6e-10 at 1e8, too close to
# the bound for rounding that may differ between BLAS builds.
NEAR_COLLINEAR = {
    (0, 1e+02): ('0.86488469754935758813', '0.83306544130877106133',
                 '0.63254106261294391151', '0.26304437673061410625'),
    (0, 1e+03): ('0.8647330868516555075', '0.8327101529846052022',
                 '0.63609426670149025861', '0.26345378015637829915'),
    (0, 1e+04): ('0.86471867452845190512', '0.83267445607204980137',
                 '0.6364513179684627489', '0.26349596151051782387'),
    (0, 1e+05): ('0.86471724075273304293', '0.83267088476631133857',
                 '0.63648703965463656357', '0.26350019164406730319'),
    (0, 1e+06): ('0.86471709744969635541', '0.83267052761889599654',
                 '0.63649061198850544684', '0.26350061477737887064'),
    (0, 1e+07): ('0.86471708312016312571', '0.832670491910533504',
                 '0.63649096922722524551', '0.26350065708961016971'),
    (0, 1e+08): ('0.86471708168700069679', '0.83267048835577419641',
                 '0.63649100496883206056', '0.26350066133535622977'),
    (1, 1e+07): ('0.9274942458561213651', '0.85240834205249887765',
                 '0.68104499802760970139', '0.26695276476485476554'),
    (2, 1e+07): ('0.85599625812858961937', '0.83374068300732132143',
                 '0.57408509734883132912', '0.29024732278725518474'),
    (3, 1e+07): ('0.92093288859586522277', '0.85367258817909359866',
                 '0.62573130219642027988', '0.34684008316444568393'),
    (4, 1e+07): ('0.93051545328976573279', '0.83273629757181961534',
                 '0.52737870495534198217', '0.36406997219087312673'),
}


@pytest.mark.parametrize("seed, cond", sorted(NEAR_COLLINEAR))
def test_correlations_of_nearly_collinear_predictors(seed, cond):
    Y, Z = near_collinear_case(seed, cond)
    assert cond / 2 <= np.linalg.cond(unit_columns(Z)[1]) <= 2 * cond
    expected = np.array([float(r) for r in NEAR_COLLINEAR[seed, cond]])
    np.testing.assert_allclose(cf.cca_fit(Y, Z).correlations, expected, rtol=0, atol=1e-9)
