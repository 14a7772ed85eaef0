#!/usr/bin/env python3
"""Print the 50-digit canonical correlations behind tests/test_cca_accuracy.py.

    python3 scripts/cca_references.py

Run from the repository root; needs mpmath, which the package and its test
extra do not. For every (seed, cond) case it draws the float data of
near_collinear_case, centres it in 50-digit arithmetic, and takes the
singular values of Ly^-1 Syz Lz^-T, where Ly and Lz are Cholesky factors of
the two covariance matrices. At 50 digits the squared condition number of the
covariances costs nothing. The output is the NEAR_COLLINEAR table to paste
into the test; the tests never run this script.
"""

import os
import sys

import mpmath

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from test_cca_accuracy import near_collinear_case  # noqa: E402

mpmath.mp.dps = 50
CASES = [(0, 10.0 ** k) for k in range(2, 9)] + [(seed, 1e7) for seed in range(1, 5)]


def centred(M):
    A = mpmath.matrix(M.tolist())
    for j in range(A.cols):
        mean = mpmath.fsum(A[i, j] for i in range(A.rows)) / A.rows
        for i in range(A.rows):
            A[i, j] -= mean
    return A


def canonical_correlations(Y, Z):
    Yc, Zc = centred(Y), centred(Z)
    Ly, Lz = mpmath.cholesky(Yc.T * Yc), mpmath.cholesky(Zc.T * Zc)
    K = mpmath.inverse(Ly) * (Yc.T * Zc) * mpmath.inverse(Lz).T
    d = mpmath.svd_r(K, compute_uv=False)
    return sorted((d[i] for i in range(len(d))), reverse=True)


def main() -> int:
    print("NEAR_COLLINEAR = {")
    for seed, cond in CASES:
        rho = canonical_correlations(*near_collinear_case(seed, cond))
        digits = [repr(mpmath.nstr(r, 20)) for r in rho]
        print(f"    ({seed}, {cond:.0e}): ({', '.join(digits[:2])},\n"
              f"                 {', '.join(digits[2:])}),")
    print("}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
