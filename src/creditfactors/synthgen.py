"""Synthetic data with a known latent-factor structure.

The generator draws proxies z ~ N(0, I), builds proxied factors as their
linear projection plus Gaussian proxy noise, adds independent extra factors
that the proxies cannot see ("missing" factors), and mixes everything into
responses with diagonal idiosyncratic noise:

    y_t = intercepts + proxied_loadings f1_t + missing_loadings f2_t + u_t
    f1_t = proxy_projection' z_t + v_t

population_cca returns the exact canonical correlations implied by the
analytic covariance blocks, which makes the sampling error of any estimator
measurable. Everything is deterministic given the spec's seed.
"""

import numpy as np

from ._linalg import RCOND_MIN, canonical_pairs, finite_array
from ._record import Record, readonly
from .errors import DataError, NumericalError


class FactorModelSpec(Record):
    """Population description of one synthetic dataset.

    intercepts (n,); proxied_loadings (n, r) and missing_loadings (n, m - r), the loadings
    on proxied and unproxied factors; proxy_projection (k, r): f1 = proxies @ proxy_projection
    + noise; idio_variances (n,), all positive. A spec file's scalars are cast to __init__'s
    annotations.
    """

    __slots__ = ("intercepts", "proxied_loadings", "missing_loadings", "proxy_projection",
                 "proxy_noise_scale", "idio_variances", "n_periods", "seed")

    def __init__(self, intercepts, proxied_loadings, missing_loadings, proxy_projection,
                 proxy_noise_scale: float, idio_variances, n_periods: int, seed: int):
        intercepts = readonly(finite_array(intercepts, "intercepts", ndim=1))
        b1 = readonly(finite_array(proxied_loadings, "proxied_loadings"))
        b2 = readonly(finite_array(missing_loadings, "missing_loadings"))
        theta = readonly(finite_array(proxy_projection, "proxy_projection"))
        idio = readonly(finite_array(idio_variances, "idio_variances", ndim=1))
        n, r = b1.shape
        if intercepts.shape != (n,):
            raise DataError(f"intercepts shape {intercepts.shape} does not match {n} responses")
        if idio.shape != (n,):
            raise DataError(f"idio_variances shape {idio.shape} does not match {n} responses")
        if b2.shape[0] != n:
            raise DataError(f"missing_loadings rows {b2.shape[0]} do not match {n} responses")
        if theta.shape[1] != r:
            raise DataError(
                f"proxy_projection maps to {theta.shape[1]} factors, loadings expect {r}")
        if r < 1:
            raise DataError("need at least one proxied factor")
        if theta.shape[0] < 1:
            raise DataError("need at least one proxy")
        if np.any(idio <= 0):
            raise DataError("idio_variances must all be positive")
        if not 0 <= proxy_noise_scale < np.inf:
            raise DataError("proxy_noise_scale must be finite and nonnegative")
        if n_periods < 2:
            raise DataError("n_periods must be at least 2")
        if seed < 0:
            raise DataError(f"seed must be nonnegative, got {seed}")
        for label, b in (("proxied_loadings", b1), ("missing_loadings", b2)):
            s = np.linalg.svd(b, compute_uv=False)  # min(rows, columns) values, descending
            if b.shape[1] and (s.size < b.shape[1] or not s[-1] > RCOND_MIN * s[0]):
                raise DataError(f"{label} must have full column rank")
        self._set(intercepts, b1, b2, theta, proxy_noise_scale, idio, n_periods, seed)

    @property
    def n_responses(self) -> int:
        return self.proxied_loadings.shape[0]

    @property
    def n_proxied(self) -> int:
        return self.proxied_loadings.shape[1]

    @property
    def n_missing(self) -> int:
        return self.missing_loadings.shape[1]

    @property
    def n_proxies(self) -> int:
        return self.proxy_projection.shape[0]


class SyntheticDataset(Record):
    """One draw of the factor model, with every latent piece kept.

    responses and idiosyncratic are (T, n), proxies (T, k), proxied_factors (T, r)
    and missing_factors (T, m - r).
    """

    __slots__ = ("responses", "proxies", "proxied_factors", "missing_factors", "idiosyncratic",
                 "spec")

    def __init__(self, responses, proxies, proxied_factors, missing_factors, idiosyncratic,
                 spec: FactorModelSpec):
        arrays = responses, proxies, proxied_factors, missing_factors, idiosyncratic
        self._set(*(readonly(finite_array(a, f)) for f, a in zip(self.__slots__, arrays)), spec)


def generate(spec: FactorModelSpec) -> SyntheticDataset:
    """Draw one dataset. The draw order (proxies, proxy noise, missing
    factors, idiosyncratic noise) is fixed, so a seed pins every byte."""
    rng = np.random.default_rng(spec.seed)
    T = spec.n_periods
    proxies = rng.standard_normal((T, spec.n_proxies))
    proxy_noise = spec.proxy_noise_scale * rng.standard_normal((T, spec.n_proxied))
    proxied = proxies @ spec.proxy_projection + proxy_noise
    missing = rng.standard_normal((T, spec.n_missing))
    idio = rng.standard_normal((T, spec.n_responses)) * np.sqrt(spec.idio_variances)
    responses = (spec.intercepts
                 + proxied @ spec.proxied_loadings.T
                 + missing @ spec.missing_loadings.T
                 + idio)
    return SyntheticDataset(
        responses=responses,
        proxies=proxies,
        proxied_factors=proxied,
        missing_factors=missing,
        idiosyncratic=idio,
        spec=spec,
    )


def population_covariance(spec: FactorModelSpec):
    """Analytic covariance blocks (response, cross, proxy) of the model."""
    theta = spec.proxy_projection
    b1 = spec.proxied_loadings
    b2 = spec.missing_loadings
    var_f1 = theta.T @ theta + spec.proxy_noise_scale ** 2 * np.eye(spec.n_proxied)
    cov_yy = b1 @ var_f1 @ b1.T + b2 @ b2.T + np.diag(spec.idio_variances)
    cov_yz = b1 @ theta.T
    cov_zz = np.eye(spec.n_proxies)
    return cov_yy, cov_yz, cov_zz


def population_cca(spec: FactorModelSpec) -> np.ndarray:
    """Exact canonical correlations between responses and proxies, descending."""
    cov_yy, cov_yz, cov_zz = population_covariance(spec)
    hint = "population covariance is singular; use positive idio_variances"
    try:  # G G' is the joint covariance, so the column blocks of G' have its blocks as products
        G = np.linalg.cholesky(np.block([[cov_yy, cov_yz], [cov_yz.T, cov_zz]]))
    except np.linalg.LinAlgError:
        raise NumericalError(hint) from None
    n = spec.n_responses
    rho = canonical_pairs(G.T[:, :n], G.T[:, n:], ("response", "proxy"), hint)[0]
    return np.clip(rho, 0.0, 1.0)


# ---------------------------------------------------------------------------
# canned specifications
# ---------------------------------------------------------------------------

def _fixed_projection(k: int, r: int) -> np.ndarray:
    """Deterministic k x r projection with orthonormal columns."""
    rng = np.random.default_rng(20240901)
    q, _ = np.linalg.qr(rng.standard_normal((k, r)))
    return q[:, :r]

_SCENARIO_LOADINGS = np.array([
    [1.2, -0.7],
    [0.9, 1.1],
    [1.5, 0.4],
    [-0.8, 1.3],
    [1.1, -1.0],
    [0.6, 1.4],
])
_SCENARIO_INTERCEPTS = np.array([6.4, 9.7, 12.3, 14.7, 16.9, 19.4])
_SCENARIO_IDIO = np.array([0.40, 0.50, 0.45, 0.55, 0.50, 0.40])
_SCENARIO_MISSING = np.array([[1.9], [-1.8], [1.75], [1.95], [-2.0], [1.8]])


def _scenario(seed: int, n_periods: int, missing_loadings) -> FactorModelSpec:
    """The six-response scenario system with the given unproxied loadings."""
    return FactorModelSpec(
        intercepts=_SCENARIO_INTERCEPTS,
        proxied_loadings=_SCENARIO_LOADINGS,
        missing_loadings=missing_loadings,
        proxy_projection=_fixed_projection(5, 2),
        proxy_noise_scale=0.3,
        idio_variances=_SCENARIO_IDIO,
        n_periods=n_periods,
        seed=seed,
    )


def scenario_no_missing_factor(seed: int, n_periods: int = 240) -> FactorModelSpec:
    """Six responses driven entirely by two well-proxied factors."""
    return _scenario(seed, n_periods, np.zeros((6, 0)))


def scenario_missing_factor(seed: int, n_periods: int = 240) -> FactorModelSpec:
    """Same system plus one unproxied factor loading strongly on all responses."""
    return _scenario(seed, n_periods, _SCENARIO_MISSING)


def default_spec(seed: int = 0, n_periods: int = 63) -> FactorModelSpec:
    """Desk-scale system: 12 responses, 10 proxies, 3 proxied factors."""
    rng = np.random.default_rng(20240902)
    loadings = rng.normal(0.0, 1.0, size=(12, 3))
    return FactorModelSpec(
        intercepts=np.linspace(6.0, 21.0, 12),
        proxied_loadings=loadings,
        missing_loadings=np.zeros((12, 0)),
        proxy_projection=_fixed_projection(10, 3),
        proxy_noise_scale=0.5,
        idio_variances=rng.uniform(0.3, 0.7, size=12),
        n_periods=n_periods,
        seed=seed,
    )
