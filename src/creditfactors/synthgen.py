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

from dataclasses import dataclass

import numpy as np

from ._linalg import canonical_pairs
from .errors import DataError, NumericalError

_RANK_TOL = 1e-8


def _frozen_array(obj, field, value, ndim):
    arr = np.array(value, dtype=float)
    if arr.ndim != ndim:
        raise DataError(f"{field} must be {ndim}-D, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DataError(f"{field} must be finite")
    arr.setflags(write=False)
    object.__setattr__(obj, field, arr)
    return arr


@dataclass(frozen=True)
class FactorModelSpec:
    """Population description of one synthetic dataset."""

    intercepts: np.ndarray        # (n,)
    proxied_loadings: np.ndarray  # (n, r): loadings on proxied factors
    missing_loadings: np.ndarray  # (n, m - r): loadings on unproxied factors
    proxy_projection: np.ndarray  # (k, r): f1 = proxies @ proxy_projection + noise
    proxy_noise_scale: float
    idio_variances: np.ndarray    # (n,), all positive
    n_periods: int
    seed: int

    def __post_init__(self):
        intercepts = _frozen_array(self, "intercepts", self.intercepts, 1)
        b1 = _frozen_array(self, "proxied_loadings", self.proxied_loadings, 2)
        b2 = _frozen_array(self, "missing_loadings", self.missing_loadings, 2)
        theta = _frozen_array(self, "proxy_projection", self.proxy_projection, 2)
        idio = _frozen_array(self, "idio_variances", self.idio_variances, 1)
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
        if not 0 <= self.proxy_noise_scale < np.inf:
            raise DataError("proxy_noise_scale must be finite and nonnegative")
        if self.n_periods < 2:
            raise DataError("n_periods must be at least 2")
        if self.seed < 0:
            raise DataError(f"seed must be nonnegative, got {self.seed}")
        if np.linalg.matrix_rank(b1, tol=_RANK_TOL) < r:
            raise DataError("proxied_loadings must have full column rank")
        if b2.shape[1] and np.linalg.matrix_rank(b2, tol=_RANK_TOL) < b2.shape[1]:
            raise DataError("missing_loadings must have full column rank")

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


@dataclass(frozen=True)
class SyntheticDataset:
    """One draw of the factor model, with every latent piece kept."""

    responses: np.ndarray       # (T, n)
    proxies: np.ndarray         # (T, k)
    proxied_factors: np.ndarray  # (T, r)
    missing_factors: np.ndarray  # (T, m - r)
    idiosyncratic: np.ndarray   # (T, n)
    spec: FactorModelSpec

    def __post_init__(self):
        for field in ("responses", "proxies", "proxied_factors",
                      "missing_factors", "idiosyncratic"):
            _frozen_array(self, field, getattr(self, field), 2)


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

def _fixed_projection(k: int, r: int, scale: float = 1.0) -> np.ndarray:
    """Deterministic k x r projection with orthonormal columns times scale."""
    rng = np.random.default_rng(20240901)
    q, _ = np.linalg.qr(rng.standard_normal((k, r)))
    return scale * q[:, :r]

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


def scenario_no_missing_factor(seed: int, n_periods: int = 240) -> FactorModelSpec:
    """Six responses driven entirely by two well-proxied factors."""
    return FactorModelSpec(
        intercepts=_SCENARIO_INTERCEPTS,
        proxied_loadings=_SCENARIO_LOADINGS,
        missing_loadings=np.zeros((6, 0)),
        proxy_projection=_fixed_projection(5, 2),
        proxy_noise_scale=0.3,
        idio_variances=_SCENARIO_IDIO,
        n_periods=n_periods,
        seed=seed,
    )


def scenario_missing_factor(seed: int, n_periods: int = 240) -> FactorModelSpec:
    """Same system plus one unproxied factor loading strongly on all responses."""
    return FactorModelSpec(
        intercepts=_SCENARIO_INTERCEPTS,
        proxied_loadings=_SCENARIO_LOADINGS,
        missing_loadings=_SCENARIO_MISSING,
        proxy_projection=_fixed_projection(5, 2),
        proxy_noise_scale=0.3,
        idio_variances=_SCENARIO_IDIO,
        n_periods=n_periods,
        seed=seed,
    )


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
