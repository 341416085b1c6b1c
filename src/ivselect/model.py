"""Linear IV data model: preparation, projections, and point estimators.

The model is

    Y_i = D_i beta* + delta_i,        D_i = Z_i' gamma* + xi_i,

with (delta_i, xi_i) mean-zero bivariate normal with covariance Sigma*.
Everything downstream works on a prepared dataset: exogenous covariates
residualized out and all columns centered.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import qr as pivoted_qr

from .errors import (
    CovarianceError,
    DataError,
    DegenerateFirstStageError,
    DimensionError,
    RankDeficiencyError,
)

# Relative singular-value cutoff below which a column set is declared
# rank deficient.  Silent pseudo-inversion would corrupt the pre-test
# penalty, so this is an error, not a warning.
RANK_RTOL = 1e-10

_EIG_FLOOR = 1e-12


@dataclass(frozen=True)
class IVDataset:
    """Outcome Y (n,), treatment D (n,), instruments Z (n, p), optional
    exogenous covariates X (n, k).  Instances are immutable; expensive
    decompositions are cached on first use."""

    Y: np.ndarray
    D: np.ndarray
    Z: np.ndarray
    X: np.ndarray | None = None

    def __post_init__(self):
        Y = np.atleast_1d(np.asarray(self.Y, dtype=float))
        D = np.atleast_1d(np.asarray(self.D, dtype=float))
        Z = np.asarray(self.Z, dtype=float)
        if Z.ndim == 1:
            Z = Z[:, None]
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "Z", Z)
        if self.X is not None:
            X = np.asarray(self.X, dtype=float)
            if X.ndim == 1:
                X = X[:, None]
            object.__setattr__(self, "X", X)
        n = Y.shape[0]
        if Y.ndim != 1 or D.ndim != 1:
            raise DimensionError("Y and D must be one-dimensional")
        if D.shape[0] != n or Z.shape[0] != n:
            raise DimensionError(
                f"row counts differ: Y has {n}, D has {D.shape[0]}, Z has {Z.shape[0]}"
            )
        if self.X is not None and self.X.shape[0] != n:
            raise DimensionError(
                f"row counts differ: Y has {n}, X has {self.X.shape[0]}"
            )
        if not (n > self.p >= 1):
            raise DimensionError(f"need n > p >= 1, got n={n}, p={self.p}")
        for name in ("Y", "D", "Z", "X"):
            arr = getattr(self, name)
            if arr is not None and not np.isfinite(arr).all():
                first = np.unravel_index(np.argmin(np.isfinite(arr)), arr.shape)
                at = int(first[0]) if arr.ndim == 1 else tuple(int(i) for i in first)
                raise DataError(f"{name} has a non-finite value at index {at}")

    @property
    def n(self) -> int:
        return self.Y.shape[0]

    @property
    def p(self) -> int:
        return self.Z.shape[1]

    @cached_property
    def _qz(self) -> np.ndarray:
        """Orthonormal basis of col(Z); P_Z v = qz @ (qz.T @ v)."""
        _check_rank(self.Z, [f"z{j + 1}" for j in range(self.p)])
        q, _ = np.linalg.qr(self.Z)
        return q

    @cached_property
    def ztz_isqrt(self) -> np.ndarray:
        """(Z'Z)^(-1/2), symmetric eigendecomposition root."""
        ztz = self.Z.T @ self.Z
        vals, vecs = np.linalg.eigh(ztz)
        if vals[-1] <= 0 or vals[0] / vals[-1] < RANK_RTOL:
            raise RankDeficiencyError(
                [f"z{j + 1}" for j in range(self.p)],
                "Z'Z numerically singular; instruments are collinear",
            )
        vals = np.maximum(vals, _EIG_FLOOR)
        return (vecs / np.sqrt(vals)) @ vecs.T

    @cached_property
    def ztz_sqrt(self) -> np.ndarray:
        """(Z'Z)^(1/2), same symmetric root convention as ztz_isqrt."""
        ztz = self.Z.T @ self.Z
        vals, vecs = np.linalg.eigh(ztz)
        vals = np.maximum(vals, _EIG_FLOOR)
        return (vecs * np.sqrt(vals)) @ vecs.T

    @cached_property
    def s_stat(self) -> np.ndarray:
        """Sufficient statistic S = (Z'Z)^(-1/2) Z'D; ||S||^2 = D'P_Z D."""
        return self.ztz_isqrt @ (self.Z.T @ self.D)

    @cached_property
    def gamma_hat(self) -> np.ndarray:
        """First-stage OLS coefficients (Z'Z)^(-1) Z'D."""
        return np.linalg.lstsq(self.Z, self.D, rcond=None)[0]

    @cached_property
    def first_stage_rss(self) -> float:
        r = self.D - self.Z @ self.gamma_hat
        return float(r @ r)

    @cached_property
    def d_pz_d(self) -> float:
        s = self.s_stat
        return float(s @ s)

    def project_z(self, v: np.ndarray) -> np.ndarray:
        """P_Z v (columns of v projected onto col(Z))."""
        q = self._qz
        return q @ (q.T @ v)

    def resid_z(self, v: np.ndarray) -> np.ndarray:
        """(I - P_Z) v."""
        return v - self.project_z(v)


def _check_rank(mat: np.ndarray, labels: list[str]) -> None:
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv[0] == 0 or sv[-1] / sv[0] < RANK_RTOL:
        rank = int(np.sum(sv / sv[0] >= RANK_RTOL)) if sv[0] > 0 else 0
        # Pivoted QR puts the redundant columns last; name those.
        _, _, piv = pivoted_qr(mat, mode="economic", pivoting=True)
        bad = sorted(piv[rank:])
        raise RankDeficiencyError([labels[j] for j in bad])


def _is_prepared(data: IVDataset, tol: float = 1e-8) -> bool:
    if data.X is not None:
        return False
    scale = max(1.0, float(np.max(np.abs(data.Z))))
    return (
        abs(data.Y.mean()) < tol
        and abs(data.D.mean()) < tol
        and float(np.max(np.abs(data.Z.mean(axis=0)))) < tol * scale
    )


def require_prepared(data: IVDataset) -> None:
    if not _is_prepared(data):
        raise DimensionError(
            "dataset is not prepared; call prepare() to center and residualize first"
        )


def prepare(raw: IVDataset) -> IVDataset:
    """Residualize X out of (Y, D, Z), center every column, drop X.

    Centering is equivalent to including an intercept among the exogenous
    covariates, so a constant column in X is redundant but harmless.
    Raises RankDeficiencyError naming the offending columns when [Z X]
    is collinear.
    """
    Y = raw.Y - raw.Y.mean()
    D = raw.D - raw.D.mean()
    Z = raw.Z - raw.Z.mean(axis=0)

    if raw.X is not None:
        X = raw.X - raw.X.mean(axis=0)
        # columns that were constants are identically zero now; drop them
        keep = np.max(np.abs(X), axis=0) > 1e-12 * max(
            1.0, float(np.max(np.abs(raw.X)))
        )
        x_labels = [f"x{j + 1}" for j in range(X.shape[1]) if keep[j]]
        X = X[:, keep]
        if X.shape[1] > 0:
            z_labels = [f"z{j + 1}" for j in range(Z.shape[1])]
            _check_rank(np.hstack([Z, X]), z_labels + x_labels)
            if raw.n <= Z.shape[1] + X.shape[1]:
                raise DimensionError(
                    f"need n > p + k, got n={raw.n}, p={Z.shape[1]}, k={X.shape[1]}"
                )
            coef, *_ = np.linalg.lstsq(X, np.column_stack([Y, D, Z]), rcond=None)
            resid = np.column_stack([Y, D, Z]) - X @ coef
            Y, D, Z = resid[:, 0], resid[:, 1], resid[:, 2:]

    # re-center to machine precision (residualizing on centered X keeps
    # means at zero only up to rounding)
    Y = Y - Y.mean()
    D = D - D.mean()
    Z = Z - Z.mean(axis=0)
    out = IVDataset(Y=Y, D=D, Z=Z, X=None)
    _check_rank(out.Z, [f"z{j + 1}" for j in range(out.p)])
    return out


def sufficient_statistic(data: IVDataset) -> np.ndarray:
    """S = (Z'Z)^(-1/2) Z'D, the first-stage statistic the pre-test acts on."""
    require_prepared(data)
    return data.s_stat


def tsls_estimate(data: IVDataset) -> float:
    """Two-stage least squares estimate D'P_Z Y / D'P_Z D."""
    require_prepared(data)
    denom = data.d_pz_d
    scale = float(data.D @ data.D)
    if denom <= 1e-12 * max(scale, 1e-300):
        raise DegenerateFirstStageError(
            f"D'P_Z D = {denom:.3e} is numerically zero; instruments do not move D"
        )
    pzd = data.project_z(data.D)
    return float(pzd @ data.Y) / denom


@dataclass(frozen=True)
class ModelEstimates:
    """Point estimates consumed by the test statistics.

    sigma_hat is the structural error covariance evaluated at the null
    value beta0 recorded here; omega_hat is the reduced-form covariance
    and does not depend on beta0.
    """

    beta_tsls: float
    omega_hat: np.ndarray
    sigma_hat: np.ndarray
    gamma_hat: np.ndarray
    beta0: float

    def __post_init__(self):
        for name in ("omega_hat", "sigma_hat"):
            m = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, m)
            if m.shape != (2, 2):
                raise CovarianceError(f"{name} must be 2x2, got {m.shape}")
            if abs(m[0, 1] - m[1, 0]) > 1e-12 * max(1.0, abs(m[0, 1])):
                raise CovarianceError(f"{name} is not symmetric")
            vals = np.linalg.eigvalsh(m)
            if vals[0] <= 0:
                raise CovarianceError(
                    f"{name} is not positive definite (eigenvalues {vals})"
                )


def covariance_estimates(data: IVDataset, beta0: float) -> ModelEstimates:
    """Reduced-form and structural covariance estimates at the null beta0.

    Omega_hat = [Y D]' P_Zperp [Y D] / (n - p)
    Sigma_hat(beta0) = [Y - D beta0, D]' P_Zperp [Y - D beta0, D] / (n - p)

    The two satisfy Omega = B Sigma B' with B = [[1, beta0], [0, 1]]
    exactly, because the column maps commute with the projection.
    """
    require_prepared(data)
    n, p = data.n, data.p
    yd = np.column_stack([data.Y, data.D])
    resid = data.resid_z(yd)
    omega = (resid.T @ resid) / (n - p)

    e = resid[:, 0] - resid[:, 1] * beta0  # residualized Y - D*beta0
    sigma = np.empty((2, 2))
    sigma[0, 0] = e @ e
    sigma[0, 1] = sigma[1, 0] = e @ resid[:, 1]
    sigma[1, 1] = resid[:, 1] @ resid[:, 1]
    sigma /= n - p

    return ModelEstimates(
        beta_tsls=tsls_estimate(data),
        omega_hat=omega,
        sigma_hat=sigma,
        gamma_hat=data.gamma_hat,
        beta0=float(beta0),
    )


def tsls_standard_error(data: IVDataset, est: ModelEstimates | None = None) -> float:
    """Conventional standard error of the TSLS estimate,
    sqrt(Sigma_hat_11(beta_tsls)) / sqrt(D'P_Z D)."""
    require_prepared(data)
    beta = tsls_estimate(data) if est is None else est.beta_tsls
    at_beta = covariance_estimates(data, beta)
    return float(np.sqrt(at_beta.sigma_hat[0, 0] / data.d_pz_d))
