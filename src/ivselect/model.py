"""Linear IV data model: preparation, the sufficient-statistics core, and
point estimators.

The model is

    Y_i = D_i beta* + delta_i,        D_i = Z_i' gamma* + xi_i,

with (delta_i, xi_i) mean-zero bivariate normal with covariance Sigma*.
Everything downstream works on a prepared dataset: exogenous covariates
residualized out and all columns centered.  After that, every statistic,
screen and law depends on the data only through n and the cross-moments
Z'Z, Z'Y, Z'D, Y'Y, Y'D and D'D.  A Moments value holds them (computed
once per dataset, O(n p^2)) and derives S, its Y analogue, Omega_hat,
RSS, F and beta_hat from one eigendecomposition of Z'Z.  Its arrays may
carry a leading batch axis; the estimators here and the statistics in
pretest and teststats take a dataset or a Moments and, given a batch,
return one value per replication.
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


def _dot(a, b):
    return np.einsum("...i,...i->...", a, b)


def _mv(mat, v):
    return np.einsum("...ij,...j->...i", mat, v)


def _sym2(a, b, c):
    """Symmetric 2x2 matrices [[a, b], [b, c]] over the broadcast batch shape
    of the entries."""
    a, b, c = np.broadcast_arrays(a, b, c)
    return np.stack([np.stack([a, b], -1), np.stack([b, c], -1)], -2)


def _item(x):
    """A Python scalar for one dataset's value; a batch's array as is."""
    return x.item() if np.ndim(x) == 0 else x


@dataclass(frozen=True)
class Moments:
    """n and the cross-moments of centered (Z, Y, D): ztz = Z'Z (p, p),
    zty = Z'Y and ztd = Z'D (p,), yy, yd and dd scalars, each optionally
    stacked over a leading batch axis.  Derived quantities are cached on
    first use; m[i] is replication i of a batch.

    Quantities that are differences of moments, such as Omega_hat and
    Sigma_hat(beta0), carry rounding relative to the moments themselves:
    about machine epsilon times Y'Y over the residual sum of squares."""

    n: int
    ztz: np.ndarray
    zty: np.ndarray
    ztd: np.ndarray
    yy: np.ndarray
    yd: np.ndarray
    dd: np.ndarray

    @classmethod
    def of(cls, z, y, d) -> "Moments":
        """Moments of centered instruments z (..., n, p) and y, d (..., n)."""
        zt = np.swapaxes(z, -1, -2)
        return cls(
            n=z.shape[-2], ztz=zt @ z, zty=_mv(zt, y), ztd=_mv(zt, d),
            yy=_dot(y, y), yd=_dot(y, d), dd=_dot(d, d),
        )

    def __getitem__(self, i) -> "Moments":
        row = object.__new__(Moments)
        # every field but n, and every cached quantity, has the batch axis first
        vars(row).update({k: v if k == "n" else v[i] for k, v in vars(self).items()})
        return row

    def select(self, cols) -> "Moments":
        """Moments of one dataset with only the instruments in cols."""
        cols = list(cols)
        return Moments(
            self.n, self.ztz[np.ix_(cols, cols)], self.zty[cols], self.ztd[cols],
            self.yy, self.yd, self.dd,
        )

    @property
    def p(self) -> int:
        return self.ztd.shape[-1]

    @cached_property
    def ztz_isqrt(self) -> np.ndarray:
        """(Z'Z)^(-1/2), symmetric eigendecomposition root."""
        vals, vecs = np.linalg.eigh(self.ztz)
        if np.any((vals[..., -1] <= 0) | (vals[..., 0] < RANK_RTOL * vals[..., -1])):
            raise RankDeficiencyError(
                [f"z{j + 1}" for j in range(self.p)],
                "Z'Z numerically singular; instruments are collinear",
            )
        vals = np.maximum(vals, _EIG_FLOOR)
        return (vecs / np.sqrt(vals)[..., None, :]) @ np.swapaxes(vecs, -1, -2)

    @cached_property
    def s(self) -> np.ndarray:
        """Sufficient statistic S = (Z'Z)^(-1/2) Z'D; ||S||^2 = D'P_Z D."""
        return _mv(self.ztz_isqrt, self.ztd)

    @cached_property
    def sy(self) -> np.ndarray:
        """(Z'Z)^(-1/2) Z'Y, the Y analogue of S; S'sy = D'P_Z Y."""
        return _mv(self.ztz_isqrt, self.zty)

    @cached_property
    def s2(self) -> np.ndarray:
        return _dot(self.s, self.s)

    @cached_property
    def gamma_hat(self) -> np.ndarray:
        """First-stage OLS coefficients (Z'Z)^(-1) Z'D."""
        return _mv(self.ztz_isqrt, self.s)

    @cached_property
    def rss(self) -> np.ndarray:
        """First-stage residual sum of squares D'(I - P_Z)D."""
        return np.maximum(self.dd - self.s2, 0.0)

    @cached_property
    def f(self) -> np.ndarray:
        """First-stage F: (||S||^2 / p) / (RSS / (n - p))."""
        return (self.s2 / self.p) / (self.rss / (self.n - self.p))

    @cached_property
    def beta_hat(self) -> np.ndarray:
        """TSLS estimate D'P_Z Y / D'P_Z D."""
        return _dot(self.sy, self.s) / self.s2

    @cached_property
    def omega(self) -> np.ndarray:
        """Omega_hat = [Y D]' P_Zperp [Y D] / (n - p)."""
        sy, s = self.sy, self.s
        return _sym2(
            self.yy - _dot(sy, sy), self.yd - _dot(sy, s), self.dd - self.s2
        ) / (self.n - self.p)

    def sigma(self, beta0) -> np.ndarray:
        """Sigma_hat(beta0) = B^-1 Omega_hat B^-T with B = [[1, beta0], [0, 1]]:
        the residual covariance of (Y - D beta0, D)."""
        o = self.omega
        o00, o01, o11 = o[..., 0, 0], o[..., 0, 1], o[..., 1, 1]
        return _sym2(o00 - 2.0 * beta0 * o01 + beta0**2 * o11, o01 - beta0 * o11, o11)


@dataclass(frozen=True)
class IVDataset:
    """Outcome Y (n,), treatment D (n,), instruments Z (n, p), optional
    exogenous covariates X (n, k).  Instances are immutable; the
    cross-moments and the prepared check are computed once."""

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
    def moments(self) -> Moments:
        """Cross-moments of (Z, Y, D), computed once: O(n p^2)."""
        return Moments.of(self.Z, self.Y, self.D)

    @cached_property
    def _prepared(self) -> bool:
        """No covariates and every column centered, relative to its magnitude."""

        def centered(a):
            return float(np.max(np.abs(a.mean(axis=0)))) < 1e-8 * max(1.0, float(np.max(np.abs(a))))

        return self.X is None and centered(self.Y) and centered(self.D) and centered(self.Z)


def _check_rank(mat: np.ndarray, labels: list[str], rtol: float = RANK_RTOL) -> None:
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv[0] == 0 or sv[-1] / sv[0] < rtol:
        rank = int(np.sum(sv / sv[0] >= rtol)) if sv[0] > 0 else 0
        # Pivoted QR puts the redundant columns last; name those.
        _, _, piv = pivoted_qr(mat, mode="economic", pivoting=True)
        bad = sorted(piv[rank:])
        raise RankDeficiencyError([labels[j] for j in bad])


def require_prepared(data: IVDataset | Moments) -> Moments:
    """The cross-moments of a prepared dataset.  A Moments value passes
    as is: it is only ever built from centered data."""
    if isinstance(data, Moments):
        return data
    if not data._prepared:
        raise DimensionError(
            "dataset is not prepared; call prepare() to center and residualize first"
        )
    return data.moments


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
    # Moments applies RANK_RTOL to the eigenvalues of Z'Z, the squared
    # singular values of Z: check Z against the same cutoff here.
    _check_rank(out.Z, [f"z{j + 1}" for j in range(out.p)], RANK_RTOL**0.5)
    return out


def sufficient_statistic(data: IVDataset | Moments) -> np.ndarray:
    """S = (Z'Z)^(-1/2) Z'D, the first-stage statistic the pre-test acts on."""
    return require_prepared(data).s


def _require_first_stage(m: Moments) -> None:
    """DegenerateFirstStageError unless D'P_Z D is clear of rounding noise."""
    if np.any(m.s2 <= 1e-12 * np.maximum(m.dd, 1e-300)):
        raise DegenerateFirstStageError(
            f"D'P_Z D = {np.min(m.s2):.3e} is numerically zero; instruments do not move D"
        )


def tsls_estimate(data: IVDataset | Moments) -> float:
    """Two-stage least squares estimate D'P_Z Y / D'P_Z D."""
    m = require_prepared(data)
    _require_first_stage(m)
    return _item(m.beta_hat)


@dataclass(frozen=True)
class ModelEstimates:
    """Point estimates consumed by the test statistics.

    sigma_hat is the structural error covariance evaluated at the null
    value beta0 recorded here; omega_hat is the reduced-form covariance
    and does not depend on beta0.  For a batch of datasets the matrices
    are stacked (reps, 2, 2) and beta_tsls is one value per replication.
    """

    beta_tsls: float
    omega_hat: np.ndarray
    sigma_hat: np.ndarray
    beta0: float

    def __post_init__(self):
        for name in ("omega_hat", "sigma_hat"):
            m = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, m)
            if m.shape[-2:] != (2, 2):
                raise CovarianceError(f"{name} must be 2x2, got {m.shape}")
            asym = np.abs(m[..., 0, 1] - m[..., 1, 0])
            if np.any(asym > 1e-12 * np.maximum(1.0, np.abs(m[..., 0, 1]))):
                raise CovarianceError(f"{name} is not symmetric")
            vals = np.linalg.eigvalsh(m)
            if np.any(vals[..., 0] <= 0):
                raise CovarianceError(
                    f"{name} is not positive definite (eigenvalues {vals})"
                )


def covariance_estimates(data: IVDataset | Moments, beta0: float) -> ModelEstimates:
    """Reduced-form and structural covariance estimates at the null beta0.
    An array of nulls broadcasts against the batch axis of the moments,
    stacking sigma_hat (..., 2, 2).

    Omega_hat = [Y D]' P_Zperp [Y D] / (n - p)
    Sigma_hat(beta0) = [Y - D beta0, D]' P_Zperp [Y - D beta0, D] / (n - p)

    The two satisfy Omega = B Sigma B' with B = [[1, beta0], [0, 1]]
    exactly, because the column maps commute with the projection.
    """
    m = require_prepared(data)
    return ModelEstimates(
        beta_tsls=tsls_estimate(m),
        omega_hat=m.omega,
        sigma_hat=m.sigma(beta0),
        beta0=_item(np.asarray(beta0, dtype=float)),
    )


def tsls_standard_error(data: IVDataset | Moments, est: ModelEstimates | None = None) -> float:
    """Conventional standard error of the TSLS estimate,
    sqrt(Sigma_hat_11(beta_tsls)) / sqrt(D'P_Z D)."""
    m = require_prepared(data)
    beta = tsls_estimate(m) if est is None else est.beta_tsls
    at_beta = covariance_estimates(m, beta)
    return _item(np.sqrt(at_beta.sigma_hat[..., 0, 0] / m.s2))
