"""Linear IV data model: preparation, the sufficient-statistics core, and
point estimators.

The model is

    Y_i = D_i beta* + delta_i,        D_i = Z_i' gamma* + xi_i,

with (delta_i, xi_i) mean-zero bivariate normal with covariance Sigma*.
Everything downstream works on a prepared dataset: exogenous covariates
residualized out and all columns centered.  After that, every statistic,
screen and law depends on the data only through n and the cross-moments
Z'Z, Z'Y, Z'D, Y'Y, Y'D and D'D.  A Moments value holds them as the
Cholesky factor L of Z'Z, S = L^-1 Z'D and its Y analogue L^-1 Z'Y
(computed once per dataset, O(n p^2)), and derives Omega_hat, RSS, F
and beta_hat from those.  Its arrays may
carry a leading batch axis; the estimators here and the statistics in
pretest and teststats take a dataset or a Moments and, given a batch,
return one value per replication.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

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
    """n, the lower Cholesky factor L of Z'Z (p, p), s = L^-1 Z'D and
    sy = L^-1 Z'Y (p,), and yy = Y'Y, yd = Y'D and dd = D'D of centered
    (Z, Y, D), each optionally stacked over a leading batch axis.  Any LL'
    = Z'Z gives S up to a rotation, which no statistic, screen or law sees;
    the triangular L also keeps S unchanged when an instrument is rescaled.
    Derived quantities are cached on first use; m[i] is replication i.

    Quantities that are differences of moments, such as Omega_hat and
    Sigma_hat(beta0), carry rounding relative to the moments themselves:
    about machine epsilon times Y'Y over the residual sum of squares."""

    n: int
    chol: np.ndarray
    s: np.ndarray
    sy: np.ndarray
    yy: np.ndarray
    yd: np.ndarray
    dd: np.ndarray

    @classmethod
    def of(cls, z, y, d) -> "Moments":
        """Moments of centered instruments z (..., n, p) and y, d (..., n)."""
        zt = np.swapaxes(z, -1, -2)
        return cls.of_cross(z.shape[-2], zt @ z, _mv(zt, y), _mv(zt, d), _dot(y, y), _dot(y, d), _dot(d, d))

    @classmethod
    def of_cross(cls, n, ztz, zty, ztd, yy, yd, dd) -> "Moments":
        """Moments from the cross-products Z'Z, Z'Y, Z'D, Y'Y, Y'D and D'D.
        Raises RankDeficiencyError when Z'Z has no Cholesky factor, or names
        the instruments j whose L_jj / sqrt(Z'Z_jj), the sine of the angle
        between z_j and the earlier columns, is at most sqrt(RANK_RTOL), the
        RANK_RTOL rule on Z's singular values read in unit-free form."""
        try:
            chol = np.linalg.cholesky(ztz)
        except np.linalg.LinAlgError:  # a batch fails as a whole
            labels = [f"z{j + 1}" for j in range(ztz.shape[-1])]
            raise RankDeficiencyError(labels, "Z'Z is not positive definite; instruments are collinear") from None
        sine = np.diagonal(chol, axis1=-2, axis2=-1) / np.sqrt(np.diagonal(ztz, axis1=-2, axis2=-1))
        lost = np.flatnonzero(~np.all(sine > RANK_RTOL**0.5, axis=tuple(range(sine.ndim - 1))))
        if lost.size:
            raise RankDeficiencyError([f"z{j + 1}" for j in lost])
        whitened = np.linalg.solve(chol, np.stack([ztd, zty], axis=-1))
        # contiguous copies: einsum over a strided view sums in another order
        s, sy = (np.ascontiguousarray(whitened[..., k]) for k in (0, 1))
        return cls(n=n, chol=chol, s=s, sy=sy, yy=yy, yd=yd, dd=dd)

    def __getitem__(self, i) -> "Moments":
        row = object.__new__(Moments)
        # every field but n, and every cached quantity, has the batch axis first
        vars(row).update({k: v if k == "n" else v[i] for k, v in vars(self).items()})
        return row

    def select(self, cols) -> "Moments":
        """Moments of one dataset with only the instruments in cols."""
        cols = list(cols)
        return Moments.of_cross(
            self.n, self.ztz[np.ix_(cols, cols)], self.zty[cols], self.ztd[cols],
            self.yy, self.yd, self.dd,
        )

    @property
    def p(self) -> int:
        return self.s.shape[-1]

    @cached_property
    def ztz(self) -> np.ndarray:
        return self.chol @ np.swapaxes(self.chol, -1, -2)  # Z'Z = LL'

    @cached_property
    def ztd(self) -> np.ndarray:
        return _mv(self.chol, self.s)  # Z'D = L s

    @cached_property
    def zty(self) -> np.ndarray:
        return _mv(self.chol, self.sy)  # Z'Y = L sy

    @cached_property
    def s2(self) -> np.ndarray:
        return _dot(self.s, self.s)

    @cached_property
    def gamma_hat(self) -> np.ndarray:
        """First-stage OLS coefficients (Z'Z)^(-1) Z'D = L^-T S."""
        return np.linalg.solve(np.swapaxes(self.chol, -1, -2), self.s[..., None])[..., 0]

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


def pivoted_qr(mat: np.ndarray):
    """R and the column pivots of mat's pivoted QR."""
    from scipy.linalg import qr  # deferred: only a failed rank rule needs scipy.linalg

    return qr(mat, mode="r", pivoting=True)


def _rank_error(mat: np.ndarray, labels: list[str], rtol: float) -> RankDeficiencyError:
    """The error naming the columns of mat that pivoted QR puts past its
    numerical rank (singular values below rtol times the largest).  Runs
    only once a rule has found mat rank deficient, so it names at least
    one column."""
    r, piv = pivoted_qr(mat)
    sv = np.linalg.svd(r[: mat.shape[1]], compute_uv=False)
    rank = min(int(np.sum(sv > rtol * sv[0])), mat.shape[1] - 1)
    return RankDeficiencyError([labels[j] for j in sorted(piv[rank:])])


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
    Raises RankDeficiencyError naming the offending columns when X is
    collinear, when residualizing leaves an instrument less than
    RANK_RTOL of its centered norm, or when the moments core cannot
    factor the residualized Z'Z.  Each rule is relative to the columns it
    judges, so rescaling any column of X or of Z changes no verdict.
    """
    # one (n, p + 2) block, so centering and residualizing are one pass each
    block = np.column_stack([raw.Y, raw.D, raw.Z])
    block -= block.mean(axis=0)
    z_norms = np.sqrt(_dot(block.T[2:], block.T[2:]))

    if raw.X is not None:
        X = raw.X - raw.X.mean(axis=0)
        # columns that were constants are zero to rounding now; drop them
        keep = np.max(np.abs(X), axis=0) > 1e-12 * np.max(np.abs(raw.X), axis=0)
        x_labels = [f"x{j + 1}" for j in np.flatnonzero(keep)]
        X = X[:, keep]
        if X.shape[1] > 0:
            if raw.n <= raw.p + X.shape[1]:
                raise DimensionError(
                    f"need n > p + k, got n={raw.n}, p={raw.p}, k={X.shape[1]}"
                )
            X /= np.sqrt(_dot(X.T, X.T))  # unit columns: X's units cannot reach its verdict
            coef, _, _, sv = np.linalg.lstsq(X, block, rcond=RANK_RTOL)
            if sv[-1] < RANK_RTOL * sv[0]:
                raise _rank_error(X, x_labels, RANK_RTOL)
            block -= X @ coef

    # re-center to machine precision (residualizing on centered X keeps
    # means at zero only up to rounding); a constant column becomes zero
    block -= block.mean(axis=0)
    out = IVDataset(Y=block[:, 0], D=block[:, 1], Z=block[:, 2:])
    z_labels = [f"z{j + 1}" for j in range(raw.p)]
    try:
        chol = out.moments.chol
    except RankDeficiencyError:  # no factor: read the norms off Z, then name columns
        chol = None
    z_res = np.sqrt(_dot(out.Z.T, out.Z.T) if chol is None else _dot(chol, chol))
    lost = z_res <= RANK_RTOL * z_norms
    if lost.any():
        raise RankDeficiencyError([z_labels[j] for j in np.flatnonzero(lost)])
    if chol is None:  # at the core's sqrt(RANK_RTOL), on unit-norm columns: no units reach it
        raise _rank_error(out.Z / z_res, z_labels, RANK_RTOL**0.5)
    return out


def sufficient_statistic(data: IVDataset | Moments) -> np.ndarray:
    """S = L^-1 Z'D with LL' = Z'Z, the first-stage statistic the pre-test acts on."""
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

    sigma_hat is the structural error covariance at the null it was
    evaluated at; omega_hat is the reduced-form covariance and does not
    depend on the null.  For a batch of datasets or nulls the matrices
    are stacked (..., 2, 2).
    """

    omega_hat: np.ndarray
    sigma_hat: np.ndarray


def covariance_estimates(data: IVDataset | Moments, beta0: float) -> ModelEstimates:
    """Reduced-form and structural covariance estimates at the null beta0.
    An array of nulls broadcasts against the batch axis of the moments,
    stacking sigma_hat (..., 2, 2).

    Omega_hat = [Y D]' P_Zperp [Y D] / (n - p)
    Sigma_hat(beta0) = [Y - D beta0, D]' P_Zperp [Y - D beta0, D] / (n - p)

    The two satisfy Omega = B Sigma B' with B = [[1, beta0], [0, 1]]
    exactly, because the column maps commute with the projection.  Both
    are symmetric 2x2 by construction, and Sigma_hat is positive definite
    exactly when Omega_hat is, so Omega_hat's leading entry and
    determinant are the one check.
    """
    m = require_prepared(data)
    o = m.omega
    if not np.all((o[..., 0, 0] > 0) & (o[..., 0, 0] * o[..., 1, 1] - o[..., 0, 1] ** 2 > 0)):
        raise CovarianceError(
            "Omega_hat is not positive definite: the residuals of Y and D on Z are collinear"
        )
    _require_first_stage(m)
    return ModelEstimates(omega_hat=o, sigma_hat=m.sigma(beta0))


def tsls_standard_error(data: IVDataset | Moments) -> float:
    """Conventional standard error of the TSLS estimate,
    sqrt(Sigma_hat_11(beta_tsls)) / sqrt(D'P_Z D)."""
    m = require_prepared(data)
    at_beta = covariance_estimates(m, tsls_estimate(m))
    return _item(np.sqrt(at_beta.sigma_hat[..., 0, 0] / m.s2))
