"""Linear IV data model: preparation, the sufficient-statistics core, and
point estimators.

The model is

    Y_i = D_i beta* + delta_i,        D_i = Z_i' gamma* + xi_i,

with (delta_i, xi_i) mean-zero bivariate normal with covariance Sigma*.
Every statistic, screen and law depends on the data only through n and
the cross-moments of [Z D Y] after the exogenous covariates X and an
intercept are residualized out.  A Moments value holds them as the
blocks of that matrix's upper-triangular QR factor R: the Cholesky
factor L of Z'Z, S = L^-1 Z'D, its Y analogue L^-1 Z'Y and the 2 x 2
factor B of the residuals of [D Y] on Z, and derives Omega_hat, RSS, F
and beta_hat from those.  prepare is the one way from rows to Moments:
it grows R a block of rows at a time from the R of [1 X Z D Y]
(_RowFactor), so no step holds more than one block of rows beside the
data it was given, and a row IVDataset is prepared the first time a
library function reads it.  Moments arrays may carry a leading batch
axis; the estimators here and the statistics in pretest and teststats
take a dataset or a Moments and, given a batch, return one value per
replication.
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
    """The blocks of the upper-triangular R = [[L', s, sy], [0, B]] of
    centered [Z D Y], each optionally stacked over a leading batch axis:
    n, the lower Cholesky factor L of Z'Z (p, p), s = L^-1 Z'D and
    sy = L^-1 Z'Y (p,), and b (2, 2), whose columns B_D and B_Y give
    B'B = [D Y]'(I - P_Z)[D Y].  Any LL' = Z'Z gives S up to a rotation,
    which no statistic, screen or law sees; the triangular L also keeps S
    unchanged when an instrument is rescaled.  Omega_hat, RSS and
    Sigma_hat(beta0) are read off B, so they carry rounding relative to
    the residuals, not to Y'Y.  Derived quantities are cached on first
    use; m[i] is replication i."""

    n: int
    chol: np.ndarray
    s: np.ndarray
    sy: np.ndarray
    b: np.ndarray

    @classmethod
    def of_factor(cls, n, r) -> "Moments":
        """Moments from an upper-triangular R of p + 2 columns (B has the
        rows past p, two unless n < p + 2) with R'R the cross-product of
        [Z D Y].  Rows are flipped to a positive diagonal, so L is the
        Cholesky factor of Z'Z.  Raises RankDeficiencyError naming the
        instruments j whose L_jj / ||z_j||, the sine of the angle between
        z_j and the earlier columns, is at most sqrt(RANK_RTOL): the
        RANK_RTOL rule on Z's singular values read in unit-free form."""
        r = r * np.where(np.diagonal(r, axis1=-2, axis2=-1) < 0, -1.0, 1.0)[..., None]
        p = r.shape[-1] - 2
        rz = r[..., :p, :p]
        norms = np.linalg.norm(rz, axis=-2)  # ||z_j||: a zero column reads as sine 0
        sine = np.diagonal(rz, axis1=-2, axis2=-1) / np.maximum(norms, np.finfo(float).tiny)
        lost = np.flatnonzero(~np.all(sine > RANK_RTOL**0.5, axis=tuple(range(sine.ndim - 1))))
        if lost.size:
            raise RankDeficiencyError([f"z{j + 1}" for j in lost])
        # contiguous copies: einsum over a strided view sums in another order
        s, sy, b = (np.ascontiguousarray(a) for a in (r[..., :p, p], r[..., :p, p + 1], r[..., p:, p:]))
        return cls(n=n, chol=np.swapaxes(rz, -1, -2), s=s, sy=sy, b=b)

    def __getitem__(self, i) -> "Moments":
        row = object.__new__(Moments)
        # every field but n, and every cached quantity, has the batch axis first
        vars(row).update({k: v if k == "n" else v[i] for k, v in vars(self).items()})
        return row

    def select(self, cols) -> "Moments":
        """Moments of one dataset with only the instruments in cols: the QR
        of those columns of R, which keeps R'R's entries for them."""
        p = self.p
        r = np.block([[self.chol.T, self.s[:, None], self.sy[:, None]], [np.zeros((len(self.b), p)), self.b]])
        return Moments.of_factor(self.n, np.linalg.qr(r[:, [*cols, p, p + 1]], mode="r"))

    @property
    def p(self) -> int:
        return self.s.shape[-1]

    @property
    def dof(self) -> int:
        """The residual degrees of freedom n - p: the one divisor of every
        variance read off the moments (F, Omega_hat, Sigma_hat(beta0), the
        screen's penalty, the randomization scales and the AR tail)."""
        return self.n - self.p

    @cached_property
    def ztz(self) -> np.ndarray:
        return self.chol @ np.swapaxes(self.chol, -1, -2)  # Z'Z = LL'

    @cached_property
    def ztd(self) -> np.ndarray:
        return _mv(self.chol, self.s)  # Z'D = L s

    @cached_property
    def dd(self) -> np.ndarray:
        return self.s2 + self.rss  # D'D

    @cached_property
    def s2(self) -> np.ndarray:
        return _dot(self.s, self.s)

    @cached_property
    def gamma_hat(self) -> np.ndarray:
        """First-stage OLS coefficients (Z'Z)^(-1) Z'D = L^-T S."""
        return np.linalg.solve(np.swapaxes(self.chol, -1, -2), self.s[..., None])[..., 0]

    @cached_property
    def rss(self) -> np.ndarray:
        """First-stage residual sum of squares D'(I - P_Z)D = ||B_D||^2."""
        bd = self.b[..., :, 0]
        return _dot(bd, bd)

    @cached_property
    def f(self) -> np.ndarray:
        """First-stage F: (||S||^2 / p) / (RSS / dof)."""
        return (self.s2 / self.p) / (self.rss / self.dof)

    @cached_property
    def beta_hat(self) -> np.ndarray:
        """TSLS estimate D'P_Z Y / D'P_Z D."""
        return _dot(self.sy, self.s) / self.s2

    @cached_property
    def omega(self) -> np.ndarray:
        """Omega_hat = [Y D]' P_Zperp [Y D] / dof = Sigma_hat(0)."""
        return self.sigma(0.0)

    @cached_property
    def det_omega(self) -> np.ndarray:
        """det Omega_hat = (det B / dof)^2, which stays exact when Y
        gains a multiple of D, where Omega_hat's entries cancel.  B is
        not triangular in every batch, so its full determinant is taken."""
        b = self.b
        return ((b[..., 0, 0] * b[..., 1, 1] - b[..., 0, 1] * b[..., 1, 0]) / self.dof) ** 2

    def sigma(self, beta0) -> np.ndarray:
        """Sigma_hat(beta0), the residual covariance of (Y - D beta0, D):
        the Gram matrix of the columns (B_Y - beta0 B_D, B_D) over dof.
        Raises CovarianceError naming the first null at which
        |B_Y - beta0 B_D|^2 overflows, where every law would read inf."""
        beta0 = np.asarray(beta0, dtype=float)
        bd = self.b[..., :, 0]
        with np.errstate(over="ignore", invalid="ignore"):
            e = self.b[..., :, 1] - beta0[..., None] * bd
            ee, ed = _dot(e, e), _dot(e, bd)
        if not np.isfinite(ee).all():  # |e.bd| <= sqrt(ee * rss): ed is finite with ee
            far = np.broadcast_to(beta0, np.shape(ee))[~np.isfinite(ee)][0]
            raise CovarianceError(f"Sigma_hat(beta0) overflows at the null beta0 = {float(far)}")
        return _sym2(ee, ed, self.rss) / self.dof


@dataclass(frozen=True)
class IVDataset:
    """Raw rows: outcome Y (n,), treatment D (n,), instruments Z (n, p),
    optional exogenous covariates X (n, k).  Instances are immutable;
    their moments are prepare's, computed the first time they are read."""

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
        """prepare(self): the Moments of the rows, centered and residualized on X."""
        return prepare(self)


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


def _conditioned(r: np.ndarray, rtol: float) -> bool:
    """Whether r's singular values all exceed rtol times the largest.  The
    Frobenius norms bound the 2-norm condition number from above, so they
    clear a well-conditioned r without a decomposition."""
    try:
        if np.linalg.norm(r) * np.linalg.norm(np.linalg.inv(r)) * rtol < 1.0:
            return True
    except np.linalg.LinAlgError:  # an exactly singular r
        return False
    sv = np.linalg.svd(r, compute_uv=False)
    return bool(sv[-1] > rtol * sv[0])


# Rows of one block: ingest parses, and prepare factors, this many rows at
# a time, so neither holds more and both fold the same blocks into R.
_BLOCK_ROWS = 8192


class _RowFactor:
    """The upper-triangular R of [1 X Z D Y] grown a block of rows at a
    time (sequential TSQR: Demmel, Grigori, Hoemmen and Langou, SIAM J.
    Sci. Comput. 2012), and each X column's range; no row is kept.  Rows
    enter less the first row, which the intercept absorbs: an offset costs
    no digits, and a constant column is exactly zero.  x_labels and
    z_labels name the X and Z columns in rank errors."""

    def __init__(self, x_labels: list[str], z_labels: list[str]):
        k, p = len(x_labels), len(z_labels)
        self.x_labels, self.z_labels, self.k, self.p, self.n = x_labels, z_labels, k, p, 0
        self.r = np.zeros((k + p + 3, k + p + 3))  # square from the start
        self.lo, self.hi = np.full(k, np.inf), np.full(k, -np.inf)

    def add(self, block: np.ndarray) -> None:
        """Fold in a block of rows whose columns are X, Z, D and Y."""
        if self.n == 0:
            self.origin = block[0].copy()
        self.lo = np.minimum(self.lo, block[:, : self.k].min(axis=0, initial=np.inf))
        self.hi = np.maximum(self.hi, block[:, : self.k].max(axis=0, initial=-np.inf))
        rows = np.hstack([np.ones((len(block), 1)), block - self.origin])
        self.r = np.linalg.qr(np.vstack([self.r, rows]), mode="r")
        self.n += len(block)

    def moments(self) -> "Moments":
        """The Moments of [Z D Y] residualized on [1 X], once every rank
        rule has passed.  Constant X columns are dropped by factoring R's
        other columns again."""
        keep = self.hi - self.lo > 1e-12 * np.maximum(np.abs(self.lo), np.abs(self.hi))
        r = self.r
        if not keep.all():
            r = np.linalg.qr(r[:, np.flatnonzero(np.r_[True, keep, np.ones(self.p + 2, bool)])], mode="r")
        k, p = int(keep.sum()), self.p
        if self.n <= p + k + 1:  # the intercept takes a degree of freedom too
            raise DimensionError(f"need n > p + k + 1, got n={self.n}, p={p}, k={k}")
        rx = r[1 : 1 + k, 1 : 1 + k]  # the factor of the centered X, in unit columns:
        rx = rx / np.linalg.norm(rx, axis=0)  # X's units cannot reach its verdict
        if not _conditioned(rx, RANK_RTOL):  # without X, 0 x 0 and conditioned
            raise _rank_error(rx, [self.x_labels[j] for j in np.flatnonzero(keep)], RANK_RTOL)
        # an instrument's centered norm (rows below the intercept) against
        # its residual norm (rows below X)
        z = r[:, 1 + k : 1 + k + p]
        z_res = np.linalg.norm(z[1 + k :], axis=0)
        lost = z_res <= RANK_RTOL * np.linalg.norm(z[1:], axis=0)
        if lost.any():
            raise RankDeficiencyError([self.z_labels[j] for j in np.flatnonzero(lost)])
        try:
            return Moments.of_factor(self.n, r[1 + k :, 1 + k :])
        except RankDeficiencyError:  # at the core's sqrt(RANK_RTOL), on unit-norm columns: no units reach it
            raise _rank_error(z[1 + k : 1 + k + p] / z_res, self.z_labels, RANK_RTOL**0.5) from None


def require_prepared(data: IVDataset | Moments) -> Moments:
    """The Moments of data: a Moments value as is, a row dataset's prepare(data)."""
    return data if isinstance(data, Moments) else data.moments


def prepare(raw: IVDataset) -> Moments:
    """The Moments of (Y, D, Z) with an intercept and X residualized out.

    Centering is equivalent to including an intercept among the exogenous
    covariates, so a constant column in X is redundant but harmless.
    Raises RankDeficiencyError naming the offending columns when X is
    collinear, when residualizing leaves an instrument less than
    RANK_RTOL of its centered norm, or when the moments core cannot
    factor the residualized Z'Z.  Each rule is relative to the columns it
    judges, so rescaling any column of X or of Z changes no verdict.

    The rows go through the blocks of _BLOCK_ROWS that cli.ingest folds
    into R, so the moments equal ingest's on a CSV of the same numbers
    bit for bit, and no more than one block of rows is copied.
    """
    x = np.empty((raw.n, 0)) if raw.X is None else raw.X
    factor = _RowFactor([f"x{j + 1}" for j in range(x.shape[1])], [f"z{j + 1}" for j in range(raw.p)])
    for i in range(0, raw.n, _BLOCK_ROWS):
        factor.add(np.column_stack([a[i : i + _BLOCK_ROWS] for a in (x, raw.Z, raw.D, raw.Y)]))
    return factor.moments()


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


def covariance_estimates(data: IVDataset | Moments, beta0: float) -> np.ndarray:
    """Sigma_hat(beta0) = [Y - D beta0, D]' P_Zperp [Y - D beta0, D] / dof,
    the structural error covariance at the null beta0, once Omega_hat
    (Moments.omega) and the first stage have passed their checks.  An
    array of nulls broadcasts against the batch axis of the moments,
    stacking the matrices (..., 2, 2).

    Omega_hat and Sigma_hat(beta0) are Gram matrices of two columns whose
    determinant is det B, so both are positive definite exactly when det
    Omega_hat, read off B, is positive; Omega_hat's entries would cancel
    once Y carries a large multiple of D.
    """
    m = require_prepared(data)
    if not np.all(m.det_omega > 0):
        raise CovarianceError(
            "Omega_hat is not positive definite: the residuals of Y and D on Z are collinear"
        )
    _require_first_stage(m)
    return m.sigma(beta0)


def tsls_standard_error(data: IVDataset | Moments) -> float:
    """Conventional standard error of the TSLS estimate,
    sqrt(Sigma_hat_11(beta_tsls)) / sqrt(D'P_Z D)."""
    m = require_prepared(data)
    at_beta = covariance_estimates(m, tsls_estimate(m))
    return _item(np.sqrt(at_beta[..., 0, 0] / m.s2))
