"""Test statistics for H0: beta = beta0 and their naive reference laws.

Three statistics: the TSLS Wald statistic (standard normal under strong
instruments), Anderson-Rubin (exact F(p, n-p)), and the conditional
likelihood ratio statistic whose null law given Q_R is evaluated by
quadrature elsewhere.
"""

from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import CovarianceError
from .model import (
    IVDataset,
    ModelEstimates,
    Moments,
    _dot,
    _item,
    _require_first_stage,
    _sym2,
    require_prepared,
)


@dataclass(frozen=True)
class TestValue:
    statistic: float
    beta0: float
    naive_pvalue: float

    def __post_init__(self):
        if not np.all((0.0 <= self.naive_pvalue) & (self.naive_pvalue <= 1.0)):
            raise ValueError(f"p-value {self.naive_pvalue} outside [0, 1]")


@dataclass(frozen=True)
class ClrComponents:
    """Sufficient statistics of the weak-instrument reduced-form model.

    U_hat = L^-1 Ytilde b0 / sqrt(b0' Omega b0)
    R_hat = L^-1 Ytilde Omega^(-1) a0 / sqrt(a0' Omega^(-1) a0)

    with Ytilde = [Z'Y, Z'D], LL' = Z'Z, a0 = (beta0, 1), b0 = (1, -beta0).  Under
    the null U_hat is standard normal and independent of R_hat.
    """

    u_hat: np.ndarray
    r_hat: np.ndarray
    q_hat: np.ndarray  # (..., 2, 2): [[Q_U, Q_UR], [Q_UR, Q_R]] per replication

    @property
    def q_u(self) -> float:
        return _item(self.q_hat[..., 0, 0])

    @property
    def q_ur(self) -> float:
        return _item(self.q_hat[..., 0, 1])

    @property
    def q_r(self) -> float:
        return _item(self.q_hat[..., 1, 1])


def tsls_stat(data: IVDataset | Moments, beta0: float, est: ModelEstimates) -> TestValue:
    """T = D'P_Z(Y - D beta0) / (sqrt(Sigma_11) sqrt(D'P_Z D)), two-sided
    normal p-value.  Sigma_hat must be evaluated at this beta0; an array
    of nulls gives one statistic per null, as in clr_components."""
    m = require_prepared(data)
    _require_first_stage(m)
    s11 = est.sigma_hat[..., 0, 0]
    if np.any(s11 <= 0):
        raise CovarianceError("Sigma_hat_11 must be positive")
    t = (_dot(m.sy, m.s) - beta0 * m.s2) / np.sqrt(s11 * m.s2)
    pval = np.minimum(2.0 * special.ndtr(-np.abs(t)), 1.0)
    return TestValue(
        statistic=_item(t), beta0=_item(np.asarray(beta0, dtype=float)), naive_pvalue=_item(pval)
    )


def ar_stat(data: IVDataset | Moments, beta0: float) -> TestValue:
    """Anderson-Rubin statistic; F(p, n-p) upper-tail p-value regardless
    of instrument strength.  An array of nulls gives one statistic per
    null, as in tsls_stat."""
    m = require_prepared(data)
    n, p = m.n, m.p
    beta0 = np.asarray(beta0, dtype=float)
    pe = m.sy - beta0[..., None] * m.s  # L^-1 Z'(Y - D beta0)
    num = _dot(pe, pe) / p
    den = m.sigma(beta0)[..., 0, 0]  # (Y - D beta0)' P_Zperp (Y - D beta0) / (n - p)
    ee = _dot(pe, pe) + (n - p) * den  # (Y - D beta0)'(Y - D beta0)
    if np.any(den <= 1e-12 * np.maximum(ee, 1e-300)):
        raise CovarianceError("AR denominator is zero: Y - D*beta0 lies in col(Z)")
    stat = num / den
    return TestValue(
        statistic=_item(stat), beta0=_item(beta0), naive_pvalue=_item(special.fdtrc(p, n - p, stat))
    )


def clr_components(data: IVDataset | Moments, beta0: float) -> ClrComponents:
    """U_hat, R_hat, Q_hat with plug-in Omega_hat, all read off the
    moments' residual factor.

    With Sigma = Sigma_hat(beta0), S_e = S_Y - beta0 S and
    det = det Omega_hat = det Sigma, the closed forms are
    U_hat = S_e / sqrt(Sigma_11) and
    R_hat = (S Sigma_11 - S_e Sigma_12) / sqrt(Sigma_11 det).  Neither
    goes through Omega_hat's entries, which cancel once Y carries a large
    multiple of D, so both keep their digits under Y -> Y + bD.  An array
    of nulls broadcasts like a batch axis: many nulls on one dataset, or
    one null per replication of a batch.
    """
    m = require_prepared(data)
    _require_first_stage(m)
    det = m.det_omega
    if np.any(det <= 0):
        raise CovarianceError("Omega_hat is singular")
    sigma = m.sigma(beta0)
    s11, s12 = sigma[..., 0, 0], sigma[..., 0, 1]
    if np.any(s11 <= 0):
        raise CovarianceError("degenerate normalization at this beta0")

    # [..., None] sets each replication's scalar against its (p,) vectors
    s_e = m.sy - np.asarray(beta0)[..., None] * m.s
    u_hat = s_e / np.sqrt(s11)[..., None]
    r_hat = (m.s * s11[..., None] - s_e * s12[..., None]) / np.sqrt(s11 * det)[..., None]
    return ClrComponents(
        u_hat=u_hat,
        r_hat=r_hat,
        q_hat=_sym2(_dot(u_hat, u_hat), _dot(u_hat, r_hat), _dot(r_hat, r_hat)),
    )


def clr_statistic_from_q(q_u, q_ur, q_r):
    """LR = 0.5 * (Q_U - Q_R + sqrt(disc)) with disc = (Q_U - Q_R)^2 +
    4 Q_UR^2, elementwise over arrays of replications.  Where Q_R >= Q_U
    that sum cancels, so LR is read as 2 Q_UR^2 / (sqrt(disc) + Q_R - Q_U),
    the same number; both forms are >= 0."""
    gap = q_u - q_r
    root = np.sqrt(gap**2 + 4.0 * q_ur**2)
    # the denominator is only read where it is root + |gap| > 0
    return _item(np.where(gap < 0, 2.0 * q_ur**2 / np.where(gap < 0, root - gap, 1.0), 0.5 * (gap + root)))


def clr_statistics(data: IVDataset | Moments, beta0s) -> tuple[np.ndarray, np.ndarray]:
    """LR statistic and Q_R at each null of beta0s, ready for one batched
    clr_tails call."""
    comps = clr_components(data, np.asarray(beta0s, dtype=float))
    return clr_statistic_from_q(comps.q_u, comps.q_ur, comps.q_r), comps.q_r
