"""Test statistics for H0: beta = beta0 and their naive reference laws.

Three statistics: the TSLS Wald statistic (standard normal under strong
instruments), Anderson-Rubin (exact F(p, n-p)), and the conditional
likelihood ratio statistic whose null law given Q_R is evaluated by
quadrature elsewhere.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import stats

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


class StatKind(Enum):
    TSLS = "tsls"
    AR = "ar"
    CLR = "clr"


@dataclass(frozen=True)
class TestValue:
    statistic: float
    kind: StatKind
    beta0: float
    naive_pvalue: float

    def __post_init__(self):
        if not np.all((0.0 <= self.naive_pvalue) & (self.naive_pvalue <= 1.0)):
            raise ValueError(f"p-value {self.naive_pvalue} outside [0, 1]")


@dataclass(frozen=True)
class ClrComponents:
    """Sufficient statistics of the weak-instrument reduced-form model.

    U_hat = (Z'Z)^(-1/2) Ytilde b0 / sqrt(b0' Omega b0)
    R_hat = (Z'Z)^(-1/2) Ytilde Omega^(-1) a0 / sqrt(a0' Omega^(-1) a0)

    with Ytilde = [Z'Y, Z'D], a0 = (beta0, 1), b0 = (1, -beta0).  Under
    the null U_hat is standard normal and independent of R_hat.
    """

    u_hat: np.ndarray
    r_hat: np.ndarray
    q_hat: np.ndarray  # (..., 2, 2): [[Q_U, Q_UR], [Q_UR, Q_R]] per replication
    a0: np.ndarray
    b0: np.ndarray

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
    pval = np.minimum(2.0 * stats.norm.sf(np.abs(t)), 1.0)
    return TestValue(
        statistic=_item(t), kind=StatKind.TSLS, beta0=_item(np.asarray(beta0, dtype=float)),
        naive_pvalue=_item(pval),
    )


def ar_stat(data: IVDataset | Moments, beta0: float) -> TestValue:
    """Anderson-Rubin statistic; F(p, n-p) upper-tail p-value regardless
    of instrument strength."""
    m = require_prepared(data)
    n, p = m.n, m.p
    pe = m.sy - beta0 * m.s  # (Z'Z)^(-1/2) Z'(Y - D beta0)
    num = _dot(pe, pe) / p
    den = m.sigma(beta0)[..., 0, 0]  # (Y - D beta0)' P_Zperp (Y - D beta0) / (n - p)
    ee = m.yy - 2.0 * beta0 * m.yd + beta0**2 * m.dd
    if np.any(den <= 1e-12 * np.maximum(ee, 1e-300)):
        raise CovarianceError("AR denominator is zero: Y - D*beta0 lies in col(Z)")
    stat = num / den
    return TestValue(
        statistic=_item(stat),
        kind=StatKind.AR,
        beta0=float(beta0),
        naive_pvalue=_item(stats.f.sf(stat, p, n - p)),
    )


def clr_components(data: IVDataset | Moments, beta0: float, est: ModelEstimates) -> ClrComponents:
    """U_hat, R_hat, Q_hat with plug-in Omega_hat.

    The 2x2 normalizations use closed forms: with omega = Omega_hat,
    b0'omega b0 = o11 - 2 beta0 o12 + beta0^2 o22 and
    a0'omega^(-1) a0 = b0'omega b0 / det(omega).  An array of nulls
    broadcasts like a batch axis: many nulls on one dataset, or one null
    per replication of a batch.
    """
    m = require_prepared(data)
    o = est.omega_hat
    o00, o01, o11 = o[..., 0, 0], o[..., 0, 1], o[..., 1, 1]
    det = o00 * o11 - o01**2
    if np.any(det <= 0):
        raise CovarianceError("Omega_hat is singular")
    b_quad = o00 - 2 * beta0 * o01 + beta0**2 * o11
    a_quad = b_quad / det
    if np.any(b_quad <= 0) or np.any(a_quad <= 0):
        raise CovarianceError("degenerate normalization at this beta0")

    # [..., None] sets each replication's scalar against its (p,) vectors
    u_hat = (m.sy - np.asarray(beta0)[..., None] * m.s) / np.sqrt(b_quad)[..., None]
    # omega^(-1) a0 = (o22*beta0 - o12, o11 - o12*beta0) / det
    w1 = (o11 * beta0 - o01) / det
    w2 = (o00 - o01 * beta0) / det
    r_hat = (m.sy * w1[..., None] + m.s * w2[..., None]) / np.sqrt(a_quad)[..., None]
    return ClrComponents(
        u_hat=u_hat,
        r_hat=r_hat,
        q_hat=_sym2(_dot(u_hat, u_hat), _dot(u_hat, r_hat), _dot(r_hat, r_hat)),
        a0=np.stack(np.broadcast_arrays(beta0, 1.0), -1),
        b0=np.stack(np.broadcast_arrays(1.0, -beta0), -1),
    )


def clr_statistic_from_q(q_u, q_ur, q_r):
    """LR = 0.5 * (Q_U - Q_R + sqrt((Q_U + Q_R)^2 - 4(Q_U Q_R - Q_UR^2))),
    elementwise over arrays of replications."""
    disc = (q_u + q_r) ** 2 - 4.0 * (q_u * q_r - q_ur**2)
    # PSD of Q guarantees disc >= (q_u - q_r)^2; clip rounding noise
    return _item(np.maximum(0.5 * (q_u - q_r + np.sqrt(np.maximum(disc, 0.0))), 0.0))


def clr_statistics(
    data: IVDataset | Moments, beta0s, est: ModelEstimates
) -> tuple[np.ndarray, np.ndarray]:
    """LR statistic and Q_R at each null of beta0s, ready for one batched
    clr_tails call; est supplies only Omega_hat, which does not depend on
    the null."""
    comps = clr_components(data, np.asarray(beta0s, dtype=float), est)
    return clr_statistic_from_q(comps.q_u, comps.q_ur, comps.q_r), comps.q_r


def clr_stat(
    data: IVDataset, beta0: float, est: ModelEstimates
) -> tuple[TestValue, ClrComponents]:
    """CLR statistic and components; naive p-value is the tail of the
    null law given Q_R with no selection truncation."""
    comps = clr_components(data, beta0, est)
    lr = clr_statistic_from_q(comps.q_u, comps.q_ur, comps.q_r)
    from .clr import QuadratureConfig, clr_tail  # deferred: clr imports this module

    pval = clr_tail(lr, comps.q_r, data.p, trunc=None, quad=QuadratureConfig())
    tv = TestValue(
        statistic=lr, kind=StatKind.CLR, beta0=float(beta0), naive_pvalue=pval
    )
    return tv, comps
