"""Test statistics for H0: beta = beta0 and their naive reference laws.

Three statistics: the TSLS Wald statistic (standard normal under strong
instruments), Anderson-Rubin (exact F(p, dof)), and the conditional
likelihood ratio statistic whose null law given Q_R is evaluated by
quadrature elsewhere.  The normal and chi2(p) tails of the statistics and
the exact engines are computed here in numpy, without scipy.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import CovarianceError
from .model import (
    IVDataset,
    Moments,
    _dot,
    _item,
    _require_first_stage,
    require_prepared,
)


# cephes' ndtr coefficients: erf(x) = x T(x^2) / U(x^2) for x < 1, and
# erfc(x) = exp(-x^2) P(x) / Q(x) for 1 <= x < 8, R(x) / S(x) beyond
_ERF_T = (9.604973739870516, 90.02601972038427, 2232.005345946843, 7003.325141128051, 55592.30130103949)
_ERF_U = (1.0, 33.56171416475031, 521.3579497801527, 4594.323829709801, 22629.000061389095, 49267.39426086359)
_ERFC_P = (2.461969814735305e-10, 0.5641895648310689, 7.463210564422699, 48.63719709856814, 196.5208329560771,
           526.4451949954773, 934.5285271719576, 1027.5518868951572, 557.5353353693994)
_ERFC_Q = (1.0, 13.228195115474499, 86.70721408859897, 354.9377788878199, 975.7085017432055, 1823.9091668790973,
           2246.3376081871097, 1656.6630919416134, 557.5353408177277)
_ERFC_R = (0.5641895835477551, 1.275366707599781, 5.019050422511805, 6.160210979930536, 7.4097426995044895,
           2.9788666537210022)
_ERFC_S = (1.0, 2.2605286322011726, 9.396035249380015, 12.048953980809666, 17.08144507475659, 9.608968090632859,
           3.369076451000815)
# _normal_tails and _chi2_tails work through blocks of this many values:
# their temporaries stay in cache and off fresh pages, which cost more than
# the arithmetic
_TAIL_BLOCK = 8192
# a series or Poisson sum stops once its terms fall below this share of it
_SUM_EPS = 2.0**-56


def _poly(coefs, x):
    """Horner's rule for coefs, highest degree first, at x."""
    out = np.multiply(x, coefs[0])
    out += coefs[1]
    for c in coefs[2:]:
        out *= x
        out += c
    return out


def _normal_tails(z):
    """(Phi(-z), Phi(z)), elementwise.  The smaller tail is 0.5 erfc(x),
    x = |z| / sqrt 2, by cephes' rational approximations, the larger 1 minus
    it (0.5 +- 0.5 erf(x) below x = 1).  Beyond x = 8, exp(-z^2 / 2) is the
    exact exp(-m^2 / 2), m = |z| rounded to 1/128, times exp(-f (m + f / 2)),
    f = |z| - m, so the tail keeps full relative precision down to 1e-300;
    past |z| = 40 it is 0.  NaN stays NaN."""
    z = np.asarray(z, dtype=float)
    flat = z.reshape(-1)
    upper, lower = np.empty(flat.shape), np.empty(flat.shape)
    for at in range(0, flat.size, _TAIL_BLOCK):
        block = flat[at : at + _TAIL_BLOCK]
        x = np.abs(block) * math.sqrt(0.5)
        small = np.empty(block.shape)
        mid, far = x < 1.0, ~(x < 8.0)
        near = ~(mid | far)
        xm, xn, af = x[mid], x[near], np.minimum(np.abs(block[far]), 40.0)
        if xm.size:
            half_erf = 0.5 * (xm * _poly(_ERF_T, xm * xm) / _poly(_ERF_U, xm * xm))
            small[mid] = 0.5 - half_erf
        if xn.size:
            small[near] = 0.5 * (np.exp(-xn * xn) * _poly(_ERFC_P, xn) / _poly(_ERFC_Q, xn))
        if af.size:
            m = np.round(af * 128.0) / 128.0
            f, xf = af - m, af * math.sqrt(0.5)
            e = np.exp(-f * (m + 0.5 * f)) * np.exp(-0.5 * m * m)
            small[far] = 0.5 * (e * _poly(_ERFC_R, xf) / _poly(_ERFC_S, xf))
        big = 1.0 - small
        if xm.size:
            big[mid] = 0.5 + half_erf
        pos = block > 0.0  # at z = 0 and NaN both tails are equal
        upper[at : at + _TAIL_BLOCK] = np.where(pos, small, big)
        lower[at : at + _TAIL_BLOCK] = np.where(pos, big, small)
    return upper.reshape(z.shape), lower.reshape(z.shape)


def _chi2_tails(p: int, x):
    """(cdf, sf) of chi2(p) at x >= 0, elementwise, for integer p.  Below the
    mean (x < p) the cdf is the lower incomplete gamma series, summed until
    its terms are negligible.  At or above it the sf is the finite Poisson
    sum e^-y sum y^(k+r) / Gamma(k+r+1) over k < floor(p/2), y = x / 2,
    r = p/2 - floor(p/2), plus erfc(sqrt y) for odd p, summed down from its
    largest, last term, taken in logs, so no term underflows before the sum
    does.  The other tail is 1 minus that one, which is at least 0.3 on its
    side of the mean.  x = 0 and x = inf give exact 0 and 1.  Blocks of
    _TAIL_BLOCK values are summed one at a time, so the temporaries do not
    grow with x; both sums' terms fall, and a term below _SUM_EPS of its
    sum leaves it unchanged, so a block's values are those of one pass."""
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    a = 0.5 * p
    cdf, sf = np.empty(flat.shape), np.empty(flat.shape)
    for at in range(0, flat.size, _TAIL_BLOCK):
        y = 0.5 * flat[at : at + _TAIL_BLOCK]
        low, block_cdf, block_sf = y < a, cdf[at : at + _TAIL_BLOCK], sf[at : at + _TAIL_BLOCK]
        yl = y[low]
        with np.errstate(divide="ignore"):
            total = np.exp(a * np.log(yl) - yl - math.lgamma(a + 1.0))
        term, k = total.copy(), a
        while np.any(term > _SUM_EPS * total):
            k += 1.0
            term *= yl / k
            total += term
        block_cdf[low], block_sf[low] = total, 1.0 - total
        yu = np.minimum(y[~low], 1e300)
        total = 2.0 * _normal_tails(np.sqrt(2.0 * yu))[0] if p % 2 else np.zeros(yu.shape)
        if a >= 1.0:
            term, k = np.exp((a - 1.0) * np.log(yu) - yu - math.lgamma(a)), a - 1.0
            total += term
            while k >= 1.0 and np.any(term > _SUM_EPS * total):
                term *= k / yu
                total += term
                k -= 1.0
        block_sf[~low], block_cdf[~low] = total, 1.0 - total
    return cdf.reshape(x.shape), sf.reshape(x.shape)


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
    the null U_hat is standard normal and independent of R_hat.  Q_U =
    U'U, Q_UR = U'R and Q_R = R'R are one number per replication.
    """

    u_hat: np.ndarray
    r_hat: np.ndarray
    q_u: float
    q_ur: float
    q_r: float


def _tsls_t(data: IVDataset | Moments, beta0: float, est: np.ndarray):
    """T = D'P_Z(Y - D beta0) / (sqrt(Sigma_11) sqrt(D'P_Z D)), without
    its p-value: tsls_stat's statistic, and the t_obs of the conditional
    laws.  est is Sigma_hat evaluated at this beta0; an array of nulls
    gives one statistic per null, as in clr_components."""
    m = require_prepared(data)
    _require_first_stage(m)
    s11 = est[..., 0, 0]
    if np.any(s11 <= 0):
        raise CovarianceError("Sigma_hat_11 must be positive")
    return _item((_dot(m.sy, m.s) - beta0 * m.s2) / np.sqrt(s11 * m.s2))


def tsls_stat(data: IVDataset | Moments, beta0: float, est: np.ndarray) -> TestValue:
    """_tsls_t's T and its two-sided normal p-value.  est is Sigma_hat
    evaluated at this beta0; an array of nulls gives one statistic per
    null, as in clr_components."""
    t = _tsls_t(data, beta0, est)
    pval = np.minimum(2.0 * _normal_tails(np.abs(t))[0], 1.0)
    return TestValue(statistic=t, beta0=_item(np.asarray(beta0, dtype=float)), naive_pvalue=_item(pval))


def ar_stat(data: IVDataset | Moments, beta0: float) -> TestValue:
    """Anderson-Rubin statistic; F(p, dof) upper-tail p-value regardless
    of instrument strength.  An array of nulls gives one statistic per
    null, as in tsls_stat."""
    from scipy import special  # deferred: only --test ar reads the F tail

    m = require_prepared(data)
    p, dof = m.p, m.dof
    beta0 = np.asarray(beta0, dtype=float)
    pe = m.sy - beta0[..., None] * m.s  # L^-1 Z'(Y - D beta0)
    num = _dot(pe, pe) / p
    den = m.sigma(beta0)[..., 0, 0]  # (Y - D beta0)' P_Zperp (Y - D beta0) / dof
    ee = _dot(pe, pe) + dof * den  # (Y - D beta0)'(Y - D beta0)
    if np.any(den <= 1e-12 * np.maximum(ee, 1e-300)):
        raise CovarianceError("AR denominator is zero: Y - D*beta0 lies in col(Z)")
    stat = num / den
    return TestValue(
        statistic=_item(stat), beta0=_item(beta0), naive_pvalue=_item(special.fdtrc(p, dof, stat))
    )


def clr_components(data: IVDataset | Moments, beta0: float) -> ClrComponents:
    """U_hat, R_hat and their Q_U, Q_UR, Q_R with plug-in Omega_hat, all
    read off the moments' residual factor.

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
        q_u=_item(_dot(u_hat, u_hat)),
        q_ur=_item(_dot(u_hat, r_hat)),
        q_r=_item(_dot(r_hat, r_hat)),
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
