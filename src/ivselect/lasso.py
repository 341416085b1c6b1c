"""Randomized-Lasso instrument selection and conditional inference on
the selected support and signs.

Selection solves min 0.5 ||D - Z g||^2 + lam ||g||_1 - omega' g.  Its
solver and default penalty read only Z'Z, Z'D, D'D and RSS, so a Moments
value, or a row m[i] of a batch, selects as its dataset does.  The
stationarity condition -Z'(D - Z g) + lam u = omega turns the selection
event into sign constraints on g_E and a box on u_{-E}, so the
conditional null law of the post-selection TSLS statistic T lives on
(T, g_E, u_{-E}) with the randomization density evaluated at a linear
function of the state.  With Gaussian randomization that law is a
full-rank Gaussian truncated to a box on which T is free.  The engine
integrates it without a Markov chain: sequential conditioning (Genz
1992) draws (g_E, u_{-E}) over one scrambled Sobol point set, one
inverse-CDF step of sampler._truncnorm_ppf per coordinate, and T's
tail given the rest is a closed-form normal tail.  Every p-value is
then a deterministic, smooth function of the law and the seed; the
tests check the engine against i.i.d. rejection draws from the same
Gaussian, kept where they land in the box.

The post-selection statistic and its covariance with Z'D use the
selected instruments' projector.  A LassoLaw follows the batch
convention of model.Moments: an array of tested nulls gives one law
whose fields carry the null axis, and the engine integrates all of its
laws in one call.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BranchError, ConvergenceError, SamplerError
from .model import IVDataset, Moments, covariance_estimates, require_prepared
from .pretest import RandomizationLaw
from .report import InferenceReport, answer, build_report
from .sampler import (
    SamplerConfig,
    _col,
    _generator,
    _truncnorm_ppf,
    sobol_sets,
    wald_answer,
)
from .teststats import _tsls_t

# duality-gap tolerance relative to D'D, so the stopping rule does not
# depend on the units of D: about 450 ulps of D'D, above the gap's rounding floor
_GAP_RTOL = 1e-13
_PENALTY_SIMS = 200
_PENALTY_MULT = 1.1
_MAX_SWEEPS = 100000
_QMC_SCRAMBLES = 8
# QMC points per law without a SamplerConfig, whose default was sized for
# Gibbs draws: qmc_se stays below 1e-3 on n = 1000, p = 10 designs
_QMC_POINTS = 1024
# laws times points held at once by the QMC engine
_QMC_CHUNK = 1 << 14


def _require_penalty(lambda_l) -> None:
    if not (math.isfinite(lambda_l) and lambda_l > 0):
        raise ValueError(f"lambda_l = {lambda_l}: the penalty must be finite and positive")


@dataclass(frozen=True)
class LassoSelection:
    """Solution and selection event of the randomized Lasso.  The
    support E, its signs and the off-support indices are read off
    gamma_l's nonzero and zero entries."""

    lambda_l: float
    omega: np.ndarray
    gamma_l: np.ndarray
    subgradient_u: np.ndarray
    scale: Optional[float] = None

    def __post_init__(self):
        for name in ("omega", "gamma_l", "subgradient_u"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        _require_penalty(self.lambda_l)
        p = self.omega.size
        if self.gamma_l.size != p or self.subgradient_u.size != p:
            raise ValueError("omega, gamma_l, subgradient_u must share length p")
        if np.any(self.subgradient_u[list(self.support_E)] != self.signs_sE):
            raise ValueError("subgradient must equal the signs on the support")
        if np.any(np.abs(self.subgradient_u[self.off_support]) > 1.0 + 1e-8):
            raise ValueError("off-support subgradient exceeds the unit box")

    @property
    def support_E(self) -> tuple:
        return tuple(int(j) for j in np.flatnonzero(self.gamma_l))

    @property
    def signs_sE(self) -> np.ndarray:
        return np.sign(self.gamma_l[list(self.support_E)])

    @property
    def off_support(self) -> np.ndarray:
        return np.flatnonzero(self.gamma_l == 0.0)


def _dual_gap(m: Moments, omega, lam, gamma, grad):
    """Duality gap of the randomized Lasso at gamma, grad = Z'resid.

    Dual point s * resid with s chosen feasible for the box constraint
    |(Z'theta + omega)_j| <= lam and as close to 1 as allowed, and
    ||resid||^2 = D'D - gamma'(Z'D + grad).  The box carries a
    machine-precision margin: at the solution every active coordinate
    sits exactly on its boundary, and without the margin the intersection
    of the per-coordinate s-intervals can round to empty."""
    dd = float(m.dd)
    rr = dd - float(gamma @ (m.ztd + grad))
    primal = 0.5 * rr + lam * float(np.abs(gamma).sum()) - float(omega @ gamma)
    wide = lam + 1e-12 * (lam + float(np.abs(omega).max()) + float(np.abs(grad).max()))
    moving = grad != 0
    if np.any(np.abs(omega[~moving]) > wide):
        return math.inf
    ends = np.stack([-wide - omega[moving], wide - omega[moving]]) / grad[moving]
    s_lo = float(np.max(ends.min(axis=0), initial=-math.inf))
    s_hi = float(np.min(ends.max(axis=0), initial=math.inf))
    if s_lo > s_hi:
        return math.inf
    s = min(max(1.0, s_lo), s_hi)
    # the dual value is s resid'D - s^2 ||resid||^2 / 2, with resid'D = D'D - gamma'Z'D
    return primal - s * (dd - float(gamma @ m.ztd)) + 0.5 * s * s * rr


def solve_randomized_lasso(
    data: IVDataset | Moments, lambda_l: float, law: RandomizationLaw
) -> LassoSelection:
    """Covariance-update coordinate descent (Friedman, Hastie & Tibshirani,
    J. Stat. Softw. 2010) to duality gap < 1e-13 D'D, then the selection
    event (support, signs, subgradient) read off the stationarity
    condition u = (omega + Z'resid) / lambda_l.  Z'resid = Z'D - Z'Z gamma
    moves by one column of Z'Z per changed coordinate, and is recomputed
    before each gap check, so the stopping rule never reads drift."""
    m = require_prepared(data)
    _require_penalty(lambda_l)
    ztz, ztd, p = m.ztz, m.ztd, m.p
    omega = law.draw(p)
    col_norm2 = np.diagonal(ztz)
    gamma, grad = np.zeros(p), ztd.copy()
    gap, tol = math.inf, _GAP_RTOL * float(m.dd)
    for sweep in range(_MAX_SWEEPS):
        for j in range(p):
            old = gamma[j]
            rho = grad[j] + col_norm2[j] * old + omega[j]
            new = math.copysign(max(abs(rho) - lambda_l, 0.0), rho) / col_norm2[j]
            if new != old:
                grad += ztz[:, j] * (old - new)
                gamma[j] = new
        if sweep % 4 == 3 or sweep == 0:
            grad = ztd - ztz @ gamma
            gap = _dual_gap(m, omega, lambda_l, gamma, grad)
            if gap < tol:
                break
    else:
        raise ConvergenceError(
            f"coordinate descent stopped at duality gap {gap:.3g} "
            f"after {_MAX_SWEEPS} sweeps"
        )
    u = np.where(gamma != 0.0, np.sign(gamma), np.clip((omega + grad) / lambda_l, -1.0, 1.0))
    return LassoSelection(
        lambda_l=float(lambda_l), omega=omega, gamma_l=gamma, subgradient_u=u, scale=law.scale
    )


def default_lasso_penalty(data: IVDataset | Moments, seed: int = 0) -> float:
    """1.1 times the median of ||Z'e||_inf over 200 Gaussian errors e ~
    N(0, sigma_hat^2 I), sigma_hat^2 = Omega_hat_22 = RSS / dof: large
    enough that pure-noise instruments are usually dropped, small enough
    that selection stays non-trivial.  Each draw is sigma_hat ||L xi||_inf,
    L L' = Z'Z, xi ~ N(0, I) (Lee, Sun, Sun & Taylor, Ann. Statist. 2016)."""
    m = require_prepared(data)
    sigma = math.sqrt(m.omega[1, 1])
    xi = _generator(seed, 11).standard_normal((_PENALTY_SIMS, m.p))
    vals = np.abs(xi @ m.chol.T).max(axis=1)
    lam = _PENALTY_MULT * sigma * float(np.median(vals))
    if lam <= 0:
        raise ValueError("degenerate penalty: first-stage residuals are zero")
    return lam


def default_lasso_scale(data: IVDataset | Moments) -> float:
    """Randomization spread for the Lasso objective: half the typical
    noise scale of a Z'D coordinate (error sd times mean column norm)."""
    m = require_prepared(data)
    sig2 = math.sqrt(m.omega[1, 1])
    mean_col = float(np.mean(np.diagonal(m.ztz)))
    scale = 0.5 * sig2 * math.sqrt(mean_col)
    if scale <= 0:
        raise ValueError("degenerate design: zero first-stage noise scale")
    return scale


@dataclass(frozen=True)
class LassoLaw:
    """Conditional law of (T, gamma_E, u_{-E}) given the selection event,
    under Gaussian randomization of scale gaussian_scale.

    The randomization argument is cols @ theta + base with theta the
    state stacked as [T, gamma_E, u_{-E}]; constraints are sign orthants
    on gamma_E and the unit box on u_{-E}.  Of the observed state only
    t_obs is kept: the engine integrates (gamma_E, u_{-E}) out and needs
    no start.  One value holds one law or a batch of laws, one per tested
    null or replication: t_obs carries the batch shape, and every other
    field may carry it in front of its own axes."""

    cols: np.ndarray  # (..., p, q) with q = 1 + |E| + (p - |E|)
    base: np.ndarray  # (..., p)
    lower: np.ndarray  # (..., q) state bounds
    upper: np.ndarray  # (..., q)
    gaussian_scale: float
    t_obs: float

    def __post_init__(self):
        if not np.all(np.asarray(self.gaussian_scale, dtype=float) > 0):
            raise SamplerError("the selection law needs a positive Gaussian randomization scale")


def build_law_lasso(
    data: IVDataset | Moments, beta0: float, sel: LassoSelection, est: np.ndarray
) -> LassoLaw:
    """Assemble the selection-event law for testing beta = beta0.  est
    is Sigma_hat evaluated at this beta0.

    An array of nulls with their estimates gives one LassoLaw whose
    cols, base and t_obs carry the null axis; the bounds and
    the scale do not depend on the null.  One null gives a scalar t_obs,
    (p, q) cols and (q,) vectors."""
    m = require_prepared(data)
    if not sel.support_E:
        raise BranchError("empty support: no instruments selected")
    p = m.p
    e_idx = list(sel.support_E)
    n_e = len(e_idx)
    off = sel.off_support
    m_e = m.select(e_idx)
    s11, s12 = est[..., 0, 0], est[..., 0, 1]
    d_pe_d = float(m_e.s2)
    if d_pe_d <= 0:
        raise BranchError("selected instruments carry no first-stage signal")
    # Z'P_E D = Z'Z_E (Z_E'Z_E)^(-1) Z_E'D
    z_pe_d = m.ztz[:, e_idx] @ m_e.gamma_hat
    w_st = _col(s12) * z_pe_d / _col(np.sqrt(s11 * d_pe_d))
    t_obs = _tsls_t(m_e, beta0, est)
    shape = np.shape(t_obs)

    q = 1 + p
    cols = np.zeros(shape + (p, q))
    cols[..., 0] = -w_st
    cols[..., 1:1 + n_e] = m.ztz[:, e_idx]
    cols[..., off, 1 + n_e + np.arange(off.size)] = sel.lambda_l

    base = -(m.ztd - w_st * _col(t_obs))
    base[..., e_idx] += sel.lambda_l * sel.signs_sE

    lower = np.full(q, -np.inf)
    upper = np.full(q, np.inf)
    positive = sel.signs_sE > 0
    lower[1:1 + n_e][positive] = 0.0
    upper[1:1 + n_e][~positive] = 0.0
    lower[1 + n_e:] = -1.0
    upper[1 + n_e:] = 1.0
    return LassoLaw(
        cols=cols,
        base=base,
        lower=lower,
        upper=upper,
        gaussian_scale=sel.scale,
        t_obs=t_obs,
    )


def _law_rows(law: LassoLaw, v, *tail):
    """A field v of a law or a batch of laws, one row per law: (m,) + tail."""
    return np.broadcast_to(v, np.shape(law.t_obs) + tail).reshape((-1,) + tail)


def _qmc_tails(u, t_obs, mean, chol, slope, prec_t, lower, upper):
    """Upper and lower tails of T at t_obs for m laws over the points
    u, (p, N) shared by the laws or (p, m, N) one set per law.  mean:
    (m, 1 + p), the mean of (T, r); chol: (m, p, p), the Cholesky factor
    of Sigma_rr; slope: (m, p), the change of T's conditional mean per
    unit of z; prec_t: (m,), Q_TT; lower, upper: (m, p), the bounds of r."""
    from scipy import special  # deferred: _truncnorm_ppf loads it on this path anyway

    p, n = u.shape[0], u.shape[-1]
    z = np.empty((p, t_obs.size, n))
    log_w = np.zeros(z.shape[1:])
    t_mean = mean[:, :1]
    for k in range(p):
        shift = mean[:, 1 + k, None] + sum(chol[:, k, j, None] * z[j] for j in range(k))
        sd = chol[:, k, k, None]
        z[k], log_mass = _truncnorm_ppf(
            u[k], (lower[:, k, None] - shift) / sd, (upper[:, k, None] - shift) / sd
        )
        log_w += log_mass
        t_mean = t_mean + slope[:, k, None] * z[k]
    w = np.exp(log_w - log_w.max(axis=1, keepdims=True))
    dist = (t_obs[:, None] - t_mean) * np.sqrt(prec_t)[:, None]
    den = w.sum(axis=1)
    return (w * special.ndtr(-dist)).sum(axis=1) / den, (w * special.ndtr(dist)).sum(axis=1) / den


def _pooled_lasso_pvalues(law: LassoLaw, points: np.ndarray):
    """Upper and two-sided p-values of a selection law, or of each law of
    a batch at its own t_obs, by sequential conditioning over the QMC
    points of sampler.sobol_sets: one (N, p) set for every law, or an
    (m, N, p) stack with one set per law of a flat batch of m.  The
    p-values take the law's batch shape; each law's value depends only on
    that law and its points.

    The state theta = (T, r), r = (gamma_E, u_{-E}), has density
    exp(-theta'Q theta / 2 + h'theta) on its box, with precision
    Q = e0 e0' + cols'cols / c^2 and h = -cols'base / c^2.  T is free, so
    r is N(mu_r, Sigma_rr) truncated to its box.  Each point draws r
    coordinate by coordinate through the Cholesky factor of Sigma_rr, one
    inverse-CDF step within the bounds the earlier coordinates leave, and
    is weighted by the product of those bounds' masses (Genz 1992).
    Given r, T is N((h_T - Q_Tr r) / Q_TT, 1 / Q_TT), so each point
    contributes T's tails at t_obs in closed form.  Laws are taken
    _QMC_CHUNK // N at a time, which bounds the working set."""
    p, q = law.cols.shape[-2:]
    cols, base = _law_rows(law, law.cols, p, q), _law_rows(law, law.base, p)
    c2 = _law_rows(law, law.gaussian_scale) ** 2
    cols_t = np.swapaxes(cols, 1, 2)
    prec = cols_t @ cols / c2[:, None, None]
    prec[:, 0, 0] += 1.0
    cov = np.linalg.inv(prec)
    mean = (cov @ (cols_t @ base[:, :, None]))[..., 0] / -c2[:, None]
    chol = np.linalg.cholesky(cov[:, 1:, 1:])
    # T given r = mean_r + chol z is N(mean_T + slope'z, 1 / Q_TT)
    slope = (np.swapaxes(chol, 1, 2) @ prec[:, 1:, :1])[..., 0] / -prec[:, :1, 0]
    arrays = (
        _law_rows(law, law.t_obs), mean, chol, slope, prec[:, 0, 0],
        _law_rows(law, law.lower, q)[:, 1:], _law_rows(law, law.upper, q)[:, 1:],
    )
    step = max(1, _QMC_CHUNK // points.shape[-2])
    tails = [
        _qmc_tails(np.moveaxis(points if points.ndim == 2 else points[at:at + step], -1, 0),
                   *(v[at:at + step] for v in arrays))
        for at in range(0, arrays[0].size, step)
    ]
    ge, le = (np.concatenate(t).reshape(np.shape(law.t_obs)) for t in zip(*tails))
    return ge, np.minimum(1.0, 2.0 * np.minimum(ge, le))


def lasso_conditional_inference(
    data: IVDataset | Moments,
    beta0: float,
    sel: LassoSelection,
    config: SamplerConfig = None,
    alpha: float = 0.05,
) -> InferenceReport:
    """Conditional p-value and confidence interval for the treatment
    effect after Lasso instrument selection, with the usual
    selected-instrument TSLS results as the naive reference.

    Each grid round builds the laws of all its nulls in one call and
    runs them through the QMC engine in one call; beta0 leads the first
    round.  Every law is integrated over one scrambled Sobol set of
    config.n_samples points (rounded up to a power of two; 1024 without a
    config) keyed by config.seed, so the p-value curve is a
    deterministic, smooth function of beta0, and the p-value reported at
    beta0 is the curve's value there.  diagnostics["qmc_se"] is the
    spread of that p-value over _QMC_SCRAMBLES independent scrambles, the
    first of them the grid's; the other _QMC_SCRAMBLES - 1 integrate
    beta0's law as one batch, each copy over its own scramble, so a
    bounded answer makes three engine calls.  All _QMC_SCRAMBLES point
    sets come from one sampler.sobol_sets call.  An empty support is
    refused (BranchError) before the grid is read."""
    m = require_prepared(data)
    config = config if config is not None else SamplerConfig(n_samples=_QMC_POINTS)
    sets = sobol_sets(config, m.p, range(_QMC_SCRAMBLES))

    def laws(xs):
        return build_law_lasso(m, xs, sel, covariance_estimates(m, xs))

    # built first, so build_law_lasso refuses an empty support before any grid work
    at_beta0 = laws(np.full(_QMC_SCRAMBLES - 1, float(beta0)))
    sub = m.select(sel.support_E)
    cond = answer(lambda xs: (_pooled_lasso_pvalues(laws(xs), sets[0])[1],), sub, beta0, alpha)
    scrambles = [cond.pvalue, *_pooled_lasso_pvalues(at_beta0, sets[1:])[1]]
    return build_report(
        beta0, alpha, "lasso", wald_answer(sub, beta0, alpha), cond,
        support=list(sel.support_E),
        signs=sel.signs_sE,
        lambda_l=sel.lambda_l,
        qmc_points=sets.shape[1],
        qmc_se=float(np.std(scrambles, ddof=1)),
    )
