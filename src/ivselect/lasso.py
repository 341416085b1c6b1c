"""Randomized-Lasso instrument selection and conditional inference on
the selected support and signs.

Selection solves min 0.5 ||D - Z g||^2 + lam ||g||_1 - omega' g.  Its
stationarity condition -Z'(D - Z g) + lam u = omega turns the selection
event into sign constraints on g_E and a box on u_{-E}, so the
conditional null law of the post-selection TSLS statistic T lives on
(T, g_E, u_{-E}) with the randomization density evaluated at a linear
function of the state.  With Gaussian randomization every coordinate's
full conditional is an exact (truncated) normal, so the engine is exact
coordinate Gibbs: each constrained coordinate is one inverse-CDF draw
from sampler._truncnorm_ppf, vectorized over laws and chains.

The post-selection statistic and its covariance with Z'D use the
selected instruments' projector.  A LassoLaw follows the batch
convention of model.Moments: an array of tested nulls gives one law
whose fields carry the null axis, and the engine samples all of its
laws in one call.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BranchError, ConvergenceError, SamplerError
from .model import (
    IVDataset,
    ModelEstimates,
    Moments,
    covariance_estimates,
    require_prepared,
    tsls_estimate,
    tsls_standard_error,
)
from .pretest import RandomizationLaw
from .report import InferenceReport, invert_pvalue_curve
from .sampler import SamplerConfig, _col, _generator, _truncnorm_ppf, wald_interval
from .teststats import tsls_stat

# duality-gap tolerance relative to D'D, so the stopping rule does not
# depend on the units of D: about 450 ulps of D'D, above the gap's rounding floor
_GAP_RTOL = 1e-13
_PENALTY_SIMS = 200
_PENALTY_MULT = 1.1
_MAX_SWEEPS = 100000
_RESYNC_EVERY = 128


@dataclass(frozen=True)
class LassoSelection:
    """Solution and selection event of the randomized Lasso."""

    lambda_l: float
    omega: np.ndarray
    gamma_l: np.ndarray
    support_E: tuple
    signs_sE: np.ndarray
    subgradient_u: np.ndarray
    scale: Optional[float] = None

    def __post_init__(self):
        for name in ("omega", "gamma_l", "signs_sE", "subgradient_u"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        object.__setattr__(self, "support_E", tuple(int(j) for j in self.support_E))
        if self.lambda_l <= 0:
            raise ValueError("lambda_l must be positive")
        p = self.omega.size
        if self.gamma_l.size != p or self.subgradient_u.size != p:
            raise ValueError("omega, gamma_l, subgradient_u must share length p")
        e = list(self.support_E)
        if len(self.signs_sE) != len(e):
            raise ValueError("signs_sE must match support_E")
        if any(j < 0 or j >= p for j in e):
            raise ValueError("support indices out of range")
        off = np.setdiff1d(np.arange(p), e)
        if np.any(self.gamma_l[off] != 0.0):
            raise ValueError("gamma_l must be exactly zero off the support")
        if e and np.any(np.sign(self.gamma_l[e]) != self.signs_sE):
            raise ValueError("signs_sE must be the signs of gamma_l on the support")
        if e and np.any(self.subgradient_u[e] != self.signs_sE):
            raise ValueError("subgradient must equal the signs on the support")
        if np.any(np.abs(self.subgradient_u[off]) > 1.0 + 1e-8):
            raise ValueError("off-support subgradient exceeds the unit box")

    @property
    def off_support(self) -> np.ndarray:
        return np.setdiff1d(np.arange(self.omega.size), list(self.support_E))


def _dual_gap(z, d_vec, omega, lam, gamma, resid):
    """Duality gap of the randomized Lasso at (gamma, resid = D - Z gamma).

    Dual point s * resid with s chosen feasible for the box constraint
    |(Z'theta + omega)_j| <= lam and as close to 1 as allowed.  The box
    carries a machine-precision margin: at the solution every active
    coordinate sits exactly on its boundary, and without the margin the
    intersection of the per-coordinate s-intervals can round to empty."""
    primal = 0.5 * float(resid @ resid) + lam * float(np.abs(gamma).sum()) - float(
        omega @ gamma
    )
    zr = z.T @ resid
    wide = lam + 1e-12 * (lam + float(np.abs(omega).max()) + float(np.abs(zr).max()))
    s_lo, s_hi = -math.inf, math.inf
    for zr_j, om_j in zip(zr, omega):
        if zr_j > 0:
            s_lo = max(s_lo, (-wide - om_j) / zr_j)
            s_hi = min(s_hi, (wide - om_j) / zr_j)
        elif zr_j < 0:
            s_lo = max(s_lo, (wide - om_j) / zr_j)
            s_hi = min(s_hi, (-wide - om_j) / zr_j)
        elif abs(om_j) > wide:
            return math.inf, primal
    if s_lo > s_hi:
        return math.inf, primal
    s = min(max(1.0, s_lo), s_hi)
    theta = s * resid
    dual = float(theta @ d_vec) - 0.5 * float(theta @ theta)
    return primal - dual, primal


def solve_randomized_lasso(
    data: IVDataset, lambda_l: float, law: RandomizationLaw
) -> LassoSelection:
    """Coordinate descent to duality gap < 1e-13 D'D, then the selection
    event (support, signs, subgradient) read off the stationarity
    condition u = (omega + Z'resid) / lambda_l."""
    require_prepared(data)
    if lambda_l <= 0:
        raise ValueError("lambda_l must be positive")
    z, d_vec = data.Z, data.D
    p = data.p
    omega = law.draw(p)
    col_norm2 = np.einsum("ij,ij->j", z, z)
    gamma = np.zeros(p)
    resid = d_vec.copy()
    gap, tol = math.inf, _GAP_RTOL * float(d_vec @ d_vec)
    for sweep in range(_MAX_SWEEPS):
        for j in range(p):
            old = gamma[j]
            rho = float(z[:, j] @ resid) + col_norm2[j] * old + omega[j]
            new = math.copysign(max(abs(rho) - lambda_l, 0.0), rho) / col_norm2[j]
            if new != old:
                resid += z[:, j] * (old - new)
                gamma[j] = new
        if sweep % 4 == 3 or sweep == 0:
            gap, _ = _dual_gap(z, d_vec, omega, lambda_l, gamma, resid)
            if gap < tol:
                break
    else:
        raise ConvergenceError(
            f"coordinate descent stopped at duality gap {gap:.3g} "
            f"after {_MAX_SWEEPS} sweeps"
        )
    support = tuple(int(j) for j in np.nonzero(gamma)[0])
    signs = np.sign(gamma[list(support)])
    u = (omega + z.T @ resid) / lambda_l
    u[list(support)] = signs
    off = np.setdiff1d(np.arange(p), list(support))
    u[off] = np.clip(u[off], -1.0, 1.0)
    return LassoSelection(
        lambda_l=float(lambda_l),
        omega=omega,
        gamma_l=gamma,
        support_E=support,
        signs_sE=signs,
        subgradient_u=u,
        scale=law.scale,
    )


def default_lasso_penalty(data: IVDataset, seed: int = 0) -> float:
    """1.1 times the median of ||Z' e*||_inf over 200 resampled
    first-stage residual vectors e*: large enough that pure-noise
    instruments are usually dropped, small enough that selection stays
    non-trivial."""
    resid = data.D - data.Z @ require_prepared(data).gamma_hat
    rng = _generator(seed, 11)
    idx = rng.integers(0, data.n, size=(_PENALTY_SIMS, data.n))
    vals = np.abs(resid[idx] @ data.Z).max(axis=1)
    lam = _PENALTY_MULT * float(np.median(vals))
    if lam <= 0:
        raise ValueError("degenerate penalty: first-stage residuals are zero")
    return lam


def default_lasso_scale(data: IVDataset) -> float:
    """Randomization spread for the Lasso objective: half the typical
    noise scale of a Z'D coordinate (error sd times mean column norm)."""
    m = require_prepared(data)
    sig2 = math.sqrt(m.rss / (m.n - m.p))
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
    on gamma_E and the unit box on u_{-E}.  One value holds one law or a
    batch of laws, one per tested null or replication: t_obs carries the
    batch shape, and every other field may carry it in front of its own
    axes."""

    cols: np.ndarray  # (..., p, q) with q = 1 + |E| + (p - |E|)
    base: np.ndarray  # (..., p)
    lower: np.ndarray  # (..., q) state bounds
    upper: np.ndarray  # (..., q)
    gaussian_scale: float
    t_obs: float
    theta_obs: np.ndarray  # (..., q) observed state

    def __post_init__(self):
        if not np.all(np.asarray(self.gaussian_scale, dtype=float) > 0):
            raise SamplerError("the selection law needs a positive Gaussian randomization scale")


def build_law_lasso(
    data: IVDataset | Moments, beta0: float, sel: LassoSelection, est: ModelEstimates
) -> LassoLaw:
    """Assemble the selection-event law for testing beta = beta0.  est
    must carry Sigma_hat evaluated at this beta0.

    An array of nulls with their estimates gives one LassoLaw whose
    cols, base, t_obs and theta_obs carry the null axis; the bounds and
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
    s11 = est.sigma_hat[..., 0, 0]
    s12 = est.sigma_hat[..., 0, 1]
    d_pe_d = float(m_e.s2)
    if d_pe_d <= 0:
        raise BranchError("selected instruments carry no first-stage signal")
    # Z'P_E D = Z'Z_E (Z_E'Z_E)^(-1) Z_E'D
    z_pe_d = m.ztz[:, e_idx] @ m_e.gamma_hat
    w_st = _col(s12) * z_pe_d / _col(np.sqrt(s11 * d_pe_d))
    t_obs = tsls_stat(m_e, beta0, est).statistic
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

    theta_obs = np.empty(shape + (q,))
    theta_obs[..., 0] = t_obs
    theta_obs[..., 1:] = np.concatenate([sel.gamma_l[e_idx], sel.subgradient_u[off]])
    return LassoLaw(
        cols=cols,
        base=base,
        lower=lower,
        upper=upper,
        gaussian_scale=sel.scale,
        t_obs=t_obs,
        theta_obs=theta_obs,
    )


def _gibbs_linear_gaussian(
    rng, cols, base, c, lower, upper, theta0, n_samples, burn_in,
    t_ref=None, collect_state=False,
):
    """Batched exact Gibbs over a state with linear Gaussian coupling.

    cols: (m, p, q); base: (m, p); c, t_ref: (m,); lower/upper: (m, q);
    theta0: (m, q).  Coordinate 0 carries the test statistic, which has
    an N(0, 1) prior; the others are flat within their bounds.  Tail
    counts are taken against t_ref."""
    m, _, q = cols.shape
    theta = np.asarray(theta0, dtype=float).copy()
    if np.any(theta < lower) or np.any(theta > upper):
        raise SamplerError("initial state violates the selection constraints")
    by_coord = np.ascontiguousarray(cols.transpose(2, 0, 1))  # (q, m, p)
    inv_c2 = 1.0 / c**2
    prec = np.einsum("imp,imp->im", by_coord, by_coord) * inv_c2
    prec[0] += 1.0
    gain = inv_c2 / prec
    sd = 1.0 / np.sqrt(prec)
    free = np.isneginf(lower).all(axis=0) & np.isposinf(upper).all(axis=0)
    ge = np.zeros(m)
    le = np.zeros(m)
    states = np.empty((m, n_samples, q)) if collect_state else None
    for k in range(burn_in + n_samples):
        if k % _RESYNC_EVERY == 0:
            x = np.einsum("mpq,mq->mp", cols, theta) + base
        for i in range(q):
            col = by_coord[i]
            x -= col * theta[:, i:i + 1]
            mean = -np.einsum("mp,mp->m", col, x) * gain[i]
            if free[i]:
                theta[:, i] = mean + sd[i] * rng.standard_normal(m)
            else:
                uu = np.clip(rng.random(m), 1e-16, 1.0 - 1e-16)
                lo = (lower[:, i] - mean) / sd[i]
                hi = (upper[:, i] - mean) / sd[i]
                theta[:, i] = np.clip(
                    mean + sd[i] * _truncnorm_ppf(uu, lo, hi), lower[:, i], upper[:, i]
                )
            x += col * theta[:, i:i + 1]
        if k >= burn_in:
            if t_ref is not None:
                ge += theta[:, 0] >= t_ref
                le += theta[:, 0] <= t_ref
            if collect_state:
                states[:, k - burn_in] = theta
    return {"ge": ge, "le": le, "state": states}


def _chain_rows(law: LassoLaw, chains: int):
    """(cols, base, c, lower, upper, theta_obs, t_obs) of a law or a
    batch of laws, flattened to one row per law and repeated for each of
    its chains."""
    shape = np.shape(law.t_obs)
    p, q = law.cols.shape[-2:]

    def rows(v, *tail):
        return np.repeat(np.broadcast_to(v, shape + tail).reshape((-1,) + tail), chains, axis=0)

    return (
        rows(law.cols, p, q), rows(law.base, p), rows(law.gaussian_scale),
        rows(law.lower, q), rows(law.upper, q), rows(law.theta_obs, q), rows(law.t_obs),
    )


def sample_selection_paths(law: LassoLaw, config: SamplerConfig = None) -> np.ndarray:
    """Post-burn-in state paths over (T, gamma_E, u_{-E}) of one law for
    every configured chain, shape (chains, n_samples, 1 + p).  Chains
    start at the observed state and differ only through their random
    streams."""
    config = config if config is not None else SamplerConfig()
    *arrays, _ = _chain_rows(law, config.chains)
    out = _gibbs_linear_gaussian(
        _generator(config.seed, 6), *arrays, config.n_samples, config.burn_in,
        collect_state=True,
    )
    return out["state"]


def _pooled_lasso_pvalues(law: LassoLaw, config: SamplerConfig, tags=()):
    """Upper and two-sided p-values of a selection law, or of each law of
    a batch at its own t_obs, pooling config.chains chains per law.  The
    p-values take the law's batch shape; all laws share one random
    stream, keyed by config.seed and tags."""
    *arrays, t_ref = _chain_rows(law, config.chains)
    out = _gibbs_linear_gaussian(
        _generator(config.seed, 5, *tags), *arrays, config.n_samples, config.burn_in,
        t_ref=t_ref,
    )
    shape = np.shape(law.t_obs)
    n_tot = config.n_samples * config.chains
    ge = out["ge"].reshape(shape + (config.chains,)).sum(axis=-1) / n_tot
    le = out["le"].reshape(shape + (config.chains,)).sum(axis=-1) / n_tot
    return ge, np.minimum(1.0, 2.0 * np.minimum(ge, le))


def lasso_conditional_inference(
    data: IVDataset,
    beta0: float,
    sel: LassoSelection,
    config: SamplerConfig = None,
    alpha: float = 0.05,
    n_points: int = 201,
) -> InferenceReport:
    """Conditional p-value and confidence interval for the treatment
    effect after Lasso instrument selection, with the usual
    selected-instrument TSLS results as the naive reference.

    Each grid round builds the laws of all its nulls in one call and
    runs them through the Gibbs engine in one call.  The p-values are
    Monte Carlo: the laws of one engine call share one random stream,
    keyed by the config's seed and the call's tag (the grid round, 0 for
    beta0), so a law's p-value depends on the other laws in its call.
    The p-value reported at beta0 therefore differs from the grid's
    p-value at the same null by Monte Carlo error."""
    m = require_prepared(data)
    if not sel.support_E:
        raise BranchError("empty support: no instruments selected")
    config = config if config is not None else SamplerConfig()
    sub = m.select(sel.support_E)

    def pvalues(b0, tag):
        law = build_law_lasso(m, b0, sel, covariance_estimates(m, b0))
        return _pooled_lasso_pvalues(law, config, tags=(tag,))[1]

    calls = [0]

    def pfn(xs):
        calls[0] += 1
        return pvalues(xs, calls[0])

    beta_hat = tsls_estimate(sub)
    halfwidth = 8.0 * tsls_standard_error(sub)
    interval, _, _, grid_info = invert_pvalue_curve(
        pfn, beta_hat, halfwidth, alpha, n_points=n_points
    )

    naive = tsls_stat(sub, beta0, covariance_estimates(sub, beta0))
    return InferenceReport(
        beta0=float(beta0),
        conditional_pvalue=float(pvalues(beta0, 0)),
        naive_pvalue=naive.naive_pvalue,
        conditional_ci=interval,
        naive_ci=wald_interval(sub, alpha),
        diagnostics={
            "branch": "lasso",
            "alpha": float(alpha),
            "support": list(sel.support_E),
            "signs": sel.signs_sE,
            "lambda_l": sel.lambda_l,
            "chains": config.chains,
            "n_samples": config.n_samples,
            "burn_in": config.burn_in,
            "grid": grid_info,
        },
    )
