"""Randomized-Lasso instrument selection and conditional inference on
the selected support and signs.

Selection solves min 0.5 ||D - Z g||^2 + lam ||g||_1 - omega' g.  Its
stationarity condition -Z'(D - Z g) + lam u = omega turns the selection
event into sign constraints on g_E and a box on u_{-E}, so the
conditional null law of the post-selection TSLS statistic T lives on
(T, g_E, u_{-E}) with the randomization density evaluated at a linear
function of the state.  With Gaussian randomization every coordinate's
full conditional is an exact (truncated) normal.

By default the post-selection statistic and its covariance with Z'D use
the selected instruments' projector; use_full_z=True restores the
all-instruments projector in both places at once.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import stats

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
from .sampler import SamplerConfig, _generator, wald_interval
from .teststats import tsls_stat

_GAP_TOL = 1e-10
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
    """Coordinate descent to duality gap < 1e-10, then the selection
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
    gap = math.inf
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
            if gap < _GAP_TOL:
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


def default_lasso_penalty(
    data: IVDataset, seed: int = 0, sims: int = 200, mult: float = 1.1
) -> float:
    """1.1 times the median of ||Z' e*||_inf over resampled first-stage
    residual vectors e*: large enough that pure-noise instruments are
    usually dropped, small enough that selection stays non-trivial."""
    resid = data.D - data.Z @ require_prepared(data).gamma_hat
    rng = _generator(seed, 11)
    idx = rng.integers(0, data.n, size=(sims, data.n))
    vals = np.abs(resid[idx] @ data.Z).max(axis=1)
    lam = mult * float(np.median(vals))
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
    """Conditional law of (T, gamma_E, u_{-E}) given the selection event.

    The randomization argument is cols @ theta + base with theta the
    state stacked as [T, gamma_E, u_{-E}]; constraints are sign orthants
    on gamma_E and the unit box on u_{-E}."""

    cols: np.ndarray  # (p, q) with q = 1 + |E| + (p - |E|)
    base: np.ndarray  # (p,)
    lower: np.ndarray  # (q,) state bounds
    upper: np.ndarray  # (q,)
    gaussian_scale: Optional[float]
    g_log_density: object
    t_obs: float
    theta_obs: np.ndarray  # (q,) observed state
    support_E: tuple
    signs_sE: np.ndarray

    def log_density(self, theta: np.ndarray) -> float:
        theta = np.asarray(theta, dtype=float)
        if np.any(theta < self.lower) or np.any(theta > self.upper):
            return -math.inf
        x = self.cols @ theta + self.base
        return -0.5 * theta[0] ** 2 + float(self.g_log_density(x))


def build_law_lasso(
    data: IVDataset | Moments,
    beta0: float,
    sel: LassoSelection,
    est: ModelEstimates,
    use_full_z: bool = False,
) -> LassoLaw:
    """Assemble the selection-event law for testing beta = beta0."""
    m = require_prepared(data)
    if not sel.support_E:
        raise BranchError("empty support: no instruments selected")
    p = m.p
    e_idx = list(sel.support_E)
    off = sel.off_support
    m_t = m if use_full_z else m.select(e_idx)
    s11 = float(est.sigma_hat[0, 0])
    s12 = float(est.sigma_hat[0, 1])
    d_pe_d = float(m_t.s2)
    if d_pe_d <= 0:
        raise BranchError("selected instruments carry no first-stage signal")
    # Z'P_E D = Z'Z_E (Z_E'Z_E)^(-1) Z_E'D, which is Z'D for the full projector
    z_pe_d = m.ztd if use_full_z else m.ztz[:, e_idx] @ m_t.gamma_hat
    w_st = s12 * z_pe_d / math.sqrt(s11 * d_pe_d)
    t_obs = tsls_stat(m_t, beta0, est).statistic
    o_l = m.ztd - w_st * t_obs

    q = 1 + p
    cols = np.zeros((p, q))
    cols[:, 0] = -w_st
    cols[:, 1:1 + len(e_idx)] = m.ztz[:, e_idx]
    for k, j in enumerate(off):
        cols[j, 1 + len(e_idx) + k] = sel.lambda_l

    base = -o_l.copy()
    base[e_idx] += sel.lambda_l * sel.signs_sE

    lower = np.full(q, -np.inf)
    upper = np.full(q, np.inf)
    for k, s in enumerate(sel.signs_sE):
        if s > 0:
            lower[1 + k] = 0.0
        else:
            upper[1 + k] = 0.0
    lower[1 + len(e_idx):] = -1.0
    upper[1 + len(e_idx):] = 1.0

    theta_obs = np.concatenate(
        [[t_obs], sel.gamma_l[e_idx], sel.subgradient_u[off]]
    )
    if sel.scale is None or sel.scale <= 0:
        raise SamplerError("selection must record its Gaussian randomization scale")
    g = RandomizationLaw(scale=sel.scale, seed=0)
    return LassoLaw(
        cols=cols,
        base=base,
        lower=lower,
        upper=upper,
        gaussian_scale=g.scale,
        g_log_density=g.log_density,
        t_obs=t_obs,
        theta_obs=theta_obs,
        support_E=sel.support_E,
        signs_sE=sel.signs_sE,
    )


def _gibbs_linear_gaussian(
    rng, cols, base, c, lower, upper, theta0, prior_prec, n_samples, burn_in,
    t_ref=None, collect=False, collect_state=False,
):
    """Batched exact Gibbs over a state with linear Gaussian coupling.

    cols: (m, p, q); base: (m, p); c, t_ref: (m,); lower/upper: (m, q);
    theta0: (m, q); prior_prec: (q,).  Coordinate 0 carries the test
    statistic; tail counts are taken against t_ref."""
    m, _, q = cols.shape
    theta = np.asarray(theta0, dtype=float).copy()
    if np.any(theta < lower) or np.any(theta > upper):
        raise SamplerError("initial state violates the selection constraints")
    colnorm2 = np.einsum("mpq,mpq->mq", cols, cols)
    inv_c2 = 1.0 / c**2
    x = np.einsum("mpq,mq->mp", cols, theta) + base
    ge = np.zeros(m)
    le = np.zeros(m)
    draws = np.empty((m, n_samples)) if collect else None
    states = np.empty((m, n_samples, q)) if collect_state else None
    for k in range(burn_in + n_samples):
        if k % _RESYNC_EVERY == 0:
            x = np.einsum("mpq,mq->mp", cols, theta) + base
        for i in range(q):
            col = cols[:, :, i]
            x -= col * theta[:, i:i + 1]
            prec = prior_prec[i] + colnorm2[:, i] * inv_c2
            mean = -np.einsum("mp,mp->m", col, x) * inv_c2 / prec
            sd = 1.0 / np.sqrt(prec)
            lo = (lower[:, i] - mean) / sd
            hi = (upper[:, i] - mean) / sd
            if np.isneginf(lo).all() and np.isposinf(hi).all():
                theta[:, i] = mean + sd * rng.standard_normal(m)
            else:
                uu = np.clip(rng.random(m), 1e-16, 1.0 - 1e-16)
                theta[:, i] = stats.truncnorm.ppf(uu, lo, hi, loc=mean, scale=sd)
            x += col * theta[:, i:i + 1]
        if k >= burn_in:
            if t_ref is not None:
                ge += theta[:, 0] >= t_ref
                le += theta[:, 0] <= t_ref
            if collect:
                draws[:, k - burn_in] = theta[:, 0]
            if collect_state:
                states[:, k - burn_in] = theta
    return {"ge": ge, "le": le, "t": draws, "state": states}


def sample_selection_paths(law: LassoLaw, config: SamplerConfig = None) -> np.ndarray:
    """Post-burn-in state paths over (T, gamma_E, u_{-E}) for every
    configured chain, shape (chains, n_samples, 1 + p).  Chains start at
    the observed state and differ only through their random streams."""
    config = config if config is not None else SamplerConfig()
    if law.gaussian_scale is None or law.gaussian_scale <= 0:
        raise SamplerError("state paths need the Gaussian randomization scale")
    m = config.chains
    q = law.cols.shape[1]
    rep = lambda arr: np.repeat(arr[None, ...], m, axis=0)
    prior_prec = np.zeros(q)
    prior_prec[0] = 1.0
    out = _gibbs_linear_gaussian(
        _generator(config.seed, 6),
        rep(law.cols),
        rep(law.base),
        np.full(m, law.gaussian_scale),
        rep(law.lower),
        rep(law.upper),
        rep(law.theta_obs),
        prior_prec,
        config.n_samples,
        config.burn_in,
        collect_state=True,
    )
    return out["state"]


def _law_batch_arrays(laws):
    cols = np.stack([law.cols for law in laws])
    base = np.stack([law.base for law in laws])
    c = np.array([law.gaussian_scale for law in laws])
    lower = np.stack([law.lower for law in laws])
    upper = np.stack([law.upper for law in laws])
    theta0 = np.stack([law.theta_obs for law in laws])
    t_ref = np.array([law.t_obs for law in laws])
    return cols, base, c, lower, upper, theta0, t_ref


def _pooled_lasso_pvalues(laws, config, tags=()):
    """Upper and two-sided p-values for a batch of selection laws with a
    common state dimension, pooling config.chains chains per law."""
    q = laws[0].cols.shape[1]
    if any(law.cols.shape[1] != q for law in laws):
        raise ValueError("laws in one batch must share the state dimension")
    cols, base, c, lower, upper, theta0, t_ref = _law_batch_arrays(laws)
    ch = config.chains
    rep = lambda arr: np.repeat(arr, ch, axis=0)
    prior_prec = np.zeros(q)
    prior_prec[0] = 1.0
    rng = _generator(config.seed, 5, *tags)
    out = _gibbs_linear_gaussian(
        rng, rep(cols), rep(base), rep(c), rep(lower), rep(upper), rep(theta0),
        prior_prec, config.n_samples, config.burn_in, t_ref=rep(t_ref),
    )
    n_tot = config.n_samples * ch
    ge = out["ge"].reshape(len(laws), ch).sum(axis=1) / n_tot
    le = out["le"].reshape(len(laws), ch).sum(axis=1) / n_tot
    return ge, np.minimum(1.0, 2.0 * np.minimum(ge, le))


def lasso_conditional_inference(
    data: IVDataset,
    beta0: float,
    sel: LassoSelection,
    config: SamplerConfig = None,
    alpha: float = 0.05,
    use_full_z: bool = False,
    n_points: int = 201,
) -> InferenceReport:
    """Conditional p-value and confidence interval for the treatment
    effect after Lasso instrument selection, with the usual
    selected-instrument TSLS results as the naive reference."""
    m = require_prepared(data)
    if not sel.support_E:
        raise BranchError("empty support: no instruments selected")
    config = config if config is not None else SamplerConfig()
    sub = m if use_full_z else m.select(sel.support_E)

    def law_at(b0):
        return build_law_lasso(m, b0, sel, covariance_estimates(m, b0), use_full_z=use_full_z)

    calls = [0]

    def pfn(xs):
        calls[0] += 1
        _, two = _pooled_lasso_pvalues([law_at(b) for b in xs], config, tags=(calls[0],))
        return two

    beta_hat = tsls_estimate(sub)
    halfwidth = 8.0 * tsls_standard_error(sub)
    interval, _, _, grid_info = invert_pvalue_curve(
        pfn, beta_hat, halfwidth, alpha, n_points=n_points
    )

    _, two0 = _pooled_lasso_pvalues([law_at(beta0)], config, tags=(0,))
    naive = tsls_stat(sub, beta0, covariance_estimates(sub, beta0))
    return InferenceReport(
        beta0=float(beta0),
        conditional_pvalue=float(two0[0]),
        naive_pvalue=naive.naive_pvalue,
        conditional_ci=interval,
        naive_ci=wald_interval(sub, alpha),
        diagnostics={
            "branch": "lasso",
            "alpha": float(alpha),
            "support": list(sel.support_E),
            "signs": sel.signs_sE,
            "lambda_l": sel.lambda_l,
            "use_full_z": use_full_z,
            "chains": config.chains,
            "n_samples": config.n_samples,
            "burn_in": config.burn_in,
            "grid": grid_info,
        },
    )
