"""Conditional null law of the TSLS statistic given a passed screen:
exact tails by quadrature, confidence intervals by test inversion, and
a Gibbs sampler as the Monte Carlo reference.

The law lives on (t, d): t the standardized statistic, d > 0 the slack
of the randomized screen's solution in the active direction u.  Its
unnormalized log density is

    -t^2 / (2 W_T) + log g(-W_ST t / W_T + (d + lam) u - O)
                   + (p - 1) log(d + lam),

so the argument of g is linear in (t, d).  The screen's randomization g
is Gaussian, so t given d is Gaussian and integrating t out leaves d a
log-concave weight (the randomized-response set-up of Tian & Taylor,
Ann. Statist. 2018): every p-value is a ratio of two 1-D integrals over
d, done by Gauss-Legendre quadrature.  The Gibbs sampler (exact in t,
inverse-CDF or slice steps in d) is the Monte Carlo reference;
SamplerConfig steers it and the Lasso engine only.

A ConditionalLaw follows the batch convention of model.Moments: an
array of tested nulls, or a batch of replications, gives one law whose
fields carry the batch axis, and _pooled_pvalues integrates all of its
laws in one call.
"""

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np
from scipy import special, stats

from .errors import (
    BranchError,
    DegenerateFirstStageError,
    QuadratureError,
    SamplerError,
)
from .model import (
    IVDataset,
    ModelEstimates,
    Moments,
    _dot,
    _item,
    covariance_estimates,
    require_prepared,
    tsls_estimate,
    tsls_standard_error,
)
from .pretest import PretestOutcome, RandomizationLaw
from .report import InferenceReport, Interval, invert_pvalue_curve
from .teststats import tsls_stat

_SLICE_MAX_EXPAND = 512
_SLICE_MAX_SHRINK = 256


@dataclass(frozen=True)
class SamplerConfig:
    n_samples: int = 10000
    burn_in: int = 2000
    seed: int = 0
    chains: int = 4

    def __post_init__(self):
        if self.n_samples < 1 or self.burn_in < 0:
            raise ValueError("need n_samples >= 1 and burn_in >= 0")
        if self.chains < 1:
            raise ValueError("need at least one chain")


@dataclass(frozen=True)
class ConditionalLaw:
    """Unnormalized conditional density of (t, d) given screen passage,
    the active direction u, and the statistic's complement O.

    One value holds one law or a batch of laws, one per tested null or
    replication: w_st, o and u end in the instrument axis (p,), and every
    field but w_t and jacobian_exponent may carry leading batch axes that
    broadcast together."""

    w_t: float
    w_st: np.ndarray
    o: np.ndarray
    u: np.ndarray
    lam: float
    g_log_density: Callable[[np.ndarray], float]
    jacobian_exponent: int
    gaussian_scale: Optional[float]
    t_obs: float
    d_obs: float

    def __post_init__(self):
        for name in ("w_st", "o", "u"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        vecs = (self.w_st, self.o, self.u)
        if min(v.ndim for v in vecs) == 0 or len({v.shape[-1] for v in vecs}) != 1:
            raise ValueError("w_st, o, u must share one last axis (p,)")
        if self.w_t <= 0:
            raise ValueError("w_t must be positive")
        if np.any(self.lam < 0) or self.jacobian_exponent < 0:
            raise ValueError("lam and jacobian_exponent must be >= 0")
        if np.any(np.abs(_dot(self.u, self.u) - 1.0) > 1e-8):
            raise ValueError("u must be a unit vector")
        if np.any(self.d_obs <= 0):
            raise ValueError("observed slack d_obs must be positive")
        if not np.all(np.isfinite(self.log_density(self.t_obs, self.d_obs))):
            raise SamplerError("law has non-finite density at the observed state")

    @property
    def slope(self) -> np.ndarray:
        """Coefficient of t inside g's argument."""
        return -self.w_st / self.w_t

    @property
    def offset(self) -> np.ndarray:
        """State-free part of g's argument."""
        return _col(self.lam) * self.u - self.o

    def g_argument(self, t, d) -> np.ndarray:
        return self.slope * _col(t) + self.u * _col(d) + self.offset

    def log_density(self, t, d) -> float:
        t, d = np.asarray(t, dtype=float), np.asarray(d, dtype=float)
        val = -0.5 * t * t / self.w_t + self.g_log_density(self.g_argument(t, d))
        if self.jacobian_exponent:
            with np.errstate(divide="ignore", invalid="ignore"):
                val = val + self.jacobian_exponent * np.log(d + self.lam)
        return _item(np.where(d > 0, val, -np.inf))


def _col(x) -> np.ndarray:
    """x with a trailing axis, to scale each law's (p,) vectors."""
    return np.asarray(x, dtype=float)[..., None]


def build_law_tsls(
    data: IVDataset | Moments, beta0: float, pretest: PretestOutcome, est: ModelEstimates
) -> ConditionalLaw:
    """Conditional (t, d) law for testing beta = beta0 after the screen
    passed.  est must carry Sigma_hat evaluated at this beta0.

    An array of nulls, or batched moments with their screens and
    estimates, gives one ConditionalLaw whose fields carry that batch
    axis; one null on one dataset gives a scalar t_obs and (p,) vectors."""
    m = require_prepared(data)
    if not np.all(pretest.passed):
        raise BranchError("screen did not pass; this law conditions on passing")
    if np.any(m.s2 <= 0):
        raise DegenerateFirstStageError("S = 0: nothing to condition on")
    s11 = est.sigma_hat[..., 0, 0]
    s12 = est.sigma_hat[..., 0, 1]
    w_st = _col(s12) * m.s / _col(np.sqrt(s11 * m.s2))
    t_obs = tsls_stat(m, beta0, est).statistic
    g = RandomizationLaw(scale=pretest.scale, seed=pretest.seed)
    return ConditionalLaw(
        w_t=1.0,
        w_st=w_st,
        o=m.s - w_st * _col(t_obs),
        u=pretest.u,
        lam=pretest.lam,
        g_log_density=g.log_density,
        jacobian_exponent=m.p - 1,
        gaussian_scale=pretest.scale,
        t_obs=t_obs,
        d_obs=pretest.d,
    )


def _generator(seed: int, *tags: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence([int(seed) & (2**63 - 1), *map(int, tags)]))
    )


def _truncnorm_ppf(u, lo, hi):
    """Quantile u of the standard normal truncated to [lo, hi], row-wise.

    Rows with lo + hi > 0 are mirrored, so log Phi is always inverted on
    the side away from the mass, where it keeps full relative precision
    far into either tail; infinite bounds need no special case."""
    flip = lo > -hi
    a = np.where(flip, -hi, lo)
    b = np.where(flip, -lo, hi)
    log_a = special.log_ndtr(a)
    log_b = special.log_ndtr(b)
    log_mass = log_b + np.log(-np.expm1(log_a - log_b))
    log_v = np.where(flip, np.log1p(-u), np.log(u))
    x = special.ndtri_exp(np.logaddexp(log_a, log_v + log_mass))
    return np.clip(np.where(flip, -x, x), lo, hi)


def _truncated_normal(rng, mean, sd, size):
    """Exact N(mean, sd^2) draw conditioned on being positive."""
    uu = np.clip(rng.random(size), 1e-16, 1.0 - 1e-16)
    return mean + sd * _truncnorm_ppf(uu, -mean / sd, np.inf)


def _logf_d(x, mvec, c, lam, jac):
    """Log density of d | t up to constants, vectorized over rows."""
    with np.errstate(divide="ignore", invalid="ignore"):
        val = -0.5 * ((x - mvec) / c) ** 2
        if jac:
            val = val + jac * np.log(np.maximum(x + lam, 1e-300))
    return np.where(x > 0.0, val, -np.inf)


def _slice_step_d(rng, d, mvec, c, lam, jac):
    """One slice-sampling update of every row's d coordinate."""
    m = d.shape[0]
    y = _logf_d(d, mvec, c, lam, jac) - rng.exponential(size=m)
    w = np.where(c > 0, c, 1.0)
    left = np.maximum(d - w * rng.random(m), 0.0)
    right = left + w
    for _ in range(_SLICE_MAX_EXPAND):
        grow = (left > 0.0) & (_logf_d(left, mvec, c, lam, jac) > y)
        if not grow.any():
            break
        left = np.where(grow, np.maximum(left - w, 0.0), left)
    else:
        raise SamplerError("slice bracket failed to expand left")
    for _ in range(_SLICE_MAX_EXPAND):
        grow = _logf_d(right, mvec, c, lam, jac) > y
        if not grow.any():
            break
        right = np.where(grow, right + w, right)
    else:
        raise SamplerError("slice bracket failed to expand right")

    out = d.copy()
    todo = np.ones(m, dtype=bool)
    for _ in range(_SLICE_MAX_SHRINK):
        if not todo.any():
            break
        x = left + rng.random(m) * (right - left)
        good = _logf_d(x, mvec, c, lam, jac) > y
        accept = todo & good
        out[accept] = x[accept]
        todo &= ~good
        lower = todo & (x < d)
        upper = todo & ~lower
        left = np.where(lower, x, left)
        right = np.where(upper, x, right)
    else:
        if todo.any():
            raise SamplerError("slice shrinkage failed to terminate")
    return out


def _gibbs_gaussian(rng, a, u, e, lam, c, jac, t0, d0, n_samples, burn_in):
    """Batched exact Gibbs for m rows sharing dimension p and exponent jac.

    a, u, e: (m, p); lam, c, t0, d0: (m,).  Returns the post-burn-in
    draws as {"t": (m, n_samples), "d": (m, n_samples)}.
    """
    m, _ = a.shape
    anorm2 = np.einsum("ij,ij->i", a, a)
    prec = c**2 + anorm2
    sd_t = c / np.sqrt(prec)
    t = np.asarray(t0, dtype=float).copy()
    d = np.asarray(d0, dtype=float).copy()
    if np.any(d <= 0):
        raise SamplerError("initial d must be positive")
    t_draws = np.empty((m, n_samples))
    d_draws = np.empty((m, n_samples))
    for k in range(burn_in + n_samples):
        z = u * d[:, None] + e
        mean_t = -np.einsum("ij,ij->i", a, z) / prec
        t = mean_t + sd_t * rng.standard_normal(m)
        mvec = -np.einsum("ij,ij->i", u, a * t[:, None] + e)
        if jac == 0:
            d = _truncated_normal(rng, mvec, c, m)
        else:
            d = _slice_step_d(rng, d, mvec, c, lam, jac)
        if k >= burn_in:
            t_draws[:, k - burn_in] = t
            d_draws[:, k - burn_in] = d
    return {"t": t_draws, "d": d_draws}


def _require_gaussian(law: ConditionalLaw) -> None:
    if law.gaussian_scale is None:
        raise SamplerError("the conditional law needs Gaussian randomization (gaussian_scale)")


def _chains(law, config, tag, m, t0, d0):
    """m chains of the exact Gibbs sampler on one law, all from (t0, d0)."""
    _require_gaussian(law)
    rows = lambda v: np.repeat(v[None, :], m, axis=0)
    return _gibbs_gaussian(
        _generator(config.seed, tag), rows(law.slope), rows(law.u), rows(law.offset),
        np.full(m, law.lam), np.full(m, law.gaussian_scale), law.jacobian_exponent,
        np.full(m, t0), np.full(m, d0), config.n_samples, config.burn_in,
    )


def gibbs_sample(
    law: ConditionalLaw,
    config: SamplerConfig = None,
    init_t: float = None,
    init_d: float = None,
) -> np.ndarray:
    """One chain of post-burn-in t draws from the conditional law.

    Defaults initialize at the observed state (t_obs, d_obs)."""
    config = config if config is not None else SamplerConfig()
    t0 = law.t_obs if init_t is None else float(init_t)
    d0 = law.d_obs if init_d is None else float(init_d)
    if d0 <= 0:
        raise SamplerError("init_d must be positive")
    if not np.isfinite(law.log_density(t0, d0)):
        raise SamplerError("log-density not finite at initialization")
    return _chains(law, config, 1, 1, t0, d0)["t"][0]


def sample_paths(law: ConditionalLaw, config: SamplerConfig = None):
    """Post-burn-in (t, d) paths for every configured chain.

    Returns two arrays of shape (chains, n_samples); chains start at the
    observed state and differ only through their random streams."""
    config = config if config is not None else SamplerConfig()
    if law.d_obs <= 0:
        raise SamplerError("observed d must be positive")
    out = _chains(law, config, 4, config.chains, law.t_obs, law.d_obs)
    return out["t"], out["d"]


class Tails(NamedTuple):
    """Exact conditional tails of T at each law's t_obs, in the laws' batch shape.

    error is the larger change of either tail between the full and the
    half Gauss-Legendre rule; nodes counts the d nodes of the full rule."""

    upper: np.ndarray
    lower: np.ndarray
    error: np.ndarray
    nodes: np.ndarray

    @property
    def two_sided(self) -> np.ndarray:
        return np.minimum(1.0, 2.0 * np.minimum(self.upper, self.lower))


_QUAD_NODES = 96
_QUAD_RULES = tuple(np.polynomial.legendre.leggauss(n) for n in (_QUAD_NODES, _QUAD_NODES // 2))
# the d window spans this many curvature widths either side of the mode
_QUAD_WINDOW = 14.0
# the window's right end is pushed out until the weight there is below
# exp(-_QUAD_TAIL_DROP) of its peak: beyond it the mass is under rounding
_QUAD_TAIL_DROP = 45.0
# the normal tail is within 1e-15 of 0 or 1 beyond this many sds
_QUAD_STEP_Z = 8.0
_QUAD_TOL = 1e-10
_QUAD_MAX_REFINEMENTS = 6


def _log_weight(d, big_a, big_b, lam, jac):
    """log of exp(-A d^2/2 + B d) (d + lam)^jac, the marginal weight of d."""
    return -0.5 * big_a * d * d + big_b * d + jac * np.log(np.maximum(d + lam, 1e-300))


def _window_tails(rows, panels, rule):
    """Both tails of every row by one composite Gauss-Legendre rule.

    rows holds (e0, e1, e2, e3, A, B, lam, jac, z0, z1) per law: the d
    window [e0, e3] cut into three segments, each split into panels
    panels; the weight; and z(d) = z0 + z1 d, the standardized distance
    of t_obs above the mean of t given d."""
    edges = rows[:, :4]
    big_a, big_b, lam, jac, z0, z1 = (col[:, None] for col in rows[:, 4:].T)
    x, w = rule
    steps = (np.arange(panels)[:, None] + 0.5 * (1.0 + x)).ravel()
    step = (np.diff(edges, axis=1) / panels)[:, :, None]
    d = (edges[:, :3, None] + step * steps).reshape(len(rows), -1)
    log_w = _log_weight(d, big_a, big_b, lam, jac)
    wd = (step * np.tile(w, panels)).reshape(len(rows), -1)
    wd *= np.exp(log_w - log_w.max(axis=1, keepdims=True))
    z = z0 + z1 * d
    den = wd.sum(axis=1)
    return (wd * special.ndtr(-z)).sum(axis=1) / den, (wd * special.ndtr(z)).sum(axis=1) / den


def _pooled_pvalues(law: ConditionalLaw) -> Tails:
    """P(T >= t_obs | pass) and P(T <= t_obs | pass) for a Gaussian-
    randomization law, or for each law of a batch at its own t_obs, by
    quadrature.  The tails take the law's batch shape, so
    replace(law, t_obs=points) gives the tails at many points.

    t given d is normal with mean -a.(u d + offset) / prec and sd
    c / sqrt(prec), prec = c^2 + |a|^2, so integrating t out leaves d the
    weight exp(-A d^2/2 + B d) (d + lam)^jac on d > 0.  The d window spans
    _QUAD_WINDOW curvature widths about the mode (the slope counts when
    the mode is clipped at 0) and is cut where the normal tail's argument
    crosses -+_QUAD_STEP_Z: a small randomization scale makes that tail a
    near-step in d.  Rows whose full and half rules differ by more than
    _QUAD_TOL are redone on twice the panels; QuadratureError if that
    never settles."""
    _require_gaussian(law)
    a, e = law.slope, law.offset
    p = a.shape[-1]
    shape = np.broadcast_shapes(
        a.shape[:-1], e.shape[:-1], np.shape(law.gaussian_scale), np.shape(law.t_obs)
    )
    # one row per law: broadcast, then copied contiguous by the reshape
    a, u, e = (np.broadcast_to(v, shape + (p,)).reshape(-1, p) for v in (a, law.u, e))
    lam, c, t_obs = (
        np.broadcast_to(v, shape).reshape(-1) for v in (law.lam, law.gaussian_scale, law.t_obs)
    )
    jac = np.full(t_obs.size, float(law.jacobian_exponent))

    c2 = c * c
    prec = c2 + np.einsum("ij,ij->i", a, a)
    au = np.einsum("ij,ij->i", a, u)
    ae = np.einsum("ij,ij->i", a, e)
    big_a = (np.einsum("ij,ij->i", u, u) - au * au / prec) / c2
    big_b = (au * ae / prec - np.einsum("ij,ij->i", u, e)) / c2
    sd_t = c / np.sqrt(prec)

    # the weight's stationary point solves A d^2 + (A lam - B) d - (B lam + jac) = 0;
    # its larger root, in the form free of cancellation, then clipped at 0
    qb = big_a * lam - big_b
    root = np.sqrt((big_a * lam + big_b) ** 2 + 4.0 * big_a * jac)
    with np.errstate(divide="ignore", invalid="ignore"):
        stationary = np.where(
            qb > 0, 2.0 * (big_b * lam + jac) / (qb + root), (root - qb) / (2.0 * big_a)
        )
        mode = np.maximum(stationary, 0.0)
        curv = big_a + np.where(jac > 0, jac / (mode + lam) ** 2, 0.0)
        slope = np.where(mode > 0, 0.0, np.abs(big_b + np.where(jac > 0, jac / lam, 0.0)))
    # x with slope x + curv x^2 / 2 = K^2 / 2: K widths at an interior mode
    k2 = _QUAD_WINDOW**2
    x = k2 / (slope + np.sqrt(slope * slope + curv * k2))
    peak = _log_weight(mode, big_a, big_b, lam, jac)
    hi = mode + x
    for _ in range(64):
        short = _log_weight(hi, big_a, big_b, lam, jac) > peak - _QUAD_TAIL_DROP
        if not short.any():
            break
        hi = np.where(short, mode + 2.0 * (hi - mode), hi)
    else:
        raise QuadratureError("slack weight does not decay: the d window cannot be closed")
    lo = np.maximum(mode - x, 0.0)
    z0 = (t_obs + ae / prec) / sd_t
    z1 = au / (prec * sd_t)
    with np.errstate(divide="ignore", over="ignore"):
        cross = (np.array([[-_QUAD_STEP_Z], [_QUAD_STEP_Z]]) - z0) / np.where(z1 == 0, 1e-300, z1)
    cuts = np.clip(np.sort(cross, axis=0), lo, hi)
    rows = np.column_stack([lo, cuts[0], cuts[1], hi, big_a, big_b, lam, jac, z0, z1])

    m = t_obs.size
    upper, lower, error = np.empty(m), np.empty(m), np.empty(m)
    nodes = np.empty(m, dtype=int)
    todo = np.arange(m)
    panels = 1
    for _ in range(_QUAD_MAX_REFINEMENTS + 1):
        up, low = _window_tails(rows[todo], panels, _QUAD_RULES[0])
        up_half, low_half = _window_tails(rows[todo], panels, _QUAD_RULES[1])
        err = np.maximum(np.abs(up - up_half), np.abs(low - low_half))
        upper[todo], lower[todo], error[todo] = up, low, err
        nodes[todo] = 3 * panels * _QUAD_NODES
        todo = todo[~(err <= _QUAD_TOL)]
        if todo.size == 0:
            return Tails(*(v.reshape(shape) for v in (upper, lower, error, nodes)))
        panels *= 2
    raise QuadratureError(
        f"passed-screen tail not converged for {todo.size} of {m} laws: error "
        f"{float(np.nanmax(error[todo])):.3g} > tol {_QUAD_TOL:.3g} at {panels // 2} panels"
    )


def wald_interval(data: IVDataset | Moments, alpha: float = 0.05) -> Interval:
    """Naive TSLS confidence interval beta_hat +- z * SE."""
    beta_hat = tsls_estimate(data)
    se = tsls_standard_error(data)
    z = stats.norm.ppf(1.0 - alpha / 2.0)
    return Interval(beta_hat - z * se, beta_hat + z * se)


def invert_ci(
    data: IVDataset,
    pretest: PretestOutcome,
    alpha: float = 0.05,
    n_points: int = 201,
    null_value: float = 0.0,
) -> InferenceReport:
    """Confidence interval as the hull of nulls whose two-sided
    conditional p-value stays >= alpha, plus p-values at null_value.
    Every p-value is an exact tail from _pooled_pvalues.

    The screen's omega and u are held fixed across the grid; the
    statistic's complement O and covariance W_ST depend on the tested
    null, and each grid round builds the laws of all its nulls in one
    call.  The grid starts at n_points over beta_hat +- 8 SE; expansion
    proceeds until both endpoints are excluded or reported unbounded.
    """
    require_prepared(data)
    if not pretest.passed:
        raise BranchError("screen did not pass; invert the weak-instrument branch instead")
    if pretest.scale is None or pretest.scale <= 0:
        raise SamplerError("inversion needs the Gaussian randomization recorded by the screen")
    beta_hat = tsls_estimate(data)
    se = tsls_standard_error(data)

    def pfn(xs):
        law = build_law_tsls(data, xs, pretest, covariance_estimates(data, xs))
        return _pooled_pvalues(law).two_sided

    interval, _, _, grid_info = invert_pvalue_curve(pfn, beta_hat, 8.0 * se, alpha, n_points)

    est0 = covariance_estimates(data, null_value)
    naive = tsls_stat(data, null_value, est0)
    tails = _pooled_pvalues(build_law_tsls(data, null_value, pretest, est0))
    q = float(min(tails.upper, tails.lower))
    err = float(tails.error)
    return InferenceReport(
        beta0=float(null_value),
        conditional_pvalue=float(tails.two_sided),
        naive_pvalue=naive.naive_pvalue,
        conditional_ci=interval,
        naive_ci=wald_interval(data, alpha),
        diagnostics={
            "branch": "tsls",
            "alpha": float(alpha),
            "beta_tsls": beta_hat,
            "standard_error": se,
            "method": "quadrature",
            "quadrature_error": err,
            "quadrature_nodes": int(tails.nodes),
            # Monte Carlo draws that would match the quadrature's accuracy
            "ess": q * (1.0 - q) / max(err, np.finfo(float).eps) ** 2,
            "grid": grid_info,
        },
    )
