"""Conditional null law of the TSLS statistic given a passed screen:
exact tails by quadrature, confidence intervals by test inversion, and
a Gibbs sampler for chain output.

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
"""

import math
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
    the active direction u, and the statistic's complement O."""

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
        if self.w_st.shape != self.u.shape or self.o.shape != self.u.shape:
            raise ValueError("w_st, o, u must share one shape (p,)")
        if self.w_t <= 0:
            raise ValueError("w_t must be positive")
        if self.lam < 0 or self.jacobian_exponent < 0:
            raise ValueError("lam and jacobian_exponent must be >= 0")
        if abs(float(self.u @ self.u) - 1.0) > 1e-8:
            raise ValueError("u must be a unit vector")
        if self.d_obs <= 0:
            raise ValueError("observed slack d_obs must be positive")
        if not np.isfinite(self.log_density(self.t_obs, self.d_obs)):
            raise SamplerError("law has non-finite density at the observed state")

    @property
    def slope(self) -> np.ndarray:
        """Coefficient of t inside g's argument."""
        return -self.w_st / self.w_t

    @property
    def offset(self) -> np.ndarray:
        """State-free part of g's argument."""
        return self.lam * self.u - self.o

    def g_argument(self, t: float, d: float) -> np.ndarray:
        return self.slope * t + self.u * d + self.offset

    def log_density(self, t: float, d: float) -> float:
        if d <= 0:
            return -math.inf
        val = -0.5 * t * t / self.w_t + float(self.g_log_density(self.g_argument(t, d)))
        if self.jacobian_exponent:
            val += self.jacobian_exponent * math.log(d + self.lam)
        return val


def build_law_tsls(
    data: IVDataset | Moments, beta0: float, pretest: PretestOutcome, est: ModelEstimates
) -> ConditionalLaw:
    """Conditional (t, d) law for testing beta = beta0 after the screen
    passed.  est must carry Sigma_hat evaluated at this beta0."""
    m = require_prepared(data)
    if not pretest.passed:
        raise BranchError("screen did not pass; this law conditions on passing")
    if m.s2 <= 0:
        raise DegenerateFirstStageError("S = 0: nothing to condition on")
    s11 = float(est.sigma_hat[0, 0])
    s12 = float(est.sigma_hat[0, 1])
    w_st = s12 * m.s / math.sqrt(s11 * m.s2)
    t_obs = tsls_stat(m, beta0, est).statistic
    g = RandomizationLaw(scale=pretest.scale, seed=pretest.seed)
    return ConditionalLaw(
        w_t=1.0,
        w_st=w_st,
        o=m.s - w_st * t_obs,
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


def draws_csv(t_paths: np.ndarray, d_paths: np.ndarray) -> str:
    """Chain draws as comma-separated text, columns chain, iter, t, d."""
    t_paths = np.atleast_2d(np.asarray(t_paths, dtype=float))
    d_paths = np.atleast_2d(np.asarray(d_paths, dtype=float))
    if t_paths.shape != d_paths.shape:
        raise ValueError("t and d paths must share a shape")
    lines = ["chain,iter,t,d"]
    for c in range(t_paths.shape[0]):
        for i in range(t_paths.shape[1]):
            lines.append(
                "%d,%d,%s,%s"
                % (c, i, repr(float(t_paths[c, i])), repr(float(d_paths[c, i])))
            )
    return "\n".join(lines) + "\n"


def dump_draws(path, law: ConditionalLaw, config: SamplerConfig = None) -> None:
    """Sample the configured chains and write one file row per retained draw."""
    t_paths, d_paths = sample_paths(law, config)
    with open(path, "w") as fh:
        fh.write(draws_csv(t_paths, d_paths))


def conditional_pvalue(draws: np.ndarray, t_obs: float, sided: str = "upper") -> float:
    """Monte Carlo tail probability of t_obs among the draws."""
    draws = np.asarray(draws, dtype=float)
    if draws.size < 1:
        raise ValueError("need at least one draw")
    upper = float(np.mean(draws >= t_obs))
    lower = float(np.mean(draws <= t_obs))
    key = sided.replace("-", "_").lower()
    if key == "upper":
        return upper
    if key == "lower":
        return lower
    if key == "two_sided":
        return min(1.0, 2.0 * min(upper, lower))
    raise ValueError(f"sided must be upper, lower, or two_sided; got {sided!r}")


class Tails(NamedTuple):
    """Exact conditional tails of T at each law's t_obs, one entry per law.

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


def _pooled_pvalues(laws) -> Tails:
    """P(T >= t_obs | pass) and P(T <= t_obs | pass) for a batch of
    Gaussian-randomization laws, each at its own t_obs, by quadrature.

    t given d is normal with mean -a.(u d + offset) / prec and sd
    c / sqrt(prec), prec = c^2 + |a|^2, so integrating t out leaves d the
    weight exp(-A d^2/2 + B d) (d + lam)^jac on d > 0.  The d window spans
    _QUAD_WINDOW curvature widths about the mode (the slope counts when
    the mode is clipped at 0) and is cut where the normal tail's argument
    crosses -+_QUAD_STEP_Z: a small randomization scale makes that tail a
    near-step in d.  Rows whose full and half rules differ by more than
    _QUAD_TOL are redone on twice the panels; QuadratureError if that
    never settles."""
    for law in laws:
        _require_gaussian(law)
    a = np.stack([law.slope for law in laws])
    u = np.stack([law.u for law in laws])
    e = np.stack([law.offset for law in laws])
    lam = np.array([law.lam for law in laws])
    c = np.array([law.gaussian_scale for law in laws])
    t_obs = np.array([law.t_obs for law in laws])
    jac = np.array([law.jacobian_exponent for law in laws], dtype=float)

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

    m = len(laws)
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
            return Tails(upper, lower, error, nodes)
        panels *= 2
    raise QuadratureError(
        f"passed-screen tail not converged for {todo.size} of {m} laws: error "
        f"{float(np.nanmax(error[todo])):.3g} > tol {_QUAD_TOL:.3g} at {panels // 2} panels"
    )


def effective_sample_size(x: np.ndarray) -> float:
    """ESS from the initial monotone positive sequence of autocorrelation
    pair sums, capped at the chain length."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 4 or float(np.var(x)) == 0.0:
        return float(n)
    xc = x - x.mean()
    nfft = 1 << int(math.ceil(math.log2(2 * n)))
    f = np.fft.rfft(xc, nfft)
    acov = np.fft.irfft(f * np.conjugate(f))[:n] / n
    if acov[0] <= 0:
        return float(n)
    rho = acov / acov[0]
    tau = 0.0
    prev = math.inf
    for k in range(0, n - 1, 2):
        pair = rho[k] + rho[k + 1]
        if pair <= 0:
            break
        pair = min(pair, prev)
        prev = pair
        tau += 2.0 * pair
    tau -= 1.0
    if tau <= 0:
        return float(n)
    return float(min(n, n / tau))


def geweke_zscore(x: np.ndarray, first: float = 0.1, last: float = 0.5) -> float:
    """Z-score of the mean difference between the first and last chain
    segments, with autocorrelation-adjusted variances."""
    x = np.asarray(x, dtype=float)
    n = x.size
    a = x[: max(int(first * n), 2)]
    b = x[-max(int(last * n), 2):]
    va = float(np.var(a, ddof=1)) / effective_sample_size(a)
    vb = float(np.var(b, ddof=1)) / effective_sample_size(b)
    if va + vb == 0:
        return 0.0
    return float((a.mean() - b.mean()) / math.sqrt(va + vb))


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
    grid: np.ndarray = None,
    null_value: float = 0.0,
) -> InferenceReport:
    """Confidence interval as the hull of nulls whose two-sided
    conditional p-value stays >= alpha, plus p-values at null_value.
    Every p-value is an exact tail from _pooled_pvalues.

    The screen's omega and u are held fixed across the grid; the
    statistic's complement O and covariance W_ST are rebuilt per tested
    null.  The grid argument sets the initial span and resolution
    (default 201 points over beta_hat +- 8 SE); expansion proceeds until
    both endpoints are excluded or reported unbounded.
    """
    require_prepared(data)
    if not pretest.passed:
        raise BranchError("screen did not pass; invert the weak-instrument branch instead")
    if pretest.scale is None or pretest.scale <= 0:
        raise SamplerError("inversion needs the Gaussian randomization recorded by the screen")
    beta_hat = tsls_estimate(data)
    se = tsls_standard_error(data)
    if grid is None:
        center, halfwidth, n_points = beta_hat, 8.0 * se, 201
    else:
        grid = np.asarray(grid, dtype=float)
        if grid.size < 3 or not (grid.min() <= beta_hat <= grid.max()):
            raise ValueError("grid needs >= 3 points and must cover beta_hat")
        center = 0.5 * (grid.min() + grid.max())
        halfwidth = 0.5 * (grid.max() - grid.min())
        n_points = grid.size

    def pfn(xs):
        laws = [
            build_law_tsls(data, b0, pretest, covariance_estimates(data, b0))
            for b0 in xs
        ]
        return _pooled_pvalues(laws).two_sided

    interval, _, _, grid_info = invert_pvalue_curve(
        pfn, center, halfwidth, alpha, n_points=n_points
    )

    est0 = covariance_estimates(data, null_value)
    naive = tsls_stat(data, null_value, est0)
    tails = _pooled_pvalues([build_law_tsls(data, null_value, pretest, est0)])
    q = float(min(tails.upper[0], tails.lower[0]))
    err = float(tails.error[0])
    return InferenceReport(
        beta0=float(null_value),
        conditional_pvalue=float(tails.two_sided[0]),
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
            "quadrature_nodes": int(tails.nodes[0]),
            # Monte Carlo draws that would match the quadrature's accuracy
            "ess": q * (1.0 - q) / max(err, np.finfo(float).eps) ** 2,
            "grid": grid_info,
        },
    )
