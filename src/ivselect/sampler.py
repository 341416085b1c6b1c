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
d, done by Gauss-Legendre quadrature.  The Gibbs sampler sample_paths
(exact in t, inverse-CDF or slice steps in d) is the Monte Carlo
reference; no product path calls it.  SamplerConfig steers it and the
Lasso QMC engine only: sample_paths reads all four fields, the QMC
engine its seed and n_samples.  The engine's scrambled Sobol sets
(sobol_sets, all of an answer's in one pass) and its truncated-normal
inverse-CDF step (_truncnorm_ppf) live here too.

A ConditionalLaw follows the batch convention of model.Moments: an
array of tested nulls, or a batch of replications, gives one law whose
fields carry the batch axis, and _pooled_pvalues integrates all of its
laws in one call.
"""

from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, NamedTuple, Optional

import numpy as np

from .clr import _QUAD_NODES, _QUAD_TOL, _composite_rule, _refine
from .errors import (
    BranchError,
    DegenerateFirstStageError,
    QuadratureError,
    SamplerError,
)
from .model import (
    IVDataset,
    Moments,
    _dot,
    _item,
    covariance_estimates,
    require_prepared,
    tsls_estimate,
    tsls_standard_error,
)
from .pretest import PretestOutcome, RandomizationLaw, _generator
from .report import Answer, InferenceReport, Interval, answer, build_report
from .teststats import _normal_tails, _tsls_t, tsls_stat

_SLICE_MAX_EXPAND = 512
_SLICE_MAX_SHRINK = 256


@dataclass(frozen=True)
class SamplerConfig:
    n_samples: int = 10000
    burn_in: int = 2000
    seed: int = 0
    chains: int = 4

    def __post_init__(self):
        for name, least in (("n_samples", 1), ("burn_in", 0), ("chains", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"need {name} >= {least}, got {name} = {getattr(self, name)}")


@dataclass(frozen=True)
class ConditionalLaw:
    """Unnormalized conditional density of (t, d) given screen passage,
    the active direction u, and the statistic's complement O.

    One value holds one law or a batch of laws, one per tested null or
    replication: w_st, o and u end in the instrument axis (p,), and every
    field but w_t and jacobian_exponent may carry leading batch axes that
    broadcast together.  w_t, the variance of T, must be 1: T is
    standardized, and the engines take its prior as N(0, 1)."""

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
        if self.w_t != 1.0:
            raise ValueError(f"w_t = {self.w_t}: T is standardized, so w_t must be 1")
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
        return -self.w_st

    @property
    def offset(self) -> np.ndarray:
        """State-free part of g's argument."""
        return _col(self.lam) * self.u - self.o

    def g_argument(self, t, d) -> np.ndarray:
        return self.slope * _col(t) + self.u * _col(d) + self.offset

    def log_density(self, t, d) -> float:
        t, d = np.asarray(t, dtype=float), np.asarray(d, dtype=float)
        val = -0.5 * t * t + self.g_log_density(self.g_argument(t, d))
        if self.jacobian_exponent:
            with np.errstate(divide="ignore", invalid="ignore"):
                val = val + self.jacobian_exponent * np.log(d + self.lam)
        return _item(np.where(d > 0, val, -np.inf))


def _col(x) -> np.ndarray:
    """x with a trailing axis, to scale each law's (p,) vectors."""
    return np.asarray(x, dtype=float)[..., None]


def build_law_tsls(
    data: IVDataset | Moments, beta0: float, pretest: PretestOutcome, est: np.ndarray
) -> ConditionalLaw:
    """Conditional (t, d) law for testing beta = beta0 after the screen
    passed.  est is Sigma_hat evaluated at this beta0.

    An array of nulls, or batched moments with their screens and
    estimates, gives one ConditionalLaw whose fields carry that batch
    axis; one null on one dataset gives a scalar t_obs and (p,) vectors."""
    m = require_prepared(data)
    if not np.all(pretest.passed):
        raise BranchError("screen did not pass; this law conditions on passing")
    if np.any(m.s2 <= 0):
        raise DegenerateFirstStageError("S = 0: nothing to condition on")
    s11, s12 = est[..., 0, 0], est[..., 0, 1]
    w_st = _col(s12) * m.s / _col(np.sqrt(s11 * m.s2))
    t_obs = _tsls_t(m, beta0, est)
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


def _truncnorm_ppf(u, lo, hi):
    """Quantile u of the standard normal truncated to [lo, hi], row-wise,
    and the log mass log(Phi(hi) - Phi(lo)) of the bounds.

    Rows with lo + hi > 0 are mirrored, so log Phi is always inverted on
    the side away from the mass, where it keeps full relative precision
    far into either tail; infinite bounds need no special case.  When
    every mirrored lower bound a is -inf (one-sided bounds, as on the
    Lasso's sign orthants), log Phi(a) = -inf reduces the general
    formula to log_mass = log Phi(b) and x = ndtri_exp(log v + log_mass)
    exactly, so log Phi(a) and the steps it feeds are skipped."""
    from scipy import special  # deferred: only the Lasso and sample_paths call this

    flip = lo > -hi
    a = np.where(flip, -hi, lo)
    b = np.where(flip, -lo, hi)
    log_b = special.log_ndtr(b)
    log_v = np.where(flip, np.log1p(-u), np.log(u))
    if np.all(a == -np.inf):
        # log(-expm1(-inf)) = 0 and logaddexp(-inf, y) = y; adding that 0
        # turns log Phi's -0.0 into 0.0, as the general formula does
        log_mass = log_b + 0.0
        x = special.ndtri_exp(log_v + log_mass)
    else:
        log_a = special.log_ndtr(a)
        log_mass = log_b + np.log(-np.expm1(log_a - log_b))
        x = special.ndtri_exp(np.logaddexp(log_a, log_v + log_mass))
    return np.clip(np.where(flip, -x, x), lo, hi), log_mass


# bits of a Sobol coordinate: points are multiples of 2^-30, at most 2^30 of them
_SOBOL_BITS = 30
# entry i is bit 29 - i of a coordinate
_HIGH_FIRST = np.uint32(1) << np.arange(_SOBOL_BITS - 1, -1, -1, dtype=np.uint32)


def sobol_sets(config: SamplerConfig, dim: int, scrambles) -> np.ndarray:
    """One scrambled Sobol set per entry k of scrambles, as an (S, N, dim)
    stack: config.n_samples points of [0, 1)^dim, rounded up to a power
    of two N, scrambled by a stream keyed by config.seed and k.  Points
    are clipped away from 0 and 1, so every inverse-CDF draw stays
    finite.  More than 2^30 points is a ValueError, raised before
    anything is allocated.

    The scramble is a linear matrix scramble plus digital shift (LMS +
    shift; Matousek, J. Complexity 1998) on 30 bits, and set k equals
    scipy.stats.qmc.Sobol(dim, rng=_generator(config.seed, 5, k))
    .random_base2(log2 N), clipped, bit for bit.  Direction number v_b is
    read off the unscrambled sequence x as x[2^b] XOR x[2^b - 1].
    Scramble k draws from the first child of that stream, as scipy's
    engine spawns it: the shift's bits (bit b <-> 2^b), then a (dim, 30,
    30) bit matrix L, kept lower-triangular with a unit diagonal.  Each
    v'_b is L v_b over GF(2), row and column i <-> bit 29 - i; point 0 is
    the shift and point i is point i - 1 XOR v'_{ctz(i)}.  All the sets
    are built in one pass on uint32 integers."""
    from scipy.stats import qmc  # deferred: scipy.stats more than doubles ivselect.cli's import time

    log2_n = (config.n_samples - 1).bit_length()
    if log2_n > _SOBOL_BITS:
        raise ValueError(
            f"n_samples = {config.n_samples}: a Sobol set holds at most 2**{_SOBOL_BITS} points"
        )
    x = (qmc.Sobol(dim, scramble=False).random_base2(log2_n) * 2.0**_SOBOL_BITS).astype(np.uint32)
    step = 1 << np.arange(log2_n)
    v = x[step] ^ x[step - 1]  # (log2_n, dim)
    shift = np.empty((len(scrambles), dim), np.uint32)
    cols = np.empty((len(scrambles), dim, _SOBOL_BITS), np.uint32)
    for s, k in enumerate(scrambles):
        rng = _generator(config.seed, 5, k, spawn_key=(0,))
        shift[s] = rng.integers(0, 2, (dim, _SOBOL_BITS), dtype=np.uint32) @ _HIGH_FIRST[::-1]
        # column l of L packed into one integer, row i at bit 29 - i
        cols[s] = _HIGH_FIRST @ rng.integers(0, 2, (dim, _SOBOL_BITS, _SOBOL_BITS), dtype=np.uint32)
    # L's lower triangle (rows i >= l, so bits up to 29 - l) and its unit diagonal
    cols = np.swapaxes((cols & (2 * _HIGH_FIRST - 1)) | _HIGH_FIRST, 1, 2)
    # v'_b is the XOR of the columns l at which v_b has bit 29 - l
    has_bit = (v[:, None, :] & _HIGH_FIRST[:, None]) != 0  # (log2_n, 30, dim)
    scrambled = np.bitwise_xor.reduce(cols[:, None] * has_bit, axis=2)  # (S, log2_n, dim)
    i = np.arange(1, 1 << log2_n)
    ints = np.empty((len(scrambles), i.size + 1, dim), np.uint32)
    ints[:, 0] = shift
    ints[:, 1:] = scrambled[:, np.log2(i & -i).astype(np.intp)]
    np.bitwise_xor.accumulate(ints, axis=1, out=ints)
    points = ints * 2.0**-_SOBOL_BITS
    return np.clip(points, 1e-16, 1.0 - 1e-16, out=points)


def _truncated_normal(rng, mean, sd, size):
    """Exact N(mean, sd^2) draw conditioned on being positive."""
    uu = np.clip(rng.random(size), 1e-16, 1.0 - 1e-16)
    return mean + sd * _truncnorm_ppf(uu, -mean / sd, np.inf)[0]


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


def sample_paths(law: ConditionalLaw, config: SamplerConfig = None):
    """Post-burn-in (t, d) paths of the exact Gibbs sampler on one law,
    for every configured chain.

    Returns two arrays of shape (chains, n_samples); chains start at the
    observed state and differ only through their random streams."""
    config = config if config is not None else SamplerConfig()
    _require_gaussian(law)
    m = config.chains
    rows = lambda v: np.repeat(v[None, :], m, axis=0)
    out = _gibbs_gaussian(
        _generator(config.seed, 4), rows(law.slope), rows(law.u), rows(law.offset),
        np.full(m, law.lam), np.full(m, law.gaussian_scale), law.jacobian_exponent,
        np.full(m, law.t_obs), np.full(m, law.d_obs), config.n_samples, config.burn_in,
    )
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


# the d window spans this many curvature widths either side of the mode
_QUAD_WINDOW = 14.0
# the window's right end is pushed out until the weight there is below
# exp(-_QUAD_TAIL_DROP) of its peak: beyond it the mass is under rounding
_QUAD_TAIL_DROP = 45.0
# the normal tail is within 1e-15 of 0 or 1 beyond this many sds
_QUAD_STEP_Z = 8.0


def _log_weight(d, big_a, big_b, lam, jac):
    """log of exp(-A d^2/2 + B d) (d + lam)^jac, the marginal weight of d."""
    return -0.5 * big_a * d * d + big_b * d + jac * np.log(np.maximum(d + lam, 1e-300))


def _window_tails(rows, panels, rule):
    """Both tails of every row by clr._composite_rule.

    rows holds (e0, e1, e2, e3, A, B, lam, jac, z0, z1) per law: the d
    window [e0, e3] cut into three segments; the weight; and
    z(d) = z0 + z1 d, the standardized distance of t_obs above the mean
    of t given d."""
    big_a, big_b, lam, jac, z0, z1 = (col[:, None] for col in rows[:, 4:].T)
    d, wd = _composite_rule(rows[:, :4], panels, rule)
    log_w = _log_weight(d, big_a, big_b, lam, jac)
    wd *= np.exp(log_w - log_w.max(axis=1, keepdims=True))
    z = z0 + z1 * d
    above, below = _normal_tails(z)
    den = wd.sum(axis=1)
    return (wd * above).sum(axis=1) / den, (wd * below).sum(axis=1) / den


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

    (upper, lower), error, panels = _refine(
        lambda todo, panels, rule: _window_tails(rows[todo], panels, rule), t_obs.size, 1, _QUAD_TOL
    )
    nodes = 3 * panels * _QUAD_NODES
    return Tails(*(v.reshape(shape) for v in (upper, lower, error, nodes)))


def _wald_z(alpha: float) -> float:
    """The two-sided normal critical value of level alpha."""
    return NormalDist().inv_cdf(1.0 - alpha / 2.0)


def wald_interval(data: IVDataset | Moments, alpha: float = 0.05) -> Interval:
    """Naive TSLS confidence interval beta_hat +- z * SE."""
    beta_hat = tsls_estimate(data)
    se = tsls_standard_error(data)
    z = _wald_z(alpha)
    return Interval(beta_hat - z * se, beta_hat + z * se)


def wald_answer(data: IVDataset | Moments, beta0: float, alpha: float = 0.05) -> Answer:
    """Naive TSLS answer: the null-restricted t test's normal p-value at
    beta0, whose SE reads Sigma_hat_11(beta0), and the Wald interval,
    whose SE reads Sigma_hat_11(beta_hat).  The two do not invert one
    test, so beta0 can lie inside the interval with p < alpha."""
    naive = tsls_stat(data, beta0, covariance_estimates(data, beta0))
    return Answer(naive.naive_pvalue, wald_interval(data, alpha))


def invert_ci(
    data: IVDataset,
    pretest: PretestOutcome,
    alpha: float = 0.05,
    null_value: float = 0.0,
) -> InferenceReport:
    """Confidence interval as the hull of nulls whose two-sided
    conditional p-value stays >= alpha, plus p-values at null_value.
    Every p-value is an exact tail from _pooled_pvalues.

    The screen's omega and u are held fixed across the grid; the
    statistic's complement O and covariance W_ST depend on the tested
    null, and each grid round builds the laws of all its nulls in one
    call.  The grid is report.answer's, expanded until both ends are
    excluded or reported unbounded.
    """
    if not pretest.passed:
        raise BranchError("screen did not pass; invert the weak-instrument branch instead")
    if pretest.scale is None or pretest.scale <= 0:
        raise SamplerError("inversion needs the Gaussian randomization recorded by the screen")

    def curve(xs):
        tails = _pooled_pvalues(build_law_tsls(data, xs, pretest, covariance_estimates(data, xs)))
        return (tails.two_sided, *tails)

    cond = answer(curve, data, null_value, alpha)
    _, upper, lower, error, nodes = cond.at_beta0
    q = float(min(upper[0], lower[0]))
    err = float(error[0])
    return build_report(
        null_value, alpha, "tsls", wald_answer(data, null_value, alpha), cond,
        beta_tsls=tsls_estimate(data),
        standard_error=tsls_standard_error(data),
        method="quadrature",
        quadrature_error=err,
        quadrature_nodes=int(nodes[0]),
        # Monte Carlo draws that would match the quadrature's accuracy
        ess=q * (1.0 - q) / max(err, np.finfo(float).eps) ** 2,
    )
