"""Data-generating process and the naive-versus-conditional experiments.

Each replication draws a fresh design, instruments included.  Every
experiment reads a replication only through its Moments, so it draws
those exactly, from Bartlett's decomposition of the Wishart law of the
cross-products, without rows: a replication costs O(p^2) draws whatever
n is.  The strength-screen experiments run one batched Moments value
through the screen, the statistics and the naive references, the same
functions a single dataset uses, and build and integrate the
conditional laws of a branch's replications in one call.  The Lasso
experiment selects on each row m[i] of the batch and integrates all
the selection laws in one QMC call.  Only generate draws rows, to build
a dataset.  A brute-force rejection oracle, written independently of
Moments, provides ground truth for the conditional null law: simulate,
screen with fresh randomization, keep the test statistic from draws
that land next to the observed conditioning variables.
"""

import math
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from .clr import clr_law
from .errors import ExperimentError, TruncationError
from .lasso import (
    _QMC_POINTS,
    LassoLaw,
    _pooled_lasso_pvalues,
    build_law_lasso,
    default_lasso_penalty,
    default_lasso_scale,
    solve_randomized_lasso,
)
from .model import (
    IVDataset,
    Moments,
    covariance_estimates,
    tsls_estimate,
    tsls_standard_error,
)
from .pretest import (
    _SEED_MASK,
    PretestOutcome,
    RandomizationLaw,
    _generator,
    _l2_prox,
    default_scale,
    f_statistic,
    penalty_lambda,
)
from .sampler import (
    SamplerConfig,
    _pooled_pvalues,
    _wald_z,
    build_law_tsls,
    sobol_sets,
    wald_answer,
)
from .teststats import tsls_stat


@dataclass(frozen=True)
class DGPConfig:
    """Linear IV data-generating process with Gaussian instruments.

    Z and the errors are Gaussian, which the experiments rely on: they
    draw a replication's Moments exactly from the Wishart law of the
    cross-products (_draw_moments) rather than from rows."""

    n: int
    p: int
    beta_star: float
    gamma_star: np.ndarray
    sigma_star: np.ndarray
    seed: int = 0

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"need p >= 1 instruments, got p = {self.p}")
        gamma = np.atleast_1d(np.asarray(self.gamma_star, dtype=float))
        if gamma.size == 1:
            gamma = np.full(self.p, float(gamma[0]))
        object.__setattr__(self, "gamma_star", gamma)
        sigma = np.asarray(self.sigma_star, dtype=float)
        object.__setattr__(self, "sigma_star", sigma)
        for name, value in (("beta_star", self.beta_star), ("gamma_star", gamma), ("sigma_star", sigma)):
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite, got {value}")
        # the Bartlett draw needs chi^2(n - 1 - j) for j <= p + 1
        if self.n <= self.p + 2:
            raise ValueError(f"need n > p + 2 observations, got n = {self.n}, p = {self.p}")
        if gamma.shape != (self.p,):
            raise ValueError("gamma_star must have length p")
        if sigma.shape != (2, 2) or abs(sigma[0, 1] - sigma[1, 0]) > 1e-12:
            raise ValueError("sigma_star must be symmetric 2x2")
        if np.linalg.eigvalsh(sigma)[0] <= 0:
            raise ValueError("sigma_star must be positive definite")
        if abs(sigma[0, 1]) >= math.sqrt(sigma[0, 0] * sigma[1, 1]):
            raise ValueError("error correlation must be strictly inside (-1, 1)")


def dgp_from_r(
    r: float,
    sigma12: float,
    n: int = 1000,
    p: int = 10,
    beta_star: float = 1.0,
    seed: int = 0,
) -> DGPConfig:
    """The benchmark design: gamma* = r * ones, unit error variances."""
    return DGPConfig(
        n=n,
        p=p,
        beta_star=beta_star,
        gamma_star=float(r),  # DGPConfig broadcasts it once p is checked
        sigma_star=np.array([[1.0, sigma12], [sigma12, 1.0]]),
        seed=seed,
    )


@dataclass(frozen=True)
class ExperimentResult:
    """Pooled outcome of one experiment cell.

    Coverage entries are taken over the replications on the cell's
    branch; their binomial standard errors ride along."""

    passing_rate: float
    naive_coverage: float
    conditional_coverage: float
    pvalue_samples: np.ndarray
    reps: int
    passing_se: float
    naive_se: float
    conditional_se: float
    ks_statistic: Optional[float] = None
    ks_pvalue: Optional[float] = None
    naive_pvalue_samples: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(
            self, "pvalue_samples", np.asarray(self.pvalue_samples, dtype=float)
        )
        for name in ("passing_rate", "naive_coverage", "conditional_coverage"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if self.reps < 1:
            raise ValueError("reps must be at least 1")


@dataclass(frozen=True)
class ExperimentGrid:
    """Grid of (r, sigma12) cells sharing a base design."""

    r_values: tuple
    sigma12_values: tuple
    n: int = 1000
    p: int = 10
    beta_star: float = 1.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "r_values", tuple(float(r) for r in self.r_values))
        object.__setattr__(
            self, "sigma12_values", tuple(float(s) for s in self.sigma12_values)
        )
        if not self.r_values or not self.sigma12_values:
            raise ValueError("grid must contain at least one cell")


@dataclass(frozen=True)
class CoverageCell:
    r: float
    sigma12: float
    result: ExperimentResult


def _child_seed(seed: int, *tags: int) -> int:
    ss = np.random.SeedSequence([seed & _SEED_MASK, *tags])
    return int(ss.generate_state(1, np.uint64)[0]) & _SEED_MASK


def _draw_batch(config: DGPConfig, reps: int, rng):
    """reps centered datasets as stacked arrays (Z, Y, D)."""
    n, p = config.n, config.p
    z = rng.standard_normal((reps, n, p))
    chol = np.linalg.cholesky(config.sigma_star)
    eps = rng.standard_normal((reps, n, 2)) @ chol.T
    d = z @ config.gamma_star + eps[:, :, 1]
    y = d * config.beta_star + eps[:, :, 0]
    z -= z.mean(axis=1, keepdims=True)
    d -= d.mean(axis=1, keepdims=True)
    y -= y.mean(axis=1, keepdims=True)
    return z, y, d


def _draw_moments(config: DGPConfig, reps: int, rng) -> Moments:
    """The Moments of reps centered datasets, drawn exactly without rows.

    The centered cross-product of n standardized rows [Z e] is
    Wishart_{p+2}(n - 1, I).  Its Bartlett factor T is lower triangular,
    with T_jj^2 ~ chi^2(n - 1 - j) and standard normals below the diagonal
    (Anderson, An Introduction to Multivariate Statistical Analysis, 7.2).
    [Z Y D] = [Z e] M for a fixed M with M_zz = I, so the cross-moments are
    G'G with G = T'M.  G's Z block is [T_zz' 0], so L = T_zz factors Z'Z,
    L^-1 Z'Y and L^-1 Z'D are the top of G's Y and D columns, and their
    last two rows are a B with B'B the residual cross-product: one
    triangular matvec and (p+2)(p+3)/2 draws per replication, whatever n is."""
    n, p = config.n, config.p
    k = p + 2
    chol = np.linalg.cholesky(config.sigma_star)
    m = np.zeros((k, 2))  # the Y and D columns of M
    m[:p, 1] = config.gamma_star  # D = Z gamma* + e chol[1]
    m[p:, 1] = chol[1]
    m[:, 0] = config.beta_star * m[:, 1]  # Y = D beta* + e chol[0]
    m[p:, 0] += chol[0]
    t = np.zeros((reps, k, k))
    below = np.tril_indices(k, -1)
    t[:, below[0], below[1]] = rng.standard_normal((reps, below[0].size))
    diag = np.arange(k)
    t[:, diag, diag] = np.sqrt(rng.chisquare(n - 1 - diag, size=(reps, k)))
    y, d = np.swapaxes(m.T @ t, 0, 1)  # the Y and D columns of G
    # contiguous copies: einsum over a strided view sums in another order
    return Moments(
        n=n, chol=t[:, :p, :p], s=d[:, :p].copy(), sy=y[:, :p].copy(), b=np.stack([d[:, p:], y[:, p:]], axis=-1),
    )


def generate(config: DGPConfig) -> IVDataset:
    """One dataset of centered rows drawn from the design; the library
    prepares it on first use."""
    z, y, d = _draw_batch(config, 1, _generator(config.seed, 20))
    return IVDataset(Y=y[0], D=d[0], Z=z[0])


def _screen(mom: Moments, c0: float, rng) -> PretestOutcome:
    """Randomized strength screen of every replication, fresh omega each."""
    scale = default_scale(mom)
    omega = rng.standard_normal(mom.s.shape) * scale[:, None]
    return _l2_prox(mom.s, omega, penalty_lambda(mom, c0), scale, 0, c0, f_statistic(mom))


def _row(batch, i):
    """Replication i (or the replications of an index array i) of a batched
    PretestOutcome: every field with a batch axis is indexed, the shared
    scalars are kept."""
    return replace(batch, **{
        f.name: getattr(batch, f.name)[i] for f in fields(batch) if np.ndim(getattr(batch, f.name))
    })


def _result(reps, passing_rate, cond, naive, naive_covers, alpha) -> ExperimentResult:
    """A cell's result from the conditional and naive p-values of the
    replications on its branch and whether their naive intervals cover:
    coverages with binomial SEs and the conditional p-values' KS test."""
    from scipy import stats  # deferred: scipy.stats more than doubles ivselect.cli's import time

    def se(rate, k):
        return math.sqrt(max(rate * (1.0 - rate), 0.0) / k)

    m = cond.size
    naive_cov = float(np.mean(naive_covers))
    cond_cov = float(np.mean(cond >= alpha))
    ks = stats.kstest(cond, "uniform")
    return ExperimentResult(
        passing_rate=passing_rate,
        naive_coverage=naive_cov,
        conditional_coverage=cond_cov,
        pvalue_samples=cond,
        reps=reps,
        passing_se=se(passing_rate, reps),
        naive_se=se(naive_cov, m),
        conditional_se=se(cond_cov, m),
        ks_statistic=float(ks.statistic),
        ks_pvalue=float(ks.pvalue),
        naive_pvalue_samples=naive,
    )


def uniformity_experiment(
    config: DGPConfig,
    c0: float,
    reps: int,
    alpha: float = 0.05,
) -> ExperimentResult:
    """Null conditional p-values across replications that pass the screen.

    Generates under the null (beta0 = beta_star), screens with fresh
    randomization, integrates each passing replication's conditional law
    exactly, and returns the p-values with their uniformity KS test."""
    if reps < 100:
        raise ValueError("need reps >= 100")
    beta0 = config.beta_star
    rng = _generator(config.seed, 21)
    mom = _draw_moments(config, reps, rng)
    screen = _screen(mom, c0, rng)
    passing = np.nonzero(screen.passed)[0]
    if passing.size < 50:
        raise ExperimentError(
            f"only {passing.size} of {reps} replications passed the screen"
        )
    est = covariance_estimates(mom, beta0)
    law = build_law_tsls(mom[passing], beta0, _row(screen, passing), est[passing])
    two = _pooled_pvalues(law).two_sided
    naive_two = tsls_stat(mom, beta0, est).naive_pvalue[passing]
    wald_covers = np.abs(tsls_estimate(mom) - beta0) <= _wald_z(alpha) * tsls_standard_error(mom)
    return _result(reps, passing.size / reps, two, naive_two, wald_covers[passing], alpha)


def _clr_fail_cell(config, c0, alpha, reps) -> ExperimentResult:
    """Coverage on the complementary branch: F < C0, inference by the
    conditional likelihood-ratio tail with and without the screen's
    truncation."""
    beta0 = config.beta_star
    rng = _generator(config.seed, 22)
    mom = _draw_moments(config, reps, rng)
    failing = np.nonzero(f_statistic(mom) < c0)[0]
    if failing.size < 50:
        raise ExperimentError(
            f"only {failing.size} of {reps} replications failed the screen"
        )
    lam_sq = penalty_lambda(mom, c0) ** 2
    sub = mom[failing]
    cond, underflow, _, _ = clr_law(sub, beta0, lam_sq[failing])
    if underflow.any():
        raise TruncationError(
            f"replication {failing[underflow][0]}: conditioning event mass underflowed, "
            "though the replication failed the screen"
        )
    naive = clr_law(sub, beta0).tail
    return _result(reps, 1.0 - failing.size / reps, cond, naive, naive >= alpha, alpha)


def coverage_experiment(
    grid: ExperimentGrid,
    c0: float,
    alpha: float,
    reps: int,
    branch: str = "tsls_pass",
) -> list:
    """Per-cell passing rates and coverages across the (r, sigma12) grid.
    Every cell's DGPConfig is built before the first draw, so a design
    no cell can draw is refused before any cell runs."""
    if branch not in ("tsls_pass", "clr_fail"):
        raise ValueError(f"unknown branch {branch!r}")
    if reps < 200:
        raise ValueError("need reps >= 200 per cell")
    designs = [
        (r, s12, dgp_from_r(r, s12, n=grid.n, p=grid.p, beta_star=grid.beta_star,
                            seed=_child_seed(grid.seed, 40, i, j)))
        for i, r in enumerate(grid.r_values)
        for j, s12 in enumerate(grid.sigma12_values)
    ]
    cells = []
    for r, s12, config in designs:
        if branch == "tsls_pass":
            res = uniformity_experiment(config, c0, reps, alpha=alpha)
        else:
            res = _clr_fail_cell(config, c0, alpha, reps)
        cells.append(CoverageCell(r=r, sigma12=s12, result=res))
    return cells


def lasso_uniformity_experiment(
    config: DGPConfig,
    reps: int,
    alpha: float = 0.05,
    sampler: SamplerConfig = None,
) -> ExperimentResult:
    """Null conditional p-values after randomized-Lasso selection.

    Each replication, a row of one exact moment draw, tunes its penalty by
    the Gaussian rule, runs the randomized Lasso and, when the support is
    non-empty, builds the selection-event law of the post-selection
    statistic at beta_star.  All the laws are integrated in one QMC call
    over one scrambled Sobol set of sampler.n_samples points keyed by
    sampler.seed (without a sampler, 1024 points keyed by config.seed).
    The passing rate is the non-empty-selection rate."""
    if reps < 100:
        raise ValueError("need reps >= 100")
    beta0 = config.beta_star
    mom = _draw_moments(config, reps, _generator(config.seed, 23))
    laws, naive_ps, covers = [], [], []
    for i in range(reps):
        row = mom[i]
        lam = default_lasso_penalty(row, seed=_child_seed(config.seed, 23, i, 0))
        law = RandomizationLaw(scale=default_lasso_scale(row), seed=_child_seed(config.seed, 23, i, 1))
        sel = solve_randomized_lasso(row, lam, law)
        if not sel.support_E:
            continue
        laws.append(build_law_lasso(row, beta0, sel, covariance_estimates(row, beta0)))
        naive = wald_answer(row.select(sel.support_E), beta0, alpha)
        naive_ps.append(naive.pvalue)
        covers.append(naive.interval.contains(beta0))
    if len(laws) < 50:
        raise ExperimentError(
            f"only {len(laws)} of {reps} replications selected any instrument"
        )
    cfg = sampler if sampler is not None else SamplerConfig(n_samples=_QMC_POINTS, seed=config.seed)
    # supports differ per replication, so the laws are stacked field by field
    law = LassoLaw(**{f.name: np.stack([getattr(w, f.name) for w in laws]) for f in fields(LassoLaw)})
    _, two = _pooled_lasso_pvalues(law, sobol_sets(cfg, config.p, [0])[0])
    return _result(reps, len(laws) / reps, two, np.asarray(naive_ps), covers, alpha)


# replications rejection_oracle simulates per pass
_ORACLE_CHUNK = 20000


def rejection_oracle(
    config: DGPConfig,
    beta0: float,
    c0: float,
    law: RandomizationLaw,
    reps: int,
    z_fixed: np.ndarray = None,
    u_ref: np.ndarray = None,
    o_ref: np.ndarray = None,
    u_tol: float = None,
    o_tol: float = None,
    min_retained: int = 500,
) -> np.ndarray:
    """Ground-truth draws from the conditional null law of T(beta0).

    Simulates (Y, D) on a fixed instrument matrix under the null,
    screens with fresh randomization, and keeps the statistic from
    passing draws whose (u, O) land within the stated widths of the
    reference values.  Leaving a reference or width unset skips that
    part of the conditioning, so with none set this is the plain
    passing-only distribution.

    The statistics are written out here from the raw draws rather than
    taken from Moments: this is the reference the engine built on Moments
    is checked against, so it must not share that code."""
    if reps < 1:
        raise ValueError("need at least one replication")
    n, p = config.n, config.p
    rng = _generator(config.seed, 24)
    if z_fixed is None:
        z = rng.standard_normal((n, p))
    else:
        z = np.array(z_fixed, dtype=float)
        if z.shape != (n, p):
            raise ValueError(f"z_fixed must have shape {(n, p)}")
    z = z - z.mean(axis=0)
    ztz = z.T @ z
    vals, vecs = np.linalg.eigh(ztz)
    vals = np.maximum(vals, 1e-12)
    amat = (vecs * vals**-0.5) @ vecs.T @ z.T  # S = amat @ D
    chol = np.linalg.cholesky(config.sigma_star)
    uref = None
    if u_ref is not None and u_tol is not None:
        uref = np.asarray(u_ref, dtype=float)
        uref = uref / np.linalg.norm(uref)
    oref = np.asarray(o_ref, dtype=float) if o_ref is not None and o_tol is not None else None

    kept = []
    done = 0
    dof = n - p
    while done < reps:
        m = min(_ORACLE_CHUNK, reps - done)
        done += m
        eps = rng.standard_normal((m, n, 2)) @ chol.T
        d = z @ config.gamma_star + eps[:, :, 1]
        y = d * beta0 + eps[:, :, 0]
        dm = d.mean(axis=1)
        ym = y.mean(axis=1)
        s = np.einsum("pn,rn->rp", amat, d)
        sy = np.einsum("pn,rn->rp", amat, y)
        s2 = np.einsum("rp,rp->r", s, s)
        dd = np.einsum("rn,rn->r", d, d) - n * dm**2
        yy = np.einsum("rn,rn->r", y, y) - n * ym**2
        yd = np.einsum("rn,rn->r", y, d) - n * ym * dm
        rss = dd - s2
        o00 = (yy - np.einsum("rp,rp->r", sy, sy)) / dof
        o01 = (yd - np.einsum("rp,rp->r", sy, s)) / dof
        o11 = (dd - s2) / dof
        s11 = o00 - 2.0 * beta0 * o01 + beta0**2 * o11
        s12 = o01 - beta0 * o11
        t = (np.einsum("rp,rp->r", sy, s) - beta0 * s2) / np.sqrt(s11 * s2)
        lam = np.sqrt(c0 * (p / dof) * rss)
        w = s + rng.standard_normal((m, p)) * law.scale
        wn = np.linalg.norm(w, axis=1)
        mask = wn > lam
        if uref is not None:
            u = w / np.maximum(wn, 1e-300)[:, None]
            cosang = np.clip(u @ uref, -1.0, 1.0)
            mask &= np.arccos(cosang) <= u_tol
        if oref is not None:
            w_st_coef = s12 / np.sqrt(s11 * s2)
            o_stat = s - (w_st_coef * t)[:, None] * s
            mask &= np.max(np.abs(o_stat - oref[None, :]), axis=1) <= o_tol
        kept.append(t[mask])
    out = np.concatenate(kept) if kept else np.empty(0)
    if out.size < min_retained:
        raise ExperimentError(
            f"oracle retained {out.size} of {reps} simulations "
            f"(acceptance rate {out.size / max(reps, 1):.3e}); "
            "increase reps or widen the conditioning neighborhood"
        )
    return out


def _fmt(x) -> str:
    return repr(float(x))


def pvalue_cdf_csv(pvals) -> str:
    """Empirical CDF table, columns p_sorted and ecdf."""
    srt = np.sort(np.asarray(pvals, dtype=float))
    if srt.size == 0:
        raise ValueError("no p-values to tabulate")
    lines = ["p_sorted,ecdf"]
    m = srt.size
    lines.extend(f"{_fmt(v)},{_fmt((i + 1) / m)}" for i, v in enumerate(srt))
    return "\n".join(lines) + "\n"


def coverage_csv(cells) -> str:
    """Coverage table, one row per grid cell."""
    lines = ["r,sigma12,passing_rate,naive_cov,cond_cov,se"]
    for cell in cells:
        res = cell.result
        lines.append(
            ",".join(
                [
                    _fmt(cell.r),
                    _fmt(cell.sigma12),
                    _fmt(res.passing_rate),
                    _fmt(res.naive_coverage),
                    _fmt(res.conditional_coverage),
                    _fmt(res.conditional_se),
                ]
            )
        )
    return "\n".join(lines) + "\n"
