"""First-stage F-test and its randomized convex reformulation.

The screening rule F >= C0 is algebraically the event ||S|| >= lambda
with lambda^2 = C0 * (p/dof) * RSS, dof the residual degrees of freedom
(Moments.dof), which is the no-randomization case of the penalized
program

    min_v  0.5 ||v - S||^2 + lambda ||v||_2 - omega'v,   omega ~ N(0, c^2 I).

The program has a closed-form solution (the l2 prox applied to S + omega);
its polar decomposition v_hat = d * u is what conditional inference
conditions on.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFirstStageError, DimensionError
from .model import IVDataset, Moments, _dot, _item, require_prepared


@dataclass(frozen=True)
class RandomizationLaw:
    """Gaussian randomization omega ~ N(0, scale^2 I_p).

    Draws come from a counter-based generator (Philox) keyed by seed, so
    a recorded (seed, scale) pair reproduces omega bit-exactly.  The
    density also takes an array of scales, one per screen of a batch.
    """

    scale: float
    seed: int

    def __post_init__(self):
        if not np.all(self.scale > 0):
            raise ValueError(f"randomization scale must be positive, got {self.scale}")

    def draw(self, p: int) -> np.ndarray:
        rng = np.random.Generator(np.random.Philox(self.seed))
        return rng.normal(0.0, self.scale, size=p)

    def log_density(self, x: np.ndarray) -> float:
        """Unnormalized log density of omega at x (..., p)."""
        x = np.asarray(x, dtype=float)
        return _item(-0.5 * _dot(x, x) / self.scale**2)


@dataclass(frozen=True)
class PretestOutcome:
    """Everything the conditional analyses need to replay the pre-test.
    A batch of screens stacks every per-replication field on a leading axis."""

    f_stat: float
    threshold_c0: float
    lam: float
    omega: np.ndarray
    v_hat: np.ndarray
    d: float
    u: np.ndarray
    passed: bool
    scale: float
    seed: int


def f_statistic(data: IVDataset | Moments) -> float:
    """First-stage F: [sum (Z_i'gamma_hat)^2 / p] / [RSS / dof]."""
    m = require_prepared(data)
    if np.any(m.rss <= 1e-12 * np.maximum(m.dd, 1e-300)):
        raise DegenerateFirstStageError(
            "first-stage residual sum of squares is zero (perfect fit)"
        )
    return _item(m.f)


def penalty_lambda(data: IVDataset | Moments, c0: float) -> float:
    """Penalty level lambda = sqrt(C0 * (p/dof) * RSS).

    By construction I(F >= C0) = I(||S|| >= lambda).
    """
    if c0 < 0:
        raise ValueError(f"threshold C0 must be nonnegative, got {c0}")
    m = require_prepared(data)
    return _item(np.sqrt(c0 * (m.p / m.dof) * m.rss))


def default_scale(data: IVDataset | Moments) -> float:
    """Default randomization standard deviation 0.5*sqrt(n/(n-1))*std(S).

    std is over the p components of S.  With a single instrument that
    spread is identically zero, so fall back to the typical size of one
    component's noise, sqrt(Omega_hat_22) (the first-stage error
    variance), which the componentwise spread estimates when p is large.
    """
    m = require_prepared(data)
    base = np.std(m.s, axis=-1)
    base = np.where(base > 0, base, np.sqrt(m.omega[..., 1, 1]))
    if np.any(base <= 0):
        raise DegenerateFirstStageError("cannot set a randomization scale: S and the first-stage residuals are both degenerate")
    return _item(0.5 * np.sqrt(m.n / (m.n - 1)) * base)


def _l2_prox(s, omega, lam, scale, seed, c0, f_stat) -> PretestOutcome:
    """The program's solution at w = S + omega, for one screen or, with a
    leading batch axis on s, omega and the scalars, for every row.

    The minimizer is the l2-norm prox at w:
    v_hat = (1 - lambda/||w||) w when ||w|| > lambda, else 0.
    Ties ||w|| = lambda resolve to not-passed.
    """
    w = s + omega
    norm = np.linalg.norm(w, axis=-1)
    passed = norm > lam
    d = np.where(passed, norm - lam, 0.0)
    u = np.where(passed[..., None], w / np.where(passed, norm, 1.0)[..., None], 0.0)
    return PretestOutcome(
        f_stat=_item(np.asarray(f_stat, dtype=float)),
        threshold_c0=float(c0),
        lam=_item(np.asarray(lam, dtype=float)),
        omega=omega,
        v_hat=d[..., None] * u,
        d=_item(d),
        u=u,
        passed=_item(passed),
        scale=scale,
        seed=seed,
    )


def solve_randomized(
    s: np.ndarray, lam: float, law: RandomizationLaw, c0: float = 10.0, f_stat: float = float("nan")
) -> PretestOutcome:
    """Solve min_v 0.5||v - S||^2 + lambda ||v||_2 - omega'v for a fresh
    omega drawn from law (see _l2_prox)."""
    s = np.asarray(s, dtype=float)
    if s.ndim != 1:
        raise DimensionError("S must be a vector")
    if lam < 0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")
    return _l2_prox(s, law.draw(s.shape[0]), lam, law.scale, law.seed, c0, f_stat)


def run_pretest(
    data: IVDataset, c0: float = 10.0, seed: int = 0, scale: float | None = None
) -> PretestOutcome:
    """Convenience wrapper: F statistic, penalty, and randomized program
    for a row dataset or its Moments; scale defaults to default_scale(data)."""
    law = RandomizationLaw(scale=default_scale(data) if scale is None else scale, seed=seed)
    lam = penalty_lambda(data, c0)
    return solve_randomized(require_prepared(data).s, lam, law, c0=c0, f_stat=f_statistic(data))
