"""Tail law of the conditional likelihood ratio statistic by quadrature.

Given the instrument-strength component Q_R, the null tail of the CLR
statistic reduces to a one-dimensional integral over the cosine u2
between the standardized score and the strength direction: a chi2(p)
tail probability at a u2-dependent threshold, weighted by
K4 * (1 - u2^2)^((p-3)/2).

Conditioning on a failed strength screen {||S||^2 <= lambda^2} confines
the chi2 variable to a u2-dependent interval; the conditional tail is
then the ratio of truncated tail mass to truncated total mass, with u2
values whose interval is empty contributing zero to both.  The screen
here is the non-randomized F-test: lambda is computed with no noise
term.

truncation_from_estimates builds the screen events of many laws (one per
tested null or replication) as one ClrTruncation of arrays, and
clr_tails evaluates them on one (laws x nodes) Simpson grid, refining
only the laws whose error estimate has not converged; clr_tail is its
one-law case.  A law whose conditioning event has mass below 1e-12
comes back as NaN with an underflow flag, and the weak-branch report
lists those nulls.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from .errors import BranchError, CovarianceError, QuadratureError, TruncationError
from .model import (
    IVDataset,
    _item,
    covariance_estimates,
    require_prepared,
    tsls_estimate,
    tsls_standard_error,
)
from .pretest import f_statistic, penalty_lambda
from .report import InferenceReport, invert_pvalue_curve
from .teststats import clr_statistics

_MAX_REFINEMENTS = 6
_MIN_EVENT_MASS = 1e-12
# grid cells per block of laws: bounds the (laws, nodes) temporaries
_BLOCK_NODES = 1 << 19
# below this share of the problem's scale, the quadratic term in sqrt(q_U)
# is treated as absent and the screen event no longer depends on q_U
_D0_FLOOR = 1e-14


def k4_constant(p: int) -> float:
    """Normalizer of the cosine weight: Gamma(p/2) / (sqrt(pi) Gamma((p-1)/2))."""
    if p < 2:
        raise ValueError(f"p = {p}: the cosine-weight integral needs p >= 2")
    return math.exp(special.gammaln(p / 2.0) - special.gammaln((p - 1) / 2.0)) / math.sqrt(
        math.pi
    )


@dataclass(frozen=True)
class QuadratureConfig:
    panels: int = 2048
    endpoint_substitution: bool = True  # integrate over u2 = sin(theta)
    # the truncated integrand has square-root kinks where the screen
    # interval changes regime, so demanding much below 1e-6 stalls
    tol: float = 1e-6

    def __post_init__(self):
        if self.panels < 4 or self.panels % 2:
            raise ValueError("panels must be an even integer >= 4")
        if self.tol <= 0:
            raise ValueError("tol must be positive")


@dataclass(frozen=True)
class ClrTruncation:
    """Coefficients of ||S||^2 = d0*q_U + d1*u2*sqrt(q_R q_U) + d2*q_R.

    The screen-failure event {||S||^2 <= lambda_sq} is, for each fixed
    u2, an interval (possibly empty) in sqrt(q_U).  The coefficients are
    scalars for one law, or arrays that broadcast over a batch of laws.
    """

    d0: float
    d1: float
    d2: float
    lambda_sq: float
    q_R: float
    p: int

    def __post_init__(self):
        if np.any(self.d0 < 0) or np.any(self.d2 < 0):
            raise ValueError("d0 and d2 are squared coefficients; must be >= 0")
        if np.any(self.lambda_sq < 0) or np.any(self.q_R < 0):
            raise ValueError("lambda_sq and q_R must be >= 0")
        if self.p < 2:
            raise ValueError("truncation is defined for p >= 2")


def truncation_from_estimates(
    omega_hat: np.ndarray, beta0: float, lambda_sq: float, q_r: float, p: int
) -> ClrTruncation:
    """Build the screen-event coefficients from the 2x2 reduced-form
    covariance at the tested null.  Arrays of nulls, of covariances
    (..., 2, 2), of lambda_sq and of q_r broadcast to a batch of laws."""
    o = np.asarray(omega_hat, dtype=float)
    o00, o01, o11 = o[..., 0, 0], o[..., 0, 1], o[..., 1, 1]
    det = o00 * o11 - o01**2
    b_quad = o00 - 2.0 * beta0 * o01 + beta0**2 * o11
    if np.any(det <= 0) or np.any(b_quad <= 0):
        raise CovarianceError("reduced-form covariance is singular at this beta0")
    alpha_coef = (o01 - beta0 * o11) / np.sqrt(b_quad)
    d2 = det / b_quad
    return ClrTruncation(
        d0=_item(alpha_coef**2),
        d1=_item(2.0 * alpha_coef * np.sqrt(d2)),
        d2=_item(d2),
        lambda_sq=_item(np.asarray(lambda_sq, dtype=float)),
        q_R=_item(np.asarray(q_r, dtype=float)),
        p=int(p),
    )


def _chi2_at(fn, p, x, mask):
    """fn(p, x) on the masked nodes, 0 elsewhere."""
    out = np.zeros(x.shape)
    out[mask] = fn(p, x[mask])
    return out


def _event_masses(lo, hi, ok, thresh, p):
    """chi2(p) masses of the screen event [lo, hi] (denominator) and of
    its part above thresh (numerator) at each node.

    A mass is a difference of survival functions when its interval sits
    in the right tail (lower end >= p, to avoid cancellation) and of cdfs
    otherwise.  Each node is evaluated only on the side it uses, the
    upper end's value is shared by both masses, and chdtr(p, 0) = 0 is
    not evaluated."""
    right = lo >= p
    # the tail event cuts the interval only where lo < thresh < hi;
    # below it keeps all the mass, above it none
    cut = ok & (lo < thresh) & (thresh < hi)
    cut_right = cut & (thresh >= p)
    cut_left = cut & ~cut_right
    cdf_hi = _chi2_at(special.chdtr, p, hi, (ok & ~right) | cut_left)
    sf_hi = _chi2_at(special.chdtrc, p, hi, (ok & right) | cut_right)
    den = np.where(
        right,
        _chi2_at(special.chdtrc, p, lo, ok & right) - sf_hi,
        cdf_hi - _chi2_at(special.chdtr, p, lo, ok & ~right & (lo > 0.0)),
    )
    den = np.clip(den, 0.0, 1.0)
    num = np.where(
        cut_right,
        _chi2_at(special.chdtrc, p, thresh, cut_right) - sf_hi,
        cdf_hi - _chi2_at(special.chdtr, p, thresh, cut_left),
    )
    num = np.where(cut, np.clip(num, 0.0, 1.0), np.where(thresh >= hi, 0.0, den))
    return den, num


def _truncation_intervals(coefs, u2):
    """Per-law, per-u2 interval [lo, hi] of the event in q_U, and a
    nonempty mask, all (laws, nodes).  coefs holds the (laws,) arrays
    d0, d1, d2, lambda_sq and q_R of the laws' truncations."""
    d0, d1, d2, lam, q_R = coefs
    c = d2 * q_R - lam
    scale = d2 * q_R + lam + 1.0
    # no quadratic term: the event is all of q_U >= 0 or empty
    flat = d0 <= _D0_FLOOR * scale
    d0 = np.where(flat, 1.0, d0)[:, None]
    b = d1[:, None] * u2 * np.sqrt(q_R)[:, None]
    disc = b * b - 4.0 * d0 * c[:, None]
    ok = disc >= 0.0
    root = np.sqrt(np.maximum(disc, 0.0))
    x_lo = (-b - root) / (2.0 * d0)
    x_hi = (-b + root) / (2.0 * d0)
    ok &= x_hi > 0.0
    lo_q = np.maximum(x_lo, 0.0) ** 2
    hi_q = np.maximum(x_hi, 0.0) ** 2
    lo_q[flat] = 0.0
    hi_q[flat] = np.inf
    ok[flat] = (c[flat] <= 0)[:, None]
    return lo_q, hi_q, ok


def _cosine_nodes(p: int, panels: int, substitute: bool):
    """u2 nodes, weight values, and uniform spacing for Simpson's rule.

    With the sin(theta) substitution the integrand is smooth for every
    p >= 2; without it the weight is singular at the endpoints for p = 2
    (kept only for cross-checks at p >= 3)."""
    if substitute:
        theta = np.linspace(-np.pi / 2.0, np.pi / 2.0, panels + 1)
        u2 = np.sin(theta)
        w = np.cos(theta) ** (p - 2)
        return u2, w, np.pi / panels
    u2 = np.linspace(-1.0, 1.0, panels + 1)
    with np.errstate(divide="ignore"):
        w = (1.0 - u2**2) ** ((p - 3) / 2.0)
    w[~np.isfinite(w)] = 0.0
    return u2, w, 2.0 / panels


def _simpson_with_error(f, h):
    """Simpson values along the last axis and the Richardson estimate of
    their error against the half-resolution grid."""
    full = integrate.simpson(f, dx=h, axis=-1)
    half = integrate.simpson(f[..., ::2], dx=2.0 * h, axis=-1)
    return full, np.abs(full - half) / 15.0


def _tail_integrals(t, q_r, p, coefs, panels, substitute):
    """Simpson values of the (numerator, denominator) integrals of each
    law on one (laws, nodes) grid, plus the larger of their error
    estimates.  t and q_r are (laws,) arrays; coefs is None for naive
    laws, else the truncations' coefficient arrays."""
    u2, w, h = _cosine_nodes(p, panels, substitute)
    thresh = (q_r + t)[:, None] / (1.0 + q_r[:, None] * u2**2 / t[:, None])
    if coefs is None:
        i_num, e_num = _simpson_with_error(special.chdtrc(p, thresh) * w, h)
        i_den, e_den = _simpson_with_error(w, h)
        return i_num, np.full_like(i_num, i_den), np.maximum(e_num, e_den)
    den, num = _event_masses(*_truncation_intervals(coefs, u2), thresh, p)
    i_den, e_den = _simpson_with_error(den * w, h)
    i_num, e_num = _simpson_with_error(num * w, h)
    return i_num, i_den, np.maximum(e_num, e_den)


def _converged_integrals(t, q_r, p, coefs, quad):
    """(numerator, denominator) integrals of each law, refining by panel
    doubling only the laws whose error estimate still exceeds quad.tol.
    Laws are evaluated in blocks of at most _BLOCK_NODES grid cells."""
    panels = quad.panels
    if panels % 4:
        panels += 4 - panels % 4
    i_num = np.empty(t.size)
    i_den = np.empty(t.size)
    err = np.empty(t.size)
    todo = np.arange(t.size)
    for _ in range(_MAX_REFINEMENTS + 1):
        step = max(1, _BLOCK_NODES // (panels + 1))
        for start in range(0, todo.size, step):
            rows = todo[start : start + step]
            sub = None if coefs is None else tuple(c[rows] for c in coefs)
            i_num[rows], i_den[rows], err[rows] = _tail_integrals(
                t[rows], q_r[rows], p, sub, panels, quad.endpoint_substitution
            )
        todo = todo[~(err[todo] <= quad.tol)]  # a NaN estimate is not converged
        if not todo.size:
            return i_num, i_den
        panels *= 2
    raise QuadratureError(
        f"tail integral not converged: error {np.max(err[todo]):.3g} > tol {quad.tol:.3g} "
        f"at {panels // 2} panels"
    )


def clr_tails(t, q_r, p: int, trunc: ClrTruncation = None, quad: QuadratureConfig = None):
    """P(statistic >= t | Q_R = q_r [, screen failed]) under the null, for
    many laws at once.

    t and q_r are 1-D arrays with one entry per law; trunc is None (every
    law naive) or one ClrTruncation whose coefficients broadcast to them.
    Each tail is a ratio of two cosine integrals, so the weight
    normalization cancels; a naive law's denominator is the plain weight
    mass.  All laws share one Simpson grid per refinement level and only
    the laws not yet converged are refined.

    Returns (tails, underflow): a law whose conditioning event has mass
    below 1e-12 cannot have produced the data, so its tail is NaN and its
    underflow flag is set.
    """
    quad = quad if quad is not None else QuadratureConfig()
    k4 = k4_constant(p)
    t = np.array(t, dtype=float, ndmin=1)
    q_r = np.array(q_r, dtype=float, ndmin=1)
    if t.ndim != 1 or t.shape != q_r.shape:
        raise ValueError("t and q_r need one entry per law")
    if np.any(q_r < 0):
        raise ValueError(f"q_r = {q_r[q_r < 0][0]} must be >= 0")
    if trunc is not None and (
        np.any(np.abs(trunc.q_R - q_r) > 1e-8 * (1.0 + np.abs(q_r))) or trunc.p != p
    ):
        raise TruncationError("truncation was built for different (q_R, p) than requested")

    tails = np.ones(t.size)
    underflow = np.zeros(t.size, dtype=bool)
    rows = np.flatnonzero(~(t <= 0.0))
    if rows.size:
        coefs = None if trunc is None else tuple(
            np.broadcast_to(np.asarray(getattr(trunc, name), dtype=float), t.shape)[rows]
            for name in ("d0", "d1", "d2", "lambda_sq", "q_R")
        )
        i_num, i_den = _converged_integrals(t[rows], q_r[rows], p, coefs, quad)
        # a naive law's denominator is the full weight mass, 1 / k4
        low = k4 * i_den < _MIN_EVENT_MASS
        underflow[rows] = low
        tails[rows] = np.nan
        tails[rows[~low]] = np.clip(i_num[~low] / i_den[~low], 0.0, 1.0)
    return tails, underflow


def clr_tail(
    t: float,
    q_r: float,
    p: int,
    trunc: ClrTruncation = None,
    quad: QuadratureConfig = None,
) -> float:
    """P(statistic >= t | Q_R = q_r [, screen failed]) under the null: the
    one-law case of clr_tails.  Raises TruncationError when the
    conditioning event's mass underflows."""
    tails, underflow = clr_tails([t], [q_r], p, trunc, quad)
    if underflow[0]:
        raise TruncationError(
            f"conditioning event has mass < {_MIN_EVENT_MASS}: "
            "the data could not have failed the strength screen with these inputs"
        )
    return float(tails[0])


def clr_conditional_inference(
    data: IVDataset,
    beta0: float,
    c0: float = 10.0,
    alpha: float = 0.05,
    quad: QuadratureConfig = None,
    n_points: int = 201,
) -> InferenceReport:
    """Weak-instrument branch: conditional and naive CLR p-values at
    beta0 plus grid-inverted confidence intervals.

    Applies only when the non-randomized screen failed (F < c0); the
    conditional law conditions on exactly that event.  Each round of the
    grid inversion builds the truncations of all of its nulls in one call
    and evaluates them in one clr_tails call; nulls whose conditioning
    event underflows are listed in the diagnostics (mass_underflow_nulls)
    and never retained.
    """
    require_prepared(data)
    if data.p < 2:
        raise BranchError("the weak-instrument tail law requires p >= 2 instruments")
    f_stat = f_statistic(data)
    if f_stat >= c0:
        raise BranchError(
            f"strength screen passed (F = {f_stat:.4g} >= C0 = {c0:.4g}); "
            "this branch conditions on failing it"
        )
    quad = quad if quad is not None else QuadratureConfig()
    lam2 = penalty_lambda(data, c0) ** 2
    est = covariance_estimates(data, beta0)
    (lr,), (q_r,) = clr_statistics(data, [beta0], est)
    trunc = truncation_from_estimates(est.omega_hat, beta0, lam2, q_r, data.p)
    cond_p = clr_tail(lr, q_r, data.p, trunc=trunc, quad=quad)
    naive_p = clr_tail(lr, q_r, data.p, quad=quad)
    center = tsls_estimate(data)
    halfwidth = 8.0 * tsls_standard_error(data)
    underflow_nulls = []

    def cond_curve(xs):
        # far from the estimate the plug-in failure event can underflow;
        # such nulls are unanswerable (NaN), so the scan stops there
        lr, q_r = clr_statistics(data, xs, est)
        trunc = truncation_from_estimates(est.omega_hat, xs, lam2, q_r, data.p)
        tails, underflow = clr_tails(lr, q_r, data.p, trunc, quad)
        underflow_nulls.extend(np.asarray(xs, dtype=float)[underflow].tolist())
        return tails

    def naive_curve(xs):
        lr, q_r = clr_statistics(data, xs, est)
        return clr_tails(lr, q_r, data.p, quad=quad)[0]

    cond_ci, _, _, cond_info = invert_pvalue_curve(
        cond_curve,
        center,
        halfwidth,
        alpha,
        n_points=n_points,
    )
    naive_ci, _, _, naive_info = invert_pvalue_curve(
        naive_curve,
        center,
        halfwidth,
        alpha,
        n_points=n_points,
    )
    return InferenceReport(
        beta0=float(beta0),
        conditional_pvalue=cond_p,
        naive_pvalue=naive_p,
        conditional_ci=cond_ci,
        naive_ci=naive_ci,
        diagnostics={
            "branch": "clr",
            "f_stat": f_stat,
            "c0": float(c0),
            "lambda_sq": lam2,
            "alpha": float(alpha),
            "truncation_renormalized": True,
            "quadrature": {"panels": quad.panels, "tol": quad.tol},
            "conditional_grid": cond_info,
            "naive_grid": naive_info,
            "mass_underflow_points": len(underflow_nulls),
            "mass_underflow_nulls": sorted(underflow_nulls),
        },
    )
