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

clr_law builds and evaluates the laws, naive or truncated, of many nulls
or replications from their moments alone: the screen events as one
ClrTruncation of arrays, from Sigma_hat(beta0) and det Omega_hat read
off the moments' residual factor (truncation_from_estimates builds the
same from a given Omega_hat).  clr_tails integrates them in theta
(u2 = sin theta) by the composite Gauss-Legendre rule of both exact
engines, cut at each law's breakpoints (the notch at u2 = 0 and the
kinks of the event), refining only the laws whose error estimate has not
converged; clr_tail is its one-law case.  A law whose conditioning event
has mass below 1e-12 comes back as NaN with an underflow flag, and the
weak-branch report lists those nulls.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BranchError, CovarianceError, QuadratureError, TruncationError
from .model import IVDataset, Moments, _item, require_prepared
from .pretest import f_statistic, penalty_lambda
from .report import InferenceReport, answer, build_report
from .teststats import _chi2_tails, clr_statistics

# the one quadrature rule of both exact engines: composite Gauss-Legendre
# with 96 nodes per panel, the 48-node rule giving its error estimate
_QUAD_NODES = 96
_QUAD_RULES = tuple(np.polynomial.legendre.leggauss(n) for n in (_QUAD_NODES, _QUAD_NODES // 2))
_QUAD_TOL = 1e-10
# panel doublings a law may take before its quadrature gives up
_MAX_REFINEMENTS = 6
_MIN_EVENT_MASS = 1e-12
# nodes per block of laws or of one law's panels: bounds the temporaries
_BLOCK_NODES = 1 << 19
# below this share of the problem's scale, the quadratic term in sqrt(q_U)
# is treated as absent and the screen event no longer depends on q_U
_D0_FLOOR = 1e-14


def k4_constant(p: int) -> float:
    """Normalizer of the cosine weight: Gamma(p/2) / (sqrt(pi) Gamma((p-1)/2))."""
    if p < 2:
        raise ValueError(f"p = {p}: the cosine-weight integral needs p >= 2")
    return math.exp(math.lgamma(p / 2.0) - math.lgamma((p - 1) / 2.0)) / math.sqrt(math.pi)


@dataclass(frozen=True)
class QuadratureConfig:
    """The CLR tails' starting panels per segment, and the absolute
    error a law's integrals must reach."""

    panels: int = 1
    tol: float = _QUAD_TOL

    def __post_init__(self):
        if self.panels < 1:
            raise ValueError("panels must be an integer >= 1")
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


def _truncation(s11, s12, det, lambda_sq, q_r, p) -> ClrTruncation:
    """The screen-event coefficients from Sigma_hat(beta0)'s s11 and s12
    and det Omega_hat: d0 = s12^2 / s11, d1 = 2 s12 sqrt(det) / s11,
    d2 = det / s11.  Arrays broadcast to a batch of laws."""
    if np.any(det <= 0) or np.any(s11 <= 0):
        raise CovarianceError("reduced-form covariance is singular at this beta0")
    alpha_coef = s12 / np.sqrt(s11)
    d2 = det / s11
    return ClrTruncation(
        d0=_item(alpha_coef**2),
        d1=_item(2.0 * alpha_coef * np.sqrt(d2)),
        d2=_item(d2),
        lambda_sq=_item(np.asarray(lambda_sq, dtype=float)),
        q_R=_item(np.asarray(q_r, dtype=float)),
        p=int(p),
    )


def truncation_from_estimates(
    omega_hat: np.ndarray, beta0: float, lambda_sq: float, q_r: float, p: int
) -> ClrTruncation:
    """Build the screen-event coefficients from the 2x2 reduced-form
    covariance at the tested null.  Arrays of nulls, of covariances
    (..., 2, 2), of lambda_sq and of q_r broadcast to a batch of laws.
    Omega's entries cancel once Y carries a large multiple of D; clr_law
    reads the same coefficients off the moments instead."""
    o = np.asarray(omega_hat, dtype=float)
    o00, o01, o11 = o[..., 0, 0], o[..., 0, 1], o[..., 1, 1]
    s11 = o00 - 2.0 * beta0 * o01 + beta0**2 * o11
    return _truncation(s11, o01 - beta0 * o11, np.linalg.det(o), lambda_sq, q_r, p)


def _chi2_at(p, x, mask):
    """The chi2(p) (cdf, sf) on the masked nodes, 0 elsewhere."""
    cdf, sf = np.zeros(x.shape), np.zeros(x.shape)
    cdf[mask], sf[mask] = _chi2_tails(p, x[mask])
    return cdf, sf


def _event_masses(lo, hi, ok, thresh, p):
    """chi2(p) masses of the screen event [lo, hi] (denominator) and of
    its part above thresh (numerator) at each node.

    A mass is a difference of survival functions when its interval sits
    in the right tail (lower end >= p, to avoid cancellation) and of cdfs
    otherwise.  Each end is evaluated once, on the nodes that read it;
    chi2(p) at 0 is not evaluated."""
    right = lo >= p
    # the tail event cuts the interval only where lo < thresh < hi;
    # below it keeps all the mass, above it none
    cut = ok & (lo < thresh) & (thresh < hi)
    cdf_hi, sf_hi = _chi2_at(p, hi, ok)
    cdf_lo, sf_lo = _chi2_at(p, lo, ok & (lo > 0.0))
    cdf_t, sf_t = _chi2_at(p, thresh, cut)
    den = np.clip(np.where(right, sf_lo - sf_hi, cdf_hi - cdf_lo), 0.0, 1.0)
    num = np.where(thresh >= p, sf_t - sf_hi, cdf_hi - cdf_t)
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


def _composite_rule(edges, panels, rule, which=slice(None)):
    """Nodes and weights, (rows, segments * panels * len(rule[0])), of the
    Gauss-Legendre rule on panels equal panels (those which selects) of
    every segment [a, b] between consecutive edges of each row.  A segment
    is mapped by x = a + (b - a) sin^2(pi s / 2), s in [0, 1], whose zero
    slope at both ends makes a square-root singularity smooth in s."""
    start = np.arange(panels)[which, None]
    s = ((start + 0.5 * (1.0 + rule[0])) / panels).ravel()
    ws = np.tile(rule[1], len(start)) * (np.pi / (4 * panels)) * np.sin(np.pi * s)
    width = np.diff(edges, axis=1)[:, :, None]
    nodes = edges[:, :-1, None] + width * np.sin(0.5 * np.pi * s) ** 2
    return nodes.reshape(len(edges), -1), (width * ws).reshape(len(edges), -1)


def _breakpoints(t, q_r, coefs):
    """Sorted theta edges, 9 per naive and 13 per truncated law: +-pi/2, 0,
    the notch +-w^(1, 2/3, 1/3), w = sqrt(t/q_r), and for a truncated law
    the u2 where the event appears and where thresh(u2) = tau meets an end
    sqrt(tau) of it: tau > 0 solves d0^2 tau^2 + (2 d0 c + d1^2 t) tau
    + c^2 - d1^2 t (q_r + t) = 0, c = d2 q_r - lambda_sq.  A missing point
    (NaN) sits at 0, one past |u2| = 1 at an end: zero-width segments."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = np.sqrt(t / q_r)
        mags = [w, w ** (2 / 3), w ** (1 / 3)]
        signed = []
        if coefs is not None:
            d0, d1, d2, lam, _ = coefs
            c = d2 * q_r - lam
            mags.append(np.sqrt(4.0 * d0 * c / (d1 * d1 * q_r)))
            b, a0 = 2.0 * d0 * c + d1 * d1 * t, c * c - d1 * d1 * t * (q_r + t)
            root = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * d0 * d0 * a0), b))
            # sqrt(tau) solves the event's quadratic at this u2
            signed = [-(d0 * tau + c) / (d1 * np.sqrt(q_r * tau)) for tau in (root / d0**2, a0 / root)]
        u2 = np.column_stack([sign * m for m in mags for sign in (1.0, -1.0)] + signed)
    u2 = np.clip(np.nan_to_num(u2, nan=0.0), -1.0, 1.0)
    ends = np.broadcast_to([-np.pi / 2.0, 0.0, np.pi / 2.0], (len(t), 3))
    return np.sort(np.column_stack([ends, np.arcsin(u2)]), axis=1)


def _tail_integrals(t, q_r, p, coefs, edges, panels, rule, which):
    """The (numerator, denominator) integrals of each law by
    _composite_rule over theta (u2 = sin theta, weight cos^(p-2) theta)
    between its edges, on the panels which selects.  t and q_r are (laws,)
    arrays; coefs is None for naive laws, else the truncations' arrays."""
    theta, w = _composite_rule(edges, panels, rule, which)
    w *= np.cos(theta) ** (p - 2)
    u2 = np.sin(theta, out=theta)
    thresh = (q_r + t)[:, None] / (1.0 + q_r[:, None] * u2**2 / t[:, None])
    if coefs is None:
        return (_chi2_tails(p, thresh)[1] * w).sum(1), w.sum(1)
    den, num = _event_masses(*_truncation_intervals(coefs, u2), thresh, p)
    return (num * w).sum(1), (den * w).sum(1)


def _refine(evaluate, size, panels, tol):
    """Evaluate size laws by evaluate(rows, panels, rule) -> a tuple of
    (len(rows),) arrays, on the full and on the half rule of _QUAD_RULES;
    a law's error is the largest change of its values between the two.
    Laws whose error still exceeds tol (a NaN error is not converged) are
    redone on twice the panels, at most _MAX_REFINEMENTS times.  Returns
    the full rule's values and the errors stacked over all laws, and the
    panels each law converged at; QuadratureError if some law never does.
    Both exact engines (this module's and the passed-screen one) use it."""
    values, error, used = None, np.empty(size), np.empty(size, dtype=int)
    todo = np.arange(size)
    for _ in range(_MAX_REFINEMENTS + 1):
        vals = np.array(evaluate(todo, panels, _QUAD_RULES[0]))
        err = np.abs(vals - np.array(evaluate(todo, panels, _QUAD_RULES[1]))).max(axis=0)
        if values is None:
            values = np.empty((len(vals), size))
        values[:, todo], error[todo], used[todo] = vals, err, panels
        todo = todo[~(err <= tol)]
        if not todo.size:
            return values, error, used
        panels *= 2
    raise QuadratureError(
        f"quadrature not converged for {todo.size} of {size} laws: error "
        f"{np.max(error[todo]):.3g} > tol {tol:.3g} at {panels // 2} panels"
    )


class ClrTails(NamedTuple):
    """Per-law CLR tails, NaN where the conditioning event's mass
    underflowed (underflow set), with the error estimate and the nodes
    per law that the quadrature reached (0 for a law with t <= 0, whose
    tail is 1 without an integral)."""

    tail: np.ndarray
    underflow: np.ndarray
    error: np.ndarray
    nodes: np.ndarray


def clr_tails(t, q_r, p: int, trunc: ClrTruncation = None, quad: QuadratureConfig = None):
    """P(statistic >= t | Q_R = q_r [, screen failed]) under the null, for
    many laws at once.

    t and q_r are 1-D arrays with one entry per law; trunc is None (every
    law naive) or one ClrTruncation whose coefficients broadcast to them.
    Each tail is a ratio of two cosine integrals, so the weight
    normalization cancels; a naive law's denominator is the plain weight
    mass.  All laws share one panel count per refinement level, taken in
    blocks of at most _BLOCK_NODES nodes (runs of one law's panels when it
    alone has more), and only the laws not yet converged are refined.

    Returns ClrTails: a law whose conditioning event has mass below 1e-12
    cannot have produced the data, so its tail is NaN and its underflow
    flag is set.
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

    zeros = np.zeros(t.size, dtype=int)
    out = ClrTails(np.ones(t.size), zeros.astype(bool), zeros.astype(float), zeros)
    rows = np.flatnonzero(~(t <= 0.0))
    t_on, q_on = t[rows], q_r[rows]
    coefs = None if trunc is None else tuple(
        np.broadcast_to(np.asarray(getattr(trunc, name), dtype=float), t.shape)[rows]
        for name in ("d0", "d1", "d2", "lambda_sq", "q_R")
    )
    edges = _breakpoints(t_on, q_on, coefs)
    segments = edges.shape[1] - 1

    def evaluate(todo, panels, rule):
        # a law with more nodes than a block is integrated a run of size
        # panels at a time, and its partial integrals are added up
        runs = -(-segments * panels * _QUAD_NODES // _BLOCK_NODES)
        size = -(-panels // runs)
        step = max(1, _BLOCK_NODES // (segments * size * _QUAD_NODES))
        blocks = []
        for at in (todo[start : start + step] for start in range(0, todo.size, step)):
            sub = None if coefs is None else tuple(c[at] for c in coefs)
            blocks.append(sum(
                np.array(_tail_integrals(t_on[at], q_on[at], p, sub, edges[at], panels, rule, slice(k, k + size)))
                for k in range(0, panels, size)
            ))
        return np.concatenate(blocks, axis=1)

    if rows.size:
        (i_num, i_den), out.error[rows], panels = _refine(evaluate, rows.size, quad.panels, quad.tol)
        out.nodes[rows] = segments * panels * _QUAD_NODES
        # a naive law's denominator is the full weight mass, 1 / k4
        low = k4 * i_den < _MIN_EVENT_MASS
        out.underflow[rows] = low
        out.tail[rows] = np.nan
        out.tail[rows[~low]] = np.clip(i_num[~low] / i_den[~low], 0.0, 1.0)
    return out


def _require_mass(underflow) -> None:
    """TruncationError when a law's conditioning event underflowed."""
    if np.any(underflow):
        raise TruncationError(
            f"conditioning event has mass < {_MIN_EVENT_MASS}: "
            "the data could not have failed the strength screen with these inputs"
        )


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
    law = clr_tails([t], [q_r], p, trunc, quad)
    _require_mass(law.underflow)
    return float(law.tail[0])


def clr_law(data: IVDataset | Moments, nulls, lam_sq=None):
    """The ClrTails of the CLR law at each null: the LR statistic and Q_R
    from the moments, then the tail given Q_R alone (naive, lam_sq None)
    or also given the failed screen {||S||^2 <= lam_sq}, whose
    coefficients come from Sigma_hat(null) and det Omega_hat read off the
    moments' residual factor.  nulls is an array of nulls on one dataset,
    or one null for a batch of replications with their lam_sq."""
    m = require_prepared(data)
    lr, q_r = clr_statistics(m, nulls)
    if lam_sq is None:
        return clr_tails(lr, q_r, m.p)
    sigma = m.sigma(nulls)
    trunc = _truncation(sigma[..., 0, 0], sigma[..., 0, 1], m.det_omega, lam_sq, q_r, m.p)
    return clr_tails(lr, q_r, m.p, trunc)


def clr_conditional_inference(
    data: IVDataset,
    beta0: float,
    c0: float = 10.0,
    alpha: float = 0.05,
) -> InferenceReport:
    """Weak-instrument branch: conditional and naive CLR p-values at
    beta0 plus grid-inverted confidence intervals.

    Applies only when the non-randomized screen failed (F < c0); the
    conditional law conditions on exactly that event.  beta0 leads the
    conditional scan's first pass, and a beta0 whose event underflows is
    refused with TruncationError off that pass, before any further pass
    and before the naive curve.  Each p-value call of the grid inversion
    builds the laws of all of its nulls in one clr_law call.  Nulls whose
    conditioning event underflows are never retained; the diagnostics
    list those the inversion evaluated (mass_underflow_nulls), and the
    grid nulls its coarse scan skipped are not among them.
    """
    if data.p < 2:
        raise BranchError("the weak-instrument tail law requires p >= 2 instruments")
    f_stat = f_statistic(data)
    if f_stat >= c0:
        raise BranchError(
            f"strength screen passed (F = {f_stat:.4g} >= C0 = {c0:.4g}); "
            "this branch conditions on failing it"
        )
    lam2 = penalty_lambda(data, c0) ** 2
    # far from the estimate the plug-in failure event can underflow;
    # such nulls are unanswerable (NaN), so the scan stops there
    cond = answer(
        lambda xs: clr_law(data, xs, lam2), data, beta0, alpha,
        refuse=lambda tail, underflow, *_: _require_mass(underflow),
    )
    naive = answer(lambda xs: clr_law(data, xs), data, beta0, alpha)
    _, _, error, nodes = cond.at_beta0
    return build_report(
        beta0, alpha, "clr", naive, cond,
        f_stat=f_stat,
        c0=float(c0),
        lambda_sq=lam2,
        truncation_renormalized=True,
        quadrature_error=float(error[0]),
        quadrature_nodes=int(nodes[0]),
        mass_underflow_points=len(cond.unanswerable),
        mass_underflow_nulls=list(cond.unanswerable),
    )
