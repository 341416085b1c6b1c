"""Answer checks that recompute each answer without the engine under test.

Every check returns a list of problems (empty when the answer holds).
The formulas are written out here from the model, not imported from
ivselect: closed-form TSLS and Wald quantities, the passed-screen tail
as a one-dimensional integral, the weak-branch tails as cosine-weighted
chi-square integrals, and the Lasso stationarity conditions.
"""

import math

import numpy as np
from scipy import integrate, special, stats


def prepared(y, d, z, x=None):
    """Residualize x (plus an intercept) out of y, d and z."""
    n = len(y)
    design = np.ones((n, 1)) if x is None else np.column_stack([np.ones(n), x])
    cols = np.column_stack([y, d, z])
    coef, *_ = np.linalg.lstsq(design, cols, rcond=None)
    resid = cols - design @ coef
    return resid[:, 0], resid[:, 1], resid[:, 2:]


def _moments(y, d, z):
    """[Y D]'P_Z[Y D] and the reduced-form covariance [Y D]'(I - P_Z)[Y D]/(n - p)."""
    n, p = z.shape
    yd = np.column_stack([y, d])
    zyd = z.T @ yd
    m = zyd.T @ np.linalg.solve(z.T @ z, zyd)
    omega = (yd.T @ yd - m) / (n - p)
    return m, omega


def tsls_closed_form(y, d, z, beta0, alpha):
    """TSLS estimate, conventional SE, Wald interval, and the naive
    two-sided p-value of the TSLS statistic at beta0, on prepared data."""
    n, p = z.shape
    m, omega = _moments(y, d, z)
    beta = m[0, 1] / m[1, 1]

    def sigma11(b):
        return omega[0, 0] - 2.0 * b * omega[0, 1] + b * b * omega[1, 1]

    se = math.sqrt(sigma11(beta) / m[1, 1])
    zq = stats.norm.ppf(1.0 - alpha / 2.0)
    t = (m[0, 1] - beta0 * m[1, 1]) / math.sqrt(sigma11(beta0) * m[1, 1])
    return {
        "beta": beta,
        "se": se,
        "lower": beta - zq * se,
        "upper": beta + zq * se,
        "t": t,
        "pvalue": min(1.0, 2.0 * stats.norm.sf(abs(t))),
        "f_stat": (m[1, 1] / p) / ((np.sum(d * d) - m[1, 1]) / (n - p)),
    }


def _close(got, want, rtol, atol=0.0):
    return got is not None and abs(got - want) <= atol + rtol * abs(want)


def check_naive_tsls(report, y, d, z, beta0, alpha):
    """The report's naive p-value and Wald interval against the closed form."""
    ref = tsls_closed_form(y, d, z, beta0, alpha)
    problems = []
    if not _close(report["naive_pvalue"], ref["pvalue"], 1e-8, 1e-12):
        problems.append(f"naive p-value {report['naive_pvalue']} != closed form {ref['pvalue']}")
    ci = report["naive_ci"]
    if not (_close(ci["lower"], ref["lower"], 1e-8, 1e-12) and _close(ci["upper"], ref["upper"], 1e-8, 1e-12)):
        problems.append(f"naive interval [{ci['lower']}, {ci['upper']}] != Wald [{ref['lower']}, {ref['upper']}]")
    return problems


def passed_screen_tails(slope, u, offset, lam, scale, jac, t_obs):
    """Exact P(T >= t_obs | pass) and P(T <= t_obs | pass) for the
    Gaussian-randomization law on (t, d).

    The joint log density is -t^2/2 - |slope t + u d + offset|^2/(2 c^2)
    + jac log(d + lam) on d > 0.  Given d, t is normal with mean
    -slope.z/prec and sd c/sqrt(prec), z = u d + offset, prec = c^2 +
    |slope|^2; integrating t out leaves a weight on d that is Gaussian
    times (d + lam)^jac.  Both tails are ratios of 1-D integrals in d."""
    a, u, e = (np.asarray(v, dtype=float) for v in (slope, u, offset))
    c2 = scale * scale
    prec = c2 + a @ a
    sd_t = scale / math.sqrt(prec)
    au, ae = a @ u, a @ e
    # log w(d) = -A d^2/2 + B d + jac log(d + lam) + const
    big_a = (u @ u - au * au / prec) / c2
    big_b = (au * ae / prec - u @ e) / c2

    def log_w(dd):
        return -0.5 * big_a * dd * dd + big_b * dd + (jac * math.log(dd + lam) if jac else 0.0)

    # mode of the log-concave weight on d > 0
    if jac:
        # A d^2 + (A lam - B) d - (B lam + jac) = 0, positive root
        qa, qb, qc = big_a, big_a * lam - big_b, -(big_b * lam + jac)
        mode = (-qb + math.sqrt(qb * qb - 4 * qa * qc)) / (2 * qa)
    else:
        mode = big_b / big_a
    mode = max(mode, 0.0)
    curv = big_a + (jac / (mode + lam) ** 2 if jac else 0.0)
    width = 1.0 / math.sqrt(curv)
    lo, hi = max(0.0, mode - 40.0 * width), mode + 40.0 * width
    ref = log_w(mode if mode > 0 else lo)

    def weight(dd):
        return math.exp(log_w(dd) - ref) if dd > 0 else 0.0

    def mean_t(dd):
        return -(au * dd + ae) / prec

    kw = dict(points=[mode] if lo < mode < hi else None, limit=400, epsabs=0.0, epsrel=1e-11)
    den = integrate.quad(weight, lo, hi, **kw)[0]
    upper = integrate.quad(lambda dd: weight(dd) * special.ndtr((mean_t(dd) - t_obs) / sd_t), lo, hi, **kw)[0]
    lower = integrate.quad(lambda dd: weight(dd) * special.ndtr((t_obs - mean_t(dd)) / sd_t), lo, hi, **kw)[0]
    return upper / den, lower / den


def check_conditional_tsls(report, law, n_draws, ess, n_se=5.0):
    """Monte Carlo two-sided conditional p-value against the exact tail.

    law is the public ConditionalLaw of the tested null.  The tolerance
    is n_se Monte Carlo standard errors of a two-sided tail estimated
    from ess effective draws (held between n_draws/25 and n_draws, so an
    engine cannot widen it by reporting a tiny ESS), plus 4/n_draws."""
    up, lo = passed_screen_tails(
        law.slope, law.u, law.offset, law.lam, law.gaussian_scale, law.jacobian_exponent, law.t_obs
    )
    exact = min(1.0, 2.0 * min(up, lo))
    q = min(up, lo)
    ess = min(max(ess, n_draws / 25.0), n_draws)
    tol = n_se * 2.0 * math.sqrt(max(q * (1.0 - q), 0.0) / ess) + 4.0 / n_draws
    got = report["conditional_pvalue"]
    if got is None or abs(got - exact) > tol:
        return [f"conditional p-value {got} vs exact {exact:.6f} (tolerance {tol:.4f})"]
    return []


# ---------------------------------------------------------------- weak branch


def clr_quadratics(m, omega, beta0):
    """(LR, Q_U, Q_R) and the coefficients (d0, d1, d2) of
    |S|^2 = d0 Q_U + d1 u2 sqrt(Q_R Q_U) + d2 Q_R at beta0.

    U = Ytilde b0 / sqrt(b0'W b0) and R = Ytilde W^-1 a0 / sqrt(a0'W^-1 a0)
    with Ytilde = (Z'Z)^(-1/2) Z'[Y D], W = omega, a0 = (beta0, 1),
    b0 = (1, -beta0); Q = T' M T for the 2x2 map T, and S is the D
    column of Ytilde, recovered as [U R] T^-1."""
    b0 = np.array([1.0, -beta0])
    a0 = np.array([beta0, 1.0])
    winv = np.linalg.inv(omega)
    tmat = np.column_stack([b0 / math.sqrt(b0 @ omega @ b0), winv @ a0 / math.sqrt(a0 @ winv @ a0)])
    q = tmat.T @ m @ tmat
    q_u, q_ur, q_r = q[0, 0], q[0, 1], q[1, 1]
    lr = 0.5 * (q_u - q_r + math.sqrt(max((q_u + q_r) ** 2 - 4.0 * (q_u * q_r - q_ur**2), 0.0)))
    c_u, c_r = np.linalg.inv(tmat)[:, 1]
    return max(lr, 0.0), q_u, q_r, (c_u * c_u, 2.0 * c_u * c_r, c_r * c_r)


def _chi2_mass(lo, hi, p):
    if hi <= lo:
        return 0.0
    if lo >= p:
        return stats.chi2.sf(lo, p) - stats.chi2.sf(hi, p)
    return stats.chi2.cdf(hi, p) - stats.chi2.cdf(lo, p)


def clr_tail_quad(lr, q_r, p, coefs=None, lambda_sq=None):
    """P(LR >= lr | Q_R = q_r [, |S|^2 <= lambda_sq]) by adaptive quadrature.

    Q_U ~ chi2(p) independent of the cosine u2, whose density is
    proportional to (1 - u2^2)^((p-3)/2); LR >= lr exactly when
    Q_U >= (q_r + lr)/(1 + q_r u2^2/lr).  Integrated over
    theta = arcsin(u2), weight cos(theta)^(p-2)."""
    if lr <= 0.0:
        return 1.0

    def thresh(u2):
        return (q_r + lr) / (1.0 + q_r * u2 * u2 / lr)

    if coefs is None:
        num = lambda th: math.cos(th) ** (p - 2) * stats.chi2.sf(thresh(math.sin(th)), p)
        val = integrate.quad(num, -math.pi / 2, math.pi / 2, limit=400, epsabs=1e-13, epsrel=1e-11)[0]
        den = math.sqrt(math.pi) * math.exp(special.gammaln((p - 1) / 2.0) - special.gammaln(p / 2.0))
        return val / den

    d0, d1, d2 = coefs
    c = d2 * q_r - lambda_sq

    def interval(u2):
        # d0 x^2 + d1 u2 sqrt(q_r) x + c <= 0 in x = sqrt(Q_U) >= 0
        b = d1 * u2 * math.sqrt(q_r)
        disc = b * b - 4.0 * d0 * c
        if disc < 0:
            return None
        root = math.sqrt(disc)
        x_hi = (-b + root) / (2.0 * d0)
        if x_hi <= 0:
            return None
        return max((-b - root) / (2.0 * d0), 0.0) ** 2, x_hi**2

    def part(th, tail):
        iv = interval(math.sin(th))
        if iv is None:
            return 0.0
        lo, hi = iv
        if tail:
            lo = max(lo, thresh(math.sin(th)))
        return math.cos(th) ** (p - 2) * _chi2_mass(lo, hi, p)

    # the integrand has kinks where the event interval appears
    kinks = []
    if c > 0 and d1 != 0:
        s = math.sqrt(4.0 * d0 * c / (d1 * d1 * q_r))
        if s < 1:
            kinks = [-math.asin(s), math.asin(s)]
    kw = dict(points=kinks or None, limit=1000, epsabs=1e-14, epsrel=1e-11)
    num = integrate.quad(lambda th: part(th, True), -math.pi / 2, math.pi / 2, **kw)[0]
    den = integrate.quad(lambda th: part(th, False), -math.pi / 2, math.pi / 2, **kw)[0]
    return num / den


def check_clr(report, y, d, z, beta0, alpha, c0, tol=2e-6):
    """Conditional and naive CLR tails at beta0 against independent
    quadrature, and the naive interval's endpoints against the naive
    tail: retained at the endpoints, excluded one grid step outside."""
    n, p = z.shape
    m, omega = _moments(y, d, z)
    rss = float(d @ d) - m[1, 1]
    lambda_sq = c0 * (p / (n - p)) * rss
    problems = []

    def naive_at(b):
        lr, _, q_r, _ = clr_quadratics(m, omega, b)
        return clr_tail_quad(lr, q_r, p)

    lr, _, q_r, coefs = clr_quadratics(m, omega, beta0)
    if coefs[0] <= 1e-12:
        return [f"truncation has no quadratic term at beta0 = {beta0}"]
    cond = clr_tail_quad(lr, q_r, p, coefs, lambda_sq)
    naive = clr_tail_quad(lr, q_r, p)
    if not _close(report["conditional_pvalue"], cond, 0.0, tol):
        problems.append(f"conditional CLR p-value {report['conditional_pvalue']} vs quadrature {cond:.9f}")
    if not _close(report["naive_pvalue"], naive, 0.0, tol):
        problems.append(f"naive CLR p-value {report['naive_pvalue']} vs quadrature {naive:.9f}")

    ci = report["naive_ci"]
    grid = report["diagnostics"]["naive_grid"]
    ref = tsls_closed_form(y, d, z, beta0, alpha)
    step = 16.0 * ref["se"] / (grid["grid_size"] - 1)
    for side, sign in (("lower", -1.0), ("upper", 1.0)):
        end = ci[side]
        if end is None:
            continue
        if naive_at(end) < alpha - tol:
            problems.append(f"naive CLR interval {side} end {end} has p < alpha")
        if grid["expansion_rounds"] == 0 and naive_at(end + sign * step) > alpha + tol:
            problems.append(f"naive CLR interval stops at {end} though the next grid point has p > alpha")
    return problems


# --------------------------------------------------------------------- lasso


def check_lasso_selection(z, d, lambda_l, omega, gamma, subgradient, tol=1e-6):
    """Stationarity -Z'(D - Z gamma) + lambda u = omega with u = sign(gamma)
    on the support and |u| <= 1 off it, on prepared data."""
    gamma = np.asarray(gamma, dtype=float)
    u = (np.asarray(omega) + z.T @ (d - z @ gamma)) / lambda_l
    scale = tol * max(1.0, float(np.max(np.abs(u))))
    support = gamma != 0
    problems = []
    if not support.any():
        problems.append("empty support")
    if np.any(np.abs(u[support] - np.sign(gamma[support])) > scale):
        problems.append(f"stationarity fails on the support: u = {u[support]}")
    if np.any(np.abs(u[~support]) > 1.0 + scale):
        problems.append(f"box condition fails off the support: u = {u[~support]}")
    if np.any(np.abs(u - np.asarray(subgradient)) > scale):
        problems.append("reported subgradient differs from the stationarity solution")
    return problems


# ---------------------------------------------------------------- uniformity


def check_coverage(studies, alpha, drift=0.05, gap=0.10):
    """Pooled conditional coverage of a uniformity study within three
    binomial SEs of [1 - alpha - drift, 1 - alpha], and naive coverage at
    least gap below it.  Each study's reported coverage must also equal
    the share of its own p-values at or above alpha.

    studies: list of (summary dict, sorted p-values)."""
    problems = []
    m_tot = cond_hits = naive_hits = 0.0
    for summary, pvals in studies:
        m = round(summary["passing_rate"] * summary["reps"])
        if len(pvals) != m:
            problems.append(f"{len(pvals)} p-values for {m} passing replications")
            continue
        if np.any((pvals < 0) | (pvals > 1)) or np.any(np.diff(pvals) < 0):
            problems.append("p-values outside [0, 1] or not sorted")
        share = float(np.mean(pvals >= alpha))
        if abs(share - summary["conditional_coverage"]) > 1e-12:
            problems.append(f"conditional coverage {summary['conditional_coverage']} but {share} of p-values >= alpha")
        m_tot += m
        cond_hits += summary["conditional_coverage"] * m
        naive_hits += summary["naive_coverage"] * m
    if m_tot == 0:
        return problems + ["no passing replications"]
    cond, naive = cond_hits / m_tot, naive_hits / m_tot
    lo_target, hi_target = 1.0 - alpha - drift, 1.0 - alpha
    lo = lo_target - 3.0 * math.sqrt(lo_target * (1 - lo_target) / m_tot)
    hi = hi_target + 3.0 * math.sqrt(hi_target * (1 - hi_target) / m_tot)
    if not lo <= cond <= hi:
        problems.append(f"pooled conditional coverage {cond:.4f} outside [{lo:.4f}, {hi:.4f}] (m = {m_tot:.0f})")
    if naive > cond - gap:
        problems.append(f"naive coverage {naive:.4f} not {gap} below conditional {cond:.4f}")
    return problems
