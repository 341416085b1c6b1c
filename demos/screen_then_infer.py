"""Walk one dataset through the full pipeline: randomized strength screen,
then inference on the treatment effect that accounts for having screened.

Run: python3 demos/screen_then_infer.py
"""
import json

import numpy as np

from ivselect.model import covariance_estimates, tsls_estimate, tsls_standard_error
from ivselect.pretest import f_statistic, run_pretest
from ivselect.sampler import SamplerConfig, build_law_tsls, invert_ci, sample_paths, wald_interval
from ivselect.simulate import dgp_from_r, generate

# Moderately strong design: 10 instruments, first-stage slope 0.3 each.
# The true effect is 1.0, errors are correlated (endogeneity 0.8).
config = dgp_from_r(r=0.3, sigma12=0.8, n=1000, p=10, beta_star=1.0, seed=11)
data = generate(config)

print(f"n = {data.n}, p = {data.p}")
print(f"first-stage F = {f_statistic(data):.2f}")
print(f"TSLS estimate = {tsls_estimate(data):.4f} (SE {tsls_standard_error(data):.4f})")

# The screen adds Gaussian noise omega to the first-stage statistic before
# thresholding, which is what makes exact conditional inference tractable.
pretest = run_pretest(data, c0=10.0, seed=0)
print(f"\nscreen: lambda = {pretest.lam:.3f}, ||S + omega|| - lambda = {pretest.d:.3f}, "
      f"passed = {pretest.passed}")

if pretest.passed:
    beta0 = 1.0
    est = covariance_estimates(data, beta0)
    law = build_law_tsls(data, beta0, pretest, est)
    draws, _ = sample_paths(law, SamplerConfig(n_samples=6000, burn_in=1500, seed=1, chains=1))
    t_obs = law.t_obs
    p_cond = min(1.0, 2 * min(np.mean(draws >= t_obs), np.mean(draws <= t_obs)))
    print(f"\ntesting beta0 = {beta0}: t_obs = {t_obs:.3f}")
    print(f"conditional p from 6000 Gibbs draws = {p_cond:.4f}")

    # the report's p-values and interval are exact tails by quadrature
    report = invert_ci(data, pretest, alpha=0.05, null_value=beta0)
    print(f"exact conditional p = {report.conditional_pvalue:.4f}")
    print("\nfull report:")
    print(json.dumps(report.to_dict(), indent=2, default=str)[:800])
else:
    print("screen failed; see demos/weak_branch.py for what happens then")

print(f"\nnaive 95% interval (ignores the screen): {wald_interval(data)}")
