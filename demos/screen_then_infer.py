"""Walk one dataset through the full pipeline: randomized strength screen,
then inference on the treatment effect that accounts for having screened.

Run: python3 demos/screen_then_infer.py
"""
import json

from ivselect.model import tsls_estimate, tsls_standard_error
from ivselect.pretest import f_statistic, run_pretest
from ivselect.sampler import invert_ci, wald_interval
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
    # the conditional p-value and interval are exact tails by quadrature;
    # the naive ones ignore the screen
    beta0 = 1.0
    report = invert_ci(data, pretest, alpha=0.05, null_value=beta0)
    print(f"\ntesting beta0 = {beta0}:")
    print(f"  conditional p = {report.conditional_pvalue:.4f}, 95% interval {report.conditional_ci}")
    print(f"  naive p       = {report.naive_pvalue:.4f}, 95% interval {report.naive_ci}")
    print("\nfull report:")
    print(json.dumps(report.to_dict(), indent=2, default=str)[:800])
else:
    print("screen failed; see demos/weak_branch.py for what happens then")
    print(f"\nnaive 95% interval (ignores the screen): {wald_interval(data)}")
