"""Show why conditioning matters: with weak instruments, only lucky draws
survive the strength screen, and naive TSLS inference on the survivors
overstates significance.  Conditional p-values stay close to uniform.

Run: python3 demos/selection_distortion.py  (a few seconds)
"""
from ivselect.simulate import dgp_from_r, uniformity_experiment

print("null replications at the true effect; coverage = fraction of 95% "
      "intervals covering the truth among screen survivors\n")
print(f"{'r':>5} {'pass rate':>10} {'naive cov':>10} {'cond cov':>10} {'KS p (cond)':>12}")

for r, reps in [(0.5, 300), (0.12, 600), (0.10, 800)]:
    config = dgp_from_r(r=r, sigma12=0.8, n=1000, p=10, beta_star=1.0, seed=21)
    res = uniformity_experiment(config, c0=10.0, reps=reps)
    print(f"{r:>5} {res.passing_rate:>10.3f} {res.naive_coverage:>10.3f} "
          f"{res.conditional_coverage:>10.3f} {res.ks_pvalue:>12.4f}")

print("\nAt r = 0.5 the screen always passes and nothing is distorted.")
print("At r = 0.10 only strong-looking draws pass: naive coverage collapses "
      "while the conditional intervals hold close to the nominal level.")
print("The conditional pivot itself starts to drift at the weakest designs "
      "(the KS column), a known limit of the plug-in law, but its coverage "
      "degrades by a point or two where the naive answer loses ten or more.")
