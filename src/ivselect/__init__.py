"""Selective inference for linear instrumental-variable models.

The screen-then-estimate workflow (keep the instruments only if the
first-stage F beats a threshold, or only if the Lasso selects them)
distorts the usual TSLS test.  This package randomizes the screen,
derives the exact conditional null law of the post-screen statistic,
and samples or integrates it to produce valid p-values and confidence
intervals, alongside the naive quantities for comparison.
"""

from .clr import (
    ClrTruncation,
    QuadratureConfig,
    clr_conditional_inference,
    clr_tail,
    clr_tails,
    k4_constant,
    truncation_from_estimates,
)
from .errors import (
    BranchError,
    ConvergenceError,
    CovarianceError,
    DataError,
    DegenerateFirstStageError,
    DimensionError,
    ExperimentError,
    IVSelectError,
    QuadratureError,
    RankDeficiencyError,
    SamplerError,
    TruncationError,
)
from .lasso import (
    LassoLaw,
    LassoSelection,
    build_law_lasso,
    default_lasso_penalty,
    default_lasso_scale,
    lasso_conditional_inference,
    sample_selection_paths,
    solve_randomized_lasso,
)
from .model import (
    IVDataset,
    ModelEstimates,
    Moments,
    covariance_estimates,
    prepare,
    sufficient_statistic,
    tsls_estimate,
    tsls_standard_error,
)
from .pretest import (
    PretestOutcome,
    RandomizationLaw,
    default_scale,
    f_statistic,
    penalty_lambda,
    run_pretest,
    solve_randomized,
)
from .report import Interval, InferenceReport, invert_pvalue_curve
from .sampler import (
    ConditionalLaw,
    SamplerConfig,
    build_law_tsls,
    gibbs_sample,
    invert_ci,
    sample_paths,
    wald_interval,
)
from .simulate import (
    CoverageCell,
    DGPConfig,
    ExperimentGrid,
    ExperimentResult,
    coverage_csv,
    coverage_experiment,
    dgp_from_r,
    generate,
    lasso_uniformity_experiment,
    pvalue_cdf_csv,
    rejection_oracle,
    uniformity_experiment,
)
from .teststats import (
    ClrComponents,
    StatKind,
    TestValue,
    ar_stat,
    clr_components,
    clr_stat,
    clr_statistic_from_q,
    clr_statistics,
    tsls_stat,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
