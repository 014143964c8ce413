"""Statistics substrate: every test and model the paper runs.

Implements from scratch (on numpy/scipy special functions): Wilson and
Wald binomial intervals, pooled two-sample z-tests, chi-square equal-rate
and homogeneity tests, Pearson/Spearman correlation with t-tests,
autocorrelation, Poisson and negative-binomial GLMs via IRLS, and
likelihood-ratio ANOVA.
"""

from .anova import AnovaError, AnovaResult, likelihood_ratio_test, saturated_vs_common_rate
from .contingency import (
    ChiSquareResult,
    ContingencyError,
    PermutationTestResult,
    equal_rates_test,
    grouping_permutation_test,
    homogeneity_test,
    two_proportion_chi_square,
)
from .correlation import (
    CorrelationError,
    CorrelationResult,
    autocorrelation,
    pearson,
    spearman,
)
from .distfit import (
    DistFitError,
    DistributionFit,
    FAMILIES,
    best_fit,
    fit_all,
    fit_family,
)
from .descriptive import (
    DescriptiveError,
    SampleSummary,
    rate_per,
    share,
    summarize,
)
from .glm import (
    Coefficient,
    GLMError,
    GLMResult,
    fit_negative_binomial,
    fit_poisson,
)
from .seeding import DEFAULT_SEED, resolve_rng
from .proportion import (
    ProportionError,
    ProportionEstimate,
    TwoSampleResult,
    factor_increase,
    two_sample_z_test,
    wald_interval,
    wilson_interval,
)

__all__ = [
    "AnovaError",
    "AnovaResult",
    "ChiSquareResult",
    "PermutationTestResult",
    "Coefficient",
    "ContingencyError",
    "CorrelationError",
    "CorrelationResult",
    "DEFAULT_SEED",
    "DescriptiveError",
    "DistFitError",
    "DistributionFit",
    "FAMILIES",
    "GLMError",
    "GLMResult",
    "ProportionError",
    "ProportionEstimate",
    "SampleSummary",
    "TwoSampleResult",
    "autocorrelation",
    "best_fit",
    "equal_rates_test",
    "fit_all",
    "fit_family",
    "factor_increase",
    "grouping_permutation_test",
    "fit_negative_binomial",
    "fit_poisson",
    "homogeneity_test",
    "likelihood_ratio_test",
    "pearson",
    "rate_per",
    "resolve_rng",
    "saturated_vs_common_rate",
    "share",
    "spearman",
    "summarize",
    "two_proportion_chi_square",
    "two_sample_z_test",
    "wald_interval",
    "wilson_interval",
]
