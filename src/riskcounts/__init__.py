"""riskcounts: population-scale risk accounting for two-arm exposure questions.

The package answers questions of the form "if one group of people carries a
higher per-person risk than another, what actually happens when you count
cases across whole populations?"  It builds exact (to a declared tolerance)
count distributions for each arm, compares them head-to-head, folds in
uncertainty about the per-person risks through beta priors, runs the
classical two-proportion test for contrast, and generates synthetic cohorts
that show what that test can and cannot establish about cause.

Numerics are deterministic: distribution construction is closed-form
log-space arithmetic with explicit truncation budgets, and every simulation
is driven by counter-based streams keyed on a declared seed.
"""

# Set before the submodule imports: figures stamps it into CSV headers.
__version__ = "0.1.0"

from .classical import TestResult, TwoByTwo, relative_risk_estimate, two_proportion_test
from .cohort import (
    CausalSpec,
    Cohort,
    CovariateRule,
    ProxyRule,
    ReplicationReport,
    VariantStats,
    banana_swap,
    false_cause_rate,
    generate,
    proxy_study,
    replication_study,
)
from .comparison import (
    BoundedProbability,
    ComparisonSummary,
    ExposureScenario,
    LivesSavedBounds,
    SplitComparison,
    counterfactual_all_low,
    lives_saved_bounds,
    more_in_high,
    observed_comparison,
    prob_equal,
    prob_greater,
    prob_less,
    summarize,
    split_vs_counterfactual,
    times_as_many,
)
from .distributions import (
    DEFAULT_EPS,
    BetaParams,
    CountDistribution,
    CredibleInterval,
    DomainError,
    beta_binomial_distribution,
    binomial_distribution,
    binomial_log_pmf,
    central_interval,
    convolve,
    mode,
    quantile,
)
from .figures import FigureTable, build_figure, render_figure_csv, write_text_atomic
from .predictive import (
    CalibrationError,
    SpreadReport,
    UncertainScenario,
    calibrate_prior,
    calibrated_scenario,
    posterior_update,
    predictive_arms,
    spread_report,
    spread_reports,
)
from .scenarios import (
    BUNDLED_SCENARIOS,
    ScenarioError,
    ScenarioFile,
    load_bundled,
    load_scenario,
    parse_scenario,
)

__all__ = [
    "__version__",
    # distributions
    "DEFAULT_EPS",
    "BetaParams",
    "CountDistribution",
    "CredibleInterval",
    "DomainError",
    "beta_binomial_distribution",
    "binomial_distribution",
    "binomial_log_pmf",
    "central_interval",
    "convolve",
    "mode",
    "quantile",
    # comparison
    "BoundedProbability",
    "ComparisonSummary",
    "ExposureScenario",
    "LivesSavedBounds",
    "SplitComparison",
    "counterfactual_all_low",
    "lives_saved_bounds",
    "more_in_high",
    "observed_comparison",
    "prob_equal",
    "prob_greater",
    "prob_less",
    "summarize",
    "split_vs_counterfactual",
    "times_as_many",
    # predictive
    "CalibrationError",
    "SpreadReport",
    "UncertainScenario",
    "calibrate_prior",
    "calibrated_scenario",
    "posterior_update",
    "predictive_arms",
    "spread_report",
    "spread_reports",
    # classical
    "TestResult",
    "TwoByTwo",
    "relative_risk_estimate",
    "two_proportion_test",
    # cohort
    "CausalSpec",
    "Cohort",
    "CovariateRule",
    "ProxyRule",
    "ReplicationReport",
    "VariantStats",
    "banana_swap",
    "false_cause_rate",
    "generate",
    "proxy_study",
    "replication_study",
    # figures
    "FigureTable",
    "build_figure",
    "render_figure_csv",
    "write_text_atomic",
    # scenarios
    "BUNDLED_SCENARIOS",
    "ScenarioError",
    "ScenarioFile",
    "load_bundled",
    "load_scenario",
    "parse_scenario",
]
