"""balint: balancing intercepts for regression-based data generation.

Solve the intercept that makes a generalized-linear data-generating mechanism
hit a target marginal outcome mean, generate data from the solved model, and
verify the result by Monte Carlo replication.
"""

from .coding import (
    CodingScheme,
    Effect,
    ReferenceCell,
    WeightedEffect,
    categorical_expectation,
    coding_by_name,
)
from .datagen import Column, Dataset, generate
from .distributions import (
    Bernoulli,
    Categorical,
    Cauchy,
    CovariateSpec,
    Gamma,
    Normal,
    RngStream,
    UniformContinuous,
)
from .errors import (
    ConfigError,
    EngineMismatchError,
    Error,
    InfeasibleError,
    LinkDomainError,
    MgfDomainError,
    NoMgfError,
    NoRootError,
    OutOfRangeError,
    SpecError,
    UndefinedMomentError,
    WrongLinkError,
)
from .harness import (
    CSV_COLUMNS,
    GridConfig,
    GridRow,
    Scenario,
    ScenarioResult,
    expand_grid,
    run_grid,
    run_scenario,
    scenario_stream,
    summarize,
    write_csv,
)
from .intercept import (
    BernoulliOutcome,
    ClampPolicy,
    ClampToUnit,
    DgpSpec,
    Engine,
    ExactEnumeration,
    InterceptSolution,
    MonteCarlo,
    NormalOutcome,
    OutcomeFamily,
    RejectOutOfRange,
    Term,
    expectation_of_mean,
    solve,
    solve_linear_scale,
    solve_log_closed_form,
    solve_numeric,
)
from .links import Identity, Link, Log, Logit, link_by_name

__version__ = "0.1.0"
