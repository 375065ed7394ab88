"""balint: balancing intercepts for regression-based data generation.

Solve the intercept that makes a generalized-linear data-generating mechanism
hit a target marginal outcome mean, generate data from the solved model, and
verify the result by Monte Carlo replication.
"""

from .datagen import Column, Dataset, generate
from .distributions import (
    CODINGS,
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
    CLAMPS,
    BernoulliOutcome,
    DgpSpec,
    Engine,
    ExactEnumeration,
    InterceptSolution,
    MonteCarlo,
    NormalOutcome,
    OutcomeFamily,
    Term,
    expectation_of_mean,
    solve,
    solve_linear_scale,
    solve_log_closed_form,
    solve_numeric,
)
from .links import Identity, Link, Log, Logit, link_by_name

__version__ = "0.1.0"
