"""Balancing-intercept solvers.

Three routes to the intercept beta0 that makes the marginal outcome mean hit
its target:

  solve_linear_scale    beta0 = g(target) - sum_j beta_j E(X_j). Exact for the
                        identity link only; for log/logit it is the naive
                        comparator (Jensen's inequality breaks it) and the
                        solution is flagged.
  solve_log_closed_form beta0 = log(target) - sum_j log E[exp(beta_j X_j)],
                        exact for the log link with independent covariates,
                        from sums over finite terms' points and continuous
                        terms' MGFs; a term without an MGF is refused under
                        either engine.
  solve_numeric         bracketed bisection on beta0 -> E[g^-1(beta0 + eta)],
                        the route for logit and for anything without a closed
                        form. Monotone because g^-1 is strictly increasing.

The link (links.py) owns its domain, the moment of eta it balances and the
exact mean those moments give; moment_mean sums the moments, for the linear
scale's residual and for verification, where the link has them (identity, log).

The numeric route's engine owns its name, its default tol and
expectation(dgp, rng), a context manager yielding b0 -> E[g^-1(b0 + eta)]:
ExactEnumeration enumerates every term's points (Term.points), and MonteCarlo
freezes independent per-term draws once per solve (common random numbers),
making the objective deterministic and monotone within that solve. Nothing
branches on the engine's type; its dataclass fields are its config keys.

With Monte Carlo most bisection steps are decided by a certified interval
around the sample mean, taken from runs of the sorted draws, instead of a
full pass over the draws, with the same result to the bit (expectation.py
has the filter and its proof).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cached_property
from typing import ContextManager, Iterator, Literal, Optional, Sequence, Union, get_args

import numpy as np

from .distributions import (
    Categorical, CovariateSpec, RngStream, Streams, check_choice, check_int, check_real, draw_rows, is_real, scratch_view
)
from .errors import (
    EngineMismatchError,
    InfeasibleError,
    MgfDomainError,
    NoRootError,
    OutOfRangeError,
    SpecError,
    UndefinedMomentError,
    WrongLinkError,
)
from .expectation import WORKSPACE, Enumerated, Expectation, FrozenDraws, Residual
from .links import Link, Log

__all__ = [
    "CLAMPS",
    "NormalOutcome",
    "BernoulliOutcome",
    "OutcomeFamily",
    "Term",
    "draw_terms",
    "DgpSpec",
    "ExactEnumeration",
    "MonteCarlo",
    "Engine",
    "InterceptSolution",
    "solve_linear_scale",
    "solve_log_closed_form",
    "moment_mean",
    "expectation_of_mean",
    "solve_numeric",
    "solve",
    "SOLVER_NAMES",
]

DEFAULT_TOL_EXACT = 1e-10
DEFAULT_TOL_MC = 1e-4
MAX_EXPANSIONS = 60
MAX_BISECTIONS = 200

MAX_ENUM_SUPPORT = 1_000_000


def _reject_first(mu: np.ndarray, eta: np.ndarray, bad: np.ndarray, what: str) -> None:
    """Raise OutOfRangeError naming the first row where bad holds, its mean and its eta; else nothing.

    Over a block of datasets (mu of shape (rows, n)) the row is the first in
    the first dataset that has one, its index counted within that dataset.
    """
    k = int(np.argmax(bad))  # the first such row, else 0
    if bad.flat[k]:
        row, m, e = k % mu.shape[-1], mu.flat[k], eta.flat[k]
        raise OutOfRangeError(f"row {row}: mean {m:.6g} {what} (eta = {e:.6g}); generation rejected")


@dataclass(frozen=True)
class NormalOutcome:
    """A normal outcome around mu: draw refuses a mean that is not finite, naming row and eta."""

    sd: float
    family = "normal"
    domain = (-math.inf, math.inf)

    def __post_init__(self) -> None:
        if not is_real(self.sd):
            raise SpecError(f"normal outcome sd must be a number, got {self.sd!r}")
        if not 0.0 < self.sd < math.inf:
            raise SpecError(f"normal outcome sd must be positive and finite, got {self.sd}")

    def draw(self, mu: np.ndarray, eta: np.ndarray, rng: Streams, out: np.ndarray):
        """(mu + sd * z into out, 0 clamped), bit for bit numpy's normal(mu, sd) from rng.

        One sum of mu tells whether every mean is finite; only where it is not
        are the rows searched, as a sum of finite means may overflow too.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            if not math.isfinite(np.add.reduce(mu, axis=None)):
                _reject_first(mu, eta, ~np.isfinite(mu), "is not finite")
        z = draw_rows(mu.shape[-1], rng, out, lambda g, row: g.standard_normal(row.size, out=row))
        return np.add(np.multiply(z, self.sd, out=z), mu, out=z), 0


CLAMPS = ("clamp_to_unit", "reject_out_of_range")


@dataclass(frozen=True)
class BernoulliOutcome:
    """A Bernoulli outcome: draw gives 1.0 where a uniform in [0, 1) falls below mu, else 0.0.

    clamp names what draw does with a mean outside [0, 1]: clamp_to_unit clips it in eta and
    counts those rows (draw's second value), reject_out_of_range refuses it, naming row and eta
    (_reject_first). Over a block of datasets (mu of shape (rows, n)) the count is the block's.
    The masks are taken in out before the uniforms are drawn there.
    """

    clamp: str = "clamp_to_unit"
    family = "bernoulli"
    domain = (0.0, 1.0)

    def __post_init__(self) -> None:
        check_choice(self.clamp, CLAMPS, "clamp policy")

    def draw(self, mu: np.ndarray, eta: np.ndarray, rng: Streams, out: np.ndarray):
        p, clamp_count = mu, 0
        if self.clamp == "clamp_to_unit":
            p = np.clip(mu, 0.0, 1.0, out=eta)
            clamped = np.not_equal(p, mu, out=scratch_view(out, np.bool_, mu.shape))
            clamp_count = int(np.count_nonzero(clamped))
        else:
            below = np.less(mu, 0.0, out=scratch_view(out, np.bool_, mu.shape))
            above = np.greater(mu, 1.0, out=scratch_view(out, np.bool_, mu.shape, mu.size))
            _reject_first(mu, eta, np.logical_or(below, above, out=below), "outside [0, 1]")
        u = draw_rows(mu.shape[-1], rng, out, lambda g, row: g.random(row.size, out=row))
        return np.less(u, p, out=u), clamp_count


OutcomeFamily = Union[NormalOutcome, BernoulliOutcome]


@dataclass(frozen=True)
class Term:
    """One covariate and its coefficient block.

    Continuous specs take a scalar beta; a p-level categorical takes p-1
    coefficients, one per encoded column.
    """

    name: str
    spec: CovariateSpec
    beta: Union[float, tuple[float, ...]]

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise SpecError("term name must be a nonempty string")
        if isinstance(self.spec, Categorical):
            if isinstance(self.beta, str) or not np.iterable(self.beta):
                raise SpecError(f"term '{self.name}': categorical covariate needs a coefficient vector")
            block = tuple(check_real(b, f"term '{self.name}': beta") for b in self.beta)
            if len(block) != self.spec.p - 1:
                raise SpecError(
                    f"term '{self.name}': coefficient block has length {len(block)}, "
                    f"need {self.spec.p - 1} for {self.spec.p} levels"
                )
            object.__setattr__(self, "beta", block)
        else:
            object.__setattr__(self, "beta", check_real(self.beta, f"term '{self.name}': beta"))

    @property
    def betas(self) -> np.ndarray:
        """Coefficient block as a vector (length p-1, or 1 for continuous)."""
        return np.atleast_1d(np.asarray(self.beta, dtype=float))

    @cached_property
    def _level_eta(self) -> np.ndarray:
        """A categorical's contribution per level, rows() @ betas, built once per term."""
        # a share may overflow: points leaves out a level of probability 0, and
        # any other level's inf reaches every mean and moment it is in
        with np.errstate(over="ignore"):
            return self.spec.rows() @ self.betas

    def eta(self, values: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """This term's share of the linear predictor at the given draws or support points."""
        if isinstance(self.spec, Categorical):
            # levels are always in range, so "clip" never clips; unlike the
            # default "raise" it writes into out without a buffered copy
            return np.take(self._level_eta, values, out=out, mode="clip")
        return np.multiply(self.beta, values, out=out)

    @cached_property
    def points(self) -> tuple[tuple[float, float], ...]:
        """A finite spec's support as (this term's share of eta, probability) float pairs, in support order.

        The only description of a finite covariate: its term's mean and
        exponential moment and exact enumeration all read it. Points of
        probability 0 are left out: such a point adds nothing to a mean or a
        moment, and its share may overflow to make it 0 * inf. Built once per
        term and shared by every caller.
        """
        if not hasattr(self.spec, "support"):
            raise EngineMismatchError(
                f"term '{self.name}' ({self.spec.kind}) is continuous; exact enumeration "
                "needs finite supports"
            )
        values, pr = self.spec.support()
        return tuple(zip(self.eta(values[pr > 0.0]).tolist(), pr[pr > 0.0].tolist()))

    def mean(self) -> float:
        """E[beta' X]; raises, naming the term, where the mean does not exist."""
        if hasattr(self.spec, "support"):
            total = 0.0
            for e, p in self.points:
                total += p * e
            return total
        try:
            return self.beta * self.spec.mean()
        except UndefinedMomentError as e:
            raise UndefinedMomentError(f"term '{self.name}': {e}") from None

    def exp_moment(self, scale: float = 1.0) -> float:
        """E[exp(scale * beta' X)], inf where it overflows a double and 0.0 where it underflows.

        Raises, naming the term, where no moment exists.
        """
        try:
            if hasattr(self.spec, "support"):
                total = 0.0
                for e, p in self.points:
                    total += p * math.exp(scale * e)
                return total
            return self.spec.mgf(scale * self.beta)
        except MgfDomainError as e:
            raise MgfDomainError(f"term '{self.name}': {e}") from None
        except OverflowError:
            return math.inf


def draw_terms(
    terms: Sequence[Term],
    n: int,
    rng: Streams,
    eta: np.ndarray,
    work: Optional[tuple[np.ndarray, np.ndarray]] = None,
    beta0: Optional[float] = None,
) -> list[np.ndarray]:
    """Draw n values per term, term j from rng.child(j), writing beta0 + their eta shares into eta.

    A term's draws depend only on its own substream, so adding a term never
    perturbs the draws of earlier ones. Returns the draws in term order.
    The first term's share is written straight into eta and beta0 added to
    it (the same bits as adding it to beta0), each later share added in
    place; beta0=None adds none, so eta may hold -0.0 where a sum from 0.0
    would hold +0.0. work = (x, y), two float64 arrays shaped like eta:
    each term is drawn into x, with y as its scratch, and its share of eta
    written into y, so nothing of size n is allocated, and the draws
    returned are views of x that each later term overwrites. rng may be a
    block of streams (RngRows) and eta (rows, n): row r of every array is
    then the draw from rng's r-th stream, the same bits as that stream alone.
    """
    x, y = work or (None, None)
    if not terms:
        eta.fill(0.0 if beta0 is None else beta0)
    draws = []
    for j, term in enumerate(terms):
        values = term.spec.sample(n, rng.child(j), out=x, scratch=y)
        if j:
            eta += term.eta(values, out=y)
        else:
            term.eta(values, out=eta)
            if beta0 is not None:
                eta += beta0
        draws.append(values)
    return draws


@dataclass(frozen=True)
class DgpSpec:
    """A complete data-generating mechanism minus its intercept.

    terms are sampled independently of each other, each from its own
    substream (draw_terms), which is the assumption the closed forms rest on.
    """

    terms: tuple[Term, ...]
    link: Link
    outcome: OutcomeFamily
    target_mean: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))
        t = check_real(self.target_mean, "target_mean")
        object.__setattr__(self, "target_mean", t)
        names = [term.name for term in self.terms]
        if len(set(names)) != len(names):
            raise SpecError(f"term names must be distinct, got {names}")
        self.link.check(t, "target_mean")
        lo, hi = self.outcome.domain
        if not lo < t < hi:
            name = self.outcome.family.capitalize()
            raise SpecError(f"a {name} outcome needs target_mean in ({lo:g}, {hi:g}), got {t}")


@dataclass(frozen=True)
class ExactEnumeration:
    name = "exact"
    tol = DEFAULT_TOL_EXACT

    @contextmanager
    def expectation(self, dgp: DgpSpec, rng: Optional[RngStream]) -> Iterator[Enumerated]:
        """The mean over every attainable value of eta - beta0, from each term's points.

        A combined point whose probability, the product of its terms', underflows
        to 0 is left out, as Term.points leaves out a point of probability 0: it
        adds nothing, and its eta may overflow to make it 0 * inf. rng is not used.
        """
        etas, probs = np.zeros(1), np.ones(1)
        for term in dgp.terms:
            contrib, pr = np.array(term.points).T
            if etas.size * contrib.size > MAX_ENUM_SUPPORT:
                raise EngineMismatchError(
                    f"combined covariate support exceeds {MAX_ENUM_SUPPORT} points"
                )
            etas = (etas[:, None] + contrib[None, :]).ravel()
            probs = (probs[:, None] * pr[None, :]).ravel()
        if not probs.all():
            etas, probs = etas[probs > 0.0], probs[probs > 0.0]
        yield Enumerated(dgp.link, etas, probs)


@dataclass(frozen=True)
class MonteCarlo:
    n_mc: int = 100_000
    name = "mc"
    tol = DEFAULT_TOL_MC

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_mc", check_int(self.n_mc, "n_mc", 2))

    @contextmanager
    def expectation(self, dgp: DgpSpec, rng: Optional[RngStream]) -> Iterator[FrozenDraws]:
        """The mean over n_mc joint draws of eta - beta0, one substream of rng per term.

        The draws are frozen in arrays borrowed from this thread's WORKSPACE
        until the block ends.
        """
        if rng is None:
            raise SpecError("the Monte Carlo engine needs an rng stream")
        with WORKSPACE.borrow(self.n_mc) as (eta, x, mu):
            draw_terms(dgp.terms, self.n_mc, rng, eta, (x, mu))
            yield FrozenDraws(dgp.link, eta, (x, mu))


Engine = Union[ExactEnumeration, MonteCarlo]


@dataclass(frozen=True)
class InterceptSolution:
    beta0: float
    method: str
    residual: float
    iterations: int
    mc_se: float
    warnings: frozenset[str] = frozenset()


def moment_mean(beta0: float, dgp: DgpSpec) -> Optional[float]:
    """E[g^-1(beta0 + eta)] from the terms' summed Link.moment, exact to rounding.

    None under logit or where the moments' sum is not finite; raises by term name where one does not exist.
    """
    moments = [dgp.link.moment(term) for term in dgp.terms]
    if None in moments:
        return None
    total = 0.0
    for moment in moments:
        total += moment
    return dgp.link.exact_mean(beta0 + total) if math.isfinite(total) else None


def solve_linear_scale(dgp: DgpSpec) -> InterceptSolution:
    """beta0 = g(target) - sum_j beta_j E(X_j), on the linear predictor scale.

    Exact for the identity link. For log/logit the same arithmetic is the
    naive approximation that ignores E[g^-1(...)] != g^-1(E[...]); it is
    returned for comparison purposes with a 'naive_linear_scale' warning and
    its true residual where that is tractable (moment_mean, else enumeration).
    """
    g = dgp.link.apply(dgp.target_mean)
    s = 0.0
    for term in dgp.terms:
        s += term.mean()
    beta0 = g - s
    warnings = set() if dgp.link.linear else {"naive_linear_scale"}
    try:
        value = moment_mean(beta0, dgp)
    except MgfDomainError:
        value = math.inf  # a divergent moment
    if value is None:
        try:
            value, _ = expectation_of_mean(beta0, dgp, ExactEnumeration())
        except EngineMismatchError:
            value = math.nan
            warnings.add("residual_unverified")
    return InterceptSolution(
        beta0=beta0,
        method="linear_scale",
        residual=abs(value - dgp.target_mean),
        iterations=0,
        mc_se=0.0,
        warnings=frozenset(warnings),
    )


def solve_log_closed_form(dgp: DgpSpec) -> InterceptSolution:
    """beta0 = log(target) - sum_j log E[exp(beta_j X_j)], log link only.

    Valid because independent covariates factor the expectation into a product
    of per-term exponential moments, each a sum over a finite term's points
    (Term.points) or a continuous term's MGF. A term whose moment is infinite
    (no MGF, or t outside the MGF's domain) has no balancing intercept, and
    the error names it; no engine changes that, so the solver takes none.
    """
    if dgp.link.name != Log.name:
        raise WrongLinkError(f"the closed form solves the log link only, got '{dgp.link.name}'")
    ln_total = 0.0
    for term in dgp.terms:
        ln_moment = dgp.link.moment(term)
        if ln_moment == math.inf:
            raise InfeasibleError(f"term '{term.name}': E[exp(beta' X)] overflows a double")
        if ln_moment == -math.inf:
            raise InfeasibleError(f"term '{term.name}': E[exp(beta' X)] underflows to 0 in a double")
        ln_total += ln_moment
    beta0 = math.log(dgp.target_mean) - ln_total
    residual = abs(math.exp(beta0 + ln_total) - dgp.target_mean)
    return InterceptSolution(
        beta0=beta0,
        method="log_closed_form",
        residual=residual,
        iterations=0,
        mc_se=0.0,
    )


def _expectation(
    dgp: DgpSpec, engine: Engine, rng: Optional[RngStream]
) -> ContextManager[Expectation]:
    """b0 -> E[g^-1(b0 + eta)] under the engine, as a context manager.

    Raises first, by term name, where a term's Link.moment does not exist:
    a sample would estimate nothing.
    """
    for term in dgp.terms:
        dgp.link.moment(term)
    return engine.expectation(dgp, rng)


def expectation_of_mean(
    beta0: float,
    dgp: DgpSpec,
    engine: Engine = ExactEnumeration(),
    rng: Optional[RngStream] = None,
) -> tuple[float, float]:
    """(E[g^-1(beta0 + eta)], standard error); se is 0 on the exact path.

    Refuses a term whose moment does not exist as solve_numeric does.
    """
    with _expectation(dgp, engine, rng) as expectation:
        return expectation.mean(beta0), expectation.se(beta0)


def solve_numeric(
    dgp: DgpSpec,
    engine: Engine = ExactEnumeration(),
    tol: Optional[float] = None,
    rng: Optional[RngStream] = None,
) -> InterceptSolution:
    """Bracketed bisection on beta0 -> E[g^-1(beta0 + eta)] - target.

    The initial bracket is g(target) +/- 1; its half-width doubles (at most 60
    times) until the residual changes sign, then bisection runs until the
    residual is within tol (at most 200 iterations). g^-1 strictly increasing
    makes the objective monotone, so the bracketed root is unique. With the
    Monte Carlo engine the eta draws are frozen before bracketing, so every
    evaluation sees the same sample. The draws and every evaluation live in
    three n_mc arrays borrowed from the thread's expectation.WORKSPACE, so a
    solve allocates nothing of size n_mc after the first; mc_se comes from
    the evaluation at the returned beta0, and the solution warns
    infinite_variance where mc_se is positive but the link's
    finite_variance(terms) says the sample's variance, and so mc_se, means
    nothing. A term whose Link.moment does not exist is refused by name
    before anything is drawn.

    Each step asks one question of the residual f (f <= 0, 0 <= f, f < 0,
    f <= tol or -tol <= f). It is answered from a certified interval around
    f when the interval lies wholly on one side of the threshold, and from
    the exact evaluation otherwise (Residual, FrozenDraws.interval); the
    returned beta0, residual and mc_se all come from exact evaluations. So
    the result is bit-identical to running every step exactly, while a
    100k-draw Monte Carlo solve sorts its draws once, by float32 keys, and
    makes about 1.5 full passes instead of 14. Its intervals come in two
    levels: about 64 coarse runs of the sorted draws answer about half of
    the steps that need an interval where the sample has them, and the fine
    level's 4096 runs are taken only where the coarse bounds disagree.
    Exact enumeration has no interval: every step takes its exact value.
    """
    if tol is None:
        tol = engine.tol
    if not 0.0 < tol < math.inf:
        raise SpecError(f"tol must be positive and finite, got {tol}")
    with _expectation(dgp, engine, rng) as expectation:
        solution = _bisect(expectation, dgp.link, dgp.target_mean, tol)
    if solution.mc_se > 0.0 and not dgp.link.finite_variance(dgp.terms):
        return replace(solution, warnings=solution.warnings | {"infinite_variance"})
    return solution


def _bisect(expectation: Expectation, link: Link, target: float, tol: float) -> InterceptSolution:
    """solve_numeric's bracketing and bisection over one expectation."""
    center = link.apply(target)
    half, expansions = 1.0, 0
    while True:
        flo = Residual(expectation, center - half, target)
        fhi = Residual(expectation, center + half, target)
        if flo.test(lambda f: f <= 0.0) and fhi.test(lambda f: 0.0 <= f):
            break
        expansions += 1
        if expansions > MAX_EXPANSIONS:
            raise NoRootError(
                f"no sign change within g(target) +/- {half:g} "
                f"after {MAX_EXPANSIONS} bracket expansions"
            )
        half *= 2.0
    # with flo <= 0 <= fhi settled, |f| <= tol is one-sided at each end
    bisections = 0
    if flo.test(lambda f: -tol <= f):
        root = flo
    elif fhi.test(lambda f: f <= tol):
        root = fhi
    else:
        lo, hi = flo.b0, fhi.b0
        for bisections in range(1, MAX_BISECTIONS + 1):
            fm = Residual(expectation, 0.5 * (lo + hi), target)
            negative = fm.test(lambda f: f < 0.0)
            if fm.test((lambda f: -tol <= f) if negative else (lambda f: f <= tol)):
                root = fm
                break
            if negative:
                lo = fm.b0
            else:
                hi = fm.b0
        else:
            raise NoRootError(
                f"bisection did not bring the residual under {tol:g} "
                f"within {MAX_BISECTIONS} iterations"
            )
    residual = abs(root.value())  # before se, which reuses a pass at the same b0
    mc_se = expectation.se(root.b0)
    warnings = {"mc_precision"} if mc_se > tol / 4.0 else set()
    return InterceptSolution(
        beta0=float(root.b0),
        method="numeric",
        residual=float(residual),
        iterations=expansions + bisections,
        mc_se=mc_se,
        warnings=frozenset(warnings),
    )


Solver = Literal["linear_scale", "log_closed_form", "numeric"]
SOLVER_NAMES = get_args(Solver)


def solve(
    dgp: DgpSpec,
    method: str,
    engine: Engine = ExactEnumeration(),
    tol: Optional[float] = None,
    rng: Optional[RngStream] = None,
) -> InterceptSolution:
    """Dispatch to a solver by its serialized name.

    engine, tol and rng reach only solve_numeric; the closed forms take none.
    """
    if method == "linear_scale":
        return solve_linear_scale(dgp)
    if method == "log_closed_form":
        return solve_log_closed_form(dgp)
    check_choice(method, SOLVER_NAMES, "solver")
    return solve_numeric(dgp, engine=engine, tol=tol, rng=rng)
