import math
import pickle
import re
import warnings
from typing import get_args

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import balint.expectation as expectation_mod
import balint.intercept as intercept_mod
from balint.intercept import DEFAULT_TOL_MC
from balint import (
    Bernoulli,
    BernoulliOutcome,
    Categorical,
    Cauchy,
    CODINGS,
    DgpSpec,
    Engine,
    EngineMismatchError,
    Error,
    ExactEnumeration,
    Gamma,
    Identity,
    InfeasibleError,
    LinkDomainError,
    Log,
    Logit,
    MgfDomainError,
    MonteCarlo,
    NoRootError,
    Normal,
    NormalOutcome,
    OutOfRangeError,
    RngStream,
    SpecError,
    Term,
    UndefinedMomentError,
    UniformContinuous,
    WrongLinkError,
    expectation_of_mean,
    generate,
    solve,
    solve_linear_scale,
    solve_log_closed_form,
    solve_numeric,
)

PROBS = (0.5, 0.35, 0.15)
CAT_EXP_MOMENT = 1.0503005783177568  # 0.5 + 0.35*e^0.2 + 0.15*e^-0.2
BERN_EXP_MOMENT_2 = 6.111244879144521  # 0.2 + 0.8*e^2
NORMAL01_MGF_1 = 1.6487212707001282  # e^0.5
# log(0.5) - log(CAT_EXP_MOMENT)
LOG_BETA0 = -0.7422235688278819
# the standard normal covariate contributes log E[e^Z] = 1/2
LOG_BETA0_WITH_Z = -1.2422235688278818

CAT_TERM = Term("x", Categorical(probs=PROBS), (0.2, -0.2))


def cat_dgp(target=0.5, link=Log(), extra=()):
    return DgpSpec((CAT_TERM, *extra), link, NormalOutcome(0.1), target)


def _support(dgp):
    """(etas, probs) that ExactEnumeration().expectation enumerates."""
    with ExactEnumeration().expectation(dgp, None) as enumerated:
        return enumerated.etas, enumerated.probs


class TestConstruction:
    @pytest.mark.parametrize("n_mc", [2.5, "3", 3.0])
    def test_a_non_integral_n_mc_is_refused(self, n_mc):
        # 2.5 used to become n_mc 2, and "3" n_mc 3
        with pytest.raises(SpecError, match=f"n_mc must be an integer, got {n_mc!r}"):
            MonteCarlo(n_mc)

    def test_a_numpy_integer_n_mc_is_taken_as_an_int(self):
        assert type(MonteCarlo(np.int64(5)).n_mc) is int

    def test_continuous_term_rejects_vector(self):
        with pytest.raises(SpecError):
            Term("x", Normal(0.0, 1.0), (0.2, 0.3))

    def test_categorical_term_rejects_scalar(self):
        with pytest.raises(SpecError):
            Term("x", Categorical(probs=PROBS), 0.2)

    def test_categorical_block_length_checked(self):
        with pytest.raises(SpecError):
            Term("x", Categorical(probs=PROBS), (0.2,))
        with pytest.raises(SpecError):
            Term("x", Categorical(probs=PROBS), (0.1, 0.2, 0.3))

    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, -math.inf, 10**400], ids=["nan", "inf", "-inf", "int-past-a-double"]
    )
    def test_non_finite_coefficients_rejected(self, bad):
        with pytest.raises(SpecError, match="term 'z': beta must be finite"):
            Term("z", Normal(0.0, 1.0), bad)
        with pytest.raises(SpecError, match="term 'x': beta must be finite"):
            Term("x", Categorical(probs=PROBS), (0.2, bad))

    @pytest.mark.parametrize("bad", ["1", True, None, np.array(1.0)], ids=["str", "bool", "none", "array"])
    def test_non_numeric_coefficients_rejected(self, bad):
        # "1" used to become 1.0, True 1.0 and None a bare TypeError
        with pytest.raises(SpecError, match=re.escape(f"term 'z': beta must be a number, got {bad!r}")):
            Term("z", Normal(0.0, 1.0), bad)
        with pytest.raises(SpecError, match=re.escape(f"term 'x': beta must be a number, got {bad!r}")):
            Term("x", Categorical(probs=PROBS), (0.2, bad))

    @pytest.mark.parametrize("block", ["12", "1", 0.2, np.array(0.2)])
    def test_a_string_or_scalar_where_a_block_goes_is_refused(self, block):
        # "12" used to become the block (1.0, 2.0)
        with pytest.raises(SpecError, match="term 'x': categorical covariate needs a coefficient vector"):
            Term("x", Categorical(probs=PROBS), block)

    def test_numpy_scalar_coefficients_taken_as_floats(self):
        assert type(Term("z", Normal(0.0, 1.0), np.int64(2)).beta) is float
        term = Term("x", Categorical(probs=PROBS), (np.float64(0.2), np.int64(-1)))
        assert term.beta == (0.2, -1.0) and {type(b) for b in term.beta} == {float}

    @pytest.mark.parametrize("sd", ["1", True, None])
    def test_normal_outcome_sd_a_number(self, sd):
        # "1" used to raise a bare TypeError
        with pytest.raises(SpecError, match=f"normal outcome sd must be a number, got {sd!r}"):
            NormalOutcome(sd)

    @pytest.mark.parametrize("sd", [math.nan, math.inf, 0.0, -1.0])
    def test_normal_outcome_sd_positive_and_finite(self, sd):
        with pytest.raises(SpecError, match="normal outcome sd"):
            NormalOutcome(sd)

    def test_betas_always_a_vector(self):
        assert Term("x", Normal(0.0, 1.0), 0.3).betas.tolist() == [0.3]
        assert CAT_TERM.betas.tolist() == [0.2, -0.2]

    def test_duplicate_names_rejected(self):
        t1 = Term("x", Bernoulli(0.5), 1.0)
        t2 = Term("x", Normal(0.0, 1.0), 1.0)
        with pytest.raises(SpecError):
            DgpSpec((t1, t2), Identity(), NormalOutcome(1.0), 0.0)

    @pytest.mark.parametrize(
        "link,target",
        [(Log(), 0.0), (Log(), -1.0), (Logit(), 0.0), (Logit(), 1.0), (Logit(), 1.3)],
    )
    def test_target_outside_link_domain(self, link, target):
        with pytest.raises(LinkDomainError):
            DgpSpec((), link, NormalOutcome(1.0), target)

    def test_bernoulli_outcome_needs_interior_target(self):
        with pytest.raises(SpecError, match=r"a Bernoulli outcome needs target_mean in \(0, 1\), got 1.2"):
            DgpSpec((), Identity(), BernoulliOutcome(), 1.2)

    def test_outcome_domains(self):
        assert NormalOutcome(1.0).domain == (-math.inf, math.inf)
        assert BernoulliOutcome().domain == (0.0, 1.0)
        # a normal outcome takes any finite target
        assert DgpSpec((), Identity(), NormalOutcome(1.0), -1e300).target_mean == -1e300

    def test_monte_carlo_engine_validation(self):
        with pytest.raises(SpecError):
            MonteCarlo(n_mc=1)

    def test_unknown_clamp_policy(self):
        with pytest.raises(SpecError, match="unknown clamp policy 'wrap'"):
            BernoulliOutcome("wrap")

    def test_empty_term_name(self):
        with pytest.raises(SpecError, match="term name must be a nonempty string"):
            Term("", Normal(0.0, 1.0), 1.0)

    @pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf])
    def test_non_finite_target(self, target):
        with pytest.raises(SpecError, match="target_mean must be finite"):
            DgpSpec((), Identity(), NormalOutcome(1.0), target)

    @pytest.mark.parametrize("target", ["0.5", True, None], ids=["str", "bool", "none"])
    def test_non_numeric_target(self, target):
        # "0.5" used to be taken as 0.5
        with pytest.raises(SpecError, match=f"target_mean must be a number, got {target!r}"):
            DgpSpec((), Identity(), NormalOutcome(1.0), target)

    @pytest.mark.parametrize("target", [np.float64(0.25), np.int64(2)])
    def test_numpy_scalar_target_taken_as_a_float(self, target):
        dgp = DgpSpec((), Identity(), NormalOutcome(1.0), target)
        assert dgp.target_mean == target and type(dgp.target_mean) is float


class TestOutcomeDraw:
    """Each outcome family draws its outcome from mu, into out, and reports what it clamped."""

    MU = np.array([-0.25, 0.0, 0.3, 1.0, 1.75])

    def test_normal_is_generator_normal(self):
        out = np.empty(5)
        y, clamped = NormalOutcome(0.4).draw(self.MU, np.zeros(5), RngStream(2), out)
        assert y is out and clamped == 0
        assert y.tobytes() == RngStream(2).generator().normal(self.MU, 0.4).tobytes()

    def test_clamp_to_unit_clips_into_eta(self):
        eta, out = np.full(5, 9.0), np.empty(5)
        y, clamped = BernoulliOutcome().draw(self.MU, eta, RngStream(2), out)
        assert y is out and clamped == 2
        assert eta.tolist() == [0.0, 0.0, 0.3, 1.0, 1.0]
        u = RngStream(2).generator().random(5)
        assert y.tolist() == (u < eta).astype(float).tolist()

    def test_normal_refuses_a_mean_that_is_not_finite(self):
        mu, eta = np.array([0.5, math.inf, 2.0, math.nan]), np.array([-0.7, 710.0, 0.7, math.nan])
        with pytest.raises(OutOfRangeError, match=r"row 1: mean inf is not finite \(eta = 710\)"):
            NormalOutcome(0.4).draw(mu, eta, RngStream(2), np.empty(4))
        with pytest.raises(OutOfRangeError, match=r"row 1: mean nan is not finite \(eta = nan\)"):
            NormalOutcome(0.4).draw(mu[2:].reshape(1, 2), eta[2:].reshape(1, 2), RngStream(2).rows([0]), np.empty((1, 2)))

    def test_normal_draws_finite_means_whose_sum_overflows(self):
        mu, out = np.full(3, 1e308), np.empty(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y, _ = NormalOutcome(1.0).draw(mu, mu, RngStream(2), out)
        assert y.tobytes() == RngStream(2).generator().normal(mu, 1.0).tobytes()

    def test_reject_names_the_first_row_and_its_eta(self):
        eta = np.arange(5.0)
        with pytest.raises(OutOfRangeError, match=r"row 0: mean -0\.25 outside \[0, 1\] \(eta = 0\)"):
            BernoulliOutcome("reject_out_of_range").draw(self.MU, eta, RngStream(2), np.empty(5))
        assert eta.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]


class TestTermMoments:
    def test_continuous_moments_come_from_the_spec(self):
        term = Term("z", Normal(0.3, 1.0), 2.0)
        assert term.mean() == 2.0 * 0.3
        assert term.exp_moment() == Normal(0.3, 1.0).mgf(2.0)

    def test_scaled_exp_moment(self):
        # scale 2 gives E[exp(2 beta' X)], which the log link's variance needs
        assert Term("z", Normal(0.3, 1.0), 2.0).exp_moment(2.0) == Normal(0.3, 1.0).mgf(4.0)
        assert CAT_TERM.exp_moment(2.0) == 0.5 + 0.35 * math.exp(0.4) + 0.15 * math.exp(-0.4)
        assert Term("c", Categorical(probs=(0.5, 0.5)), (400.0,)).exp_moment(2.0) == math.inf
        with pytest.raises(MgfDomainError, match="term 'g'"):
            Term("g", Gamma(1.0, 1.5), 1.0).exp_moment(2.0)

    def test_overflow_is_inf_and_underflow_zero(self):
        assert Term("z", Normal(0.0, 1.0), 40.0).exp_moment() == math.inf
        assert Term("c", Categorical(probs=(0.5, 0.5)), (800.0,)).exp_moment() == math.inf
        assert Term("c", Categorical(probs=(0.0, 1.0)), (-800.0,)).exp_moment() == 0.0

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.one_of(st.sampled_from([0.0, 1.0, 5e-324, 1e-300]), st.floats(0.0, 1.0)),
        st.one_of(st.floats(-3.0, 3.0), st.floats(-800.0, 800.0)),
        st.sampled_from([1.0, 2.0]),
    )
    def test_bernoulli_sums_over_points_are_the_two_point_formulas_to_the_bit(self, p, beta, scale):
        # the formula a Bernoulli spec once had for its own MGF, kept as the reference
        try:
            reference = 1.0 if p == 0.0 else 1.0 - p + p * math.exp(scale * beta)
        except OverflowError:
            reference = math.inf
        term = Term("b", Bernoulli(p), beta)
        assert term.exp_moment(scale).hex() == reference.hex()
        assert term.mean() == beta * p

    def test_missing_moments_name_the_term(self):
        with pytest.raises(UndefinedMomentError, match="term 'c'"):
            Term("c", Cauchy(0.0, 1.0), 1.0).mean()
        with pytest.raises(MgfDomainError, match="term 'c': the Cauchy distribution has no MGF"):
            Term("c", Cauchy(0.0, 1.0), 1.0).exp_moment()
        with pytest.raises(MgfDomainError, match="term 'g'"):
            Term("g", Gamma(1.0, 1.5), 2.0).exp_moment()


@st.composite
def _finite_support_dgps(draw):
    """1-3 Bernoulli or categorical terms, zero-probability points included, under log or identity."""
    link = draw(st.sampled_from([Identity(), Log()]))
    terms = []
    for i in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            spec = Bernoulli(draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))))
            beta = draw(st.floats(-3.0, 3.0))
        else:
            p = draw(st.integers(2, 4))
            raw = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.05, 1.0)), min_size=p, max_size=p))
            raw[0] = raw[0] or 1.0  # mass on the reference level, which weighted effect coding needs
            total = sum(raw)
            spec = Categorical(tuple(v / total for v in raw), draw(st.sampled_from(CODINGS)))
            beta = tuple(draw(st.floats(-3.0, 3.0)) for _ in range(p - 1))
        terms.append(Term(f"x{i}", spec, beta))
    target = draw(st.floats(-2.0, 2.0) if link == Identity() else st.floats(0.05, 5.0))
    return DgpSpec(tuple(terms), link, NormalOutcome(1.0), target)


class TestLinearScale:
    def test_identity_exact(self):
        dgp = DgpSpec(
            (Term("d", Bernoulli(0.8), 0.3),), Identity(), NormalOutcome(1.0), 0.7
        )
        sol = solve_linear_scale(dgp)
        assert sol.beta0 == pytest.approx(0.46, abs=1e-15)
        assert sol.method == "linear_scale"
        assert sol.residual <= 1e-15
        assert sol.iterations == 0
        assert sol.mc_se == 0.0
        assert sol.warnings == frozenset()

    def test_identity_no_covariates(self):
        sol = solve_linear_scale(DgpSpec((), Identity(), NormalOutcome(1.0), -0.3))
        assert sol.beta0 == -0.3

    def test_identity_categorical_uses_coded_mean(self):
        dgp = DgpSpec((CAT_TERM,), Identity(), NormalOutcome(1.0), 0.5)
        sol = solve_linear_scale(dgp)
        # E(beta' X) = 0.35*0.2 - 0.15*0.2 = 0.04 under reference-cell coding
        assert sol.beta0 == pytest.approx(0.46, abs=1e-15)

    def test_log_link_is_naive_with_true_residual(self):
        sol = solve_linear_scale(cat_dgp())
        assert sol.beta0 == pytest.approx(math.log(0.5) - 0.04, abs=1e-14)
        assert sol.warnings == frozenset({"naive_linear_scale"})
        expected = abs(math.exp(sol.beta0) * CAT_EXP_MOMENT - 0.5)
        assert sol.residual == pytest.approx(expected, rel=1e-12)
        assert sol.residual > 1e-3  # the gap the exact solvers remove

    def test_logit_link_residual_by_enumeration(self):
        dgp = DgpSpec(
            (Term("d", Bernoulli(0.5), 1.0),), Logit(), NormalOutcome(1.0), 0.6
        )
        sol = solve_linear_scale(dgp)
        b0 = Logit().apply(0.6) - 0.5
        truth = 0.5 * Logit().invert(b0) + 0.5 * Logit().invert(b0 + 1.0)
        assert sol.beta0 == pytest.approx(b0, abs=1e-14)
        assert sol.residual == pytest.approx(abs(truth - 0.6), rel=1e-12)
        assert "naive_linear_scale" in sol.warnings

    def test_logit_continuous_residual_unverifiable(self):
        dgp = DgpSpec(
            (Term("z", Normal(0.0, 1.0), 1.0),), Logit(), NormalOutcome(1.0), 0.5
        )
        sol = solve_linear_scale(dgp)
        assert math.isnan(sol.residual)
        assert sol.warnings == frozenset({"naive_linear_scale", "residual_unverified"})

    def test_log_divergent_moment_residual_inf(self):
        dgp = DgpSpec(
            (Term("g", Gamma(1.0, 1.5), 2.0),), Log(), NormalOutcome(0.1), 0.5
        )
        sol = solve_linear_scale(dgp)
        assert sol.residual == math.inf
        assert "naive_linear_scale" in sol.warnings

    def test_log_overflowing_moment_residual_enumerated(self):
        # E[exp(800 X)] overflows a double, but beta0 = log(0.5) - 400 brings
        # the mean, 0.25 * (e^-400 + e^400), back within range
        dgp = DgpSpec(
            (Term("k", Categorical(probs=(0.5, 0.5)), (800.0,)),), Log(), NormalOutcome(0.1), 0.5
        )
        sol = solve_linear_scale(dgp)
        value, _ = expectation_of_mean(sol.beta0, dgp)
        assert math.isfinite(sol.residual)
        assert sol.residual == abs(value - 0.5)
        assert sol.warnings == frozenset({"naive_linear_scale"})

    def test_log_overflowing_continuous_moment_residual_unverified(self):
        # E[exp(80 Z)] = e^832 overflows, yet beta0 = log(0.5) - 800 makes the
        # mean 0.5 * e^32, finite; no finite support can be enumerated
        dgp = DgpSpec((Term("k", Normal(10.0, 0.1), 80.0),), Log(), NormalOutcome(0.1), 0.5)
        sol = solve_linear_scale(dgp)
        assert math.isnan(sol.residual)
        assert sol.warnings == frozenset({"naive_linear_scale", "residual_unverified"})

    def test_log_residual_survives_exp_beta0_overflow(self):
        # beta0 = log(1e6) + 700 > 709.78, so exp(beta0) alone overflows a
        # double; the naive mean is 1e6 * e^0.5, finite
        dgp = DgpSpec((Term("z", Normal(-700.0, 1.0), 1.0),), Log(), NormalOutcome(0.1), 1e6)
        sol = solve_linear_scale(dgp)
        assert sol.beta0 > 709.8
        assert sol.residual == pytest.approx(1e6 * (math.exp(0.5) - 1.0), rel=1e-9)
        assert sol.warnings == frozenset({"naive_linear_scale"})

    def test_log_residual_overflow_is_inf(self):
        # beta0 = log(1e304) + 20 and the naive mean 1e304 * e^12.5 overflows
        dgp = DgpSpec((Term("z", Normal(-20.0, 5.0), 1.0),), Log(), NormalOutcome(0.1), 1e304)
        sol = solve_linear_scale(dgp)
        assert sol.beta0 > 709.8
        assert sol.residual == math.inf
        assert sol.warnings == frozenset({"naive_linear_scale"})

    def test_log_underflowing_moment_residual_unverified(self):
        # E[exp(Z)] = e^-799.5 underflows to 0, so the product cannot be checked
        dgp = DgpSpec((Term("z", Normal(-800.0, 1.0), 1.0),), Log(), NormalOutcome(0.1), 0.5)
        sol = solve_linear_scale(dgp)
        assert sol.beta0 == pytest.approx(math.log(0.5) + 800.0, abs=1e-12)
        assert math.isnan(sol.residual)
        assert sol.warnings == frozenset({"naive_linear_scale", "residual_unverified"})

    def test_cauchy_mean_undefined(self):
        dgp = DgpSpec(
            (Term("c", Cauchy(0.0, 1.0), 0.5),), Identity(), NormalOutcome(1.0), 0.0
        )
        with pytest.raises(UndefinedMomentError, match="term 'c'"):
            solve_linear_scale(dgp)

    def test_identity_continuous_residual_unverified(self):
        # the summed means made beta0, so they cannot check it, and a
        # continuous term cannot be enumerated
        terms = (
            Term("z", Normal(0.3, 1.7), 2.5),
            Term("u", UniformContinuous(-1.0, 3.0), -0.7),
            Term("g", Gamma(2.0, 1.5), 0.4),
        )
        sol = solve_linear_scale(DgpSpec(terms, Identity(), NormalOutcome(1.0), 0.37))
        assert sol.beta0 == 0.37 - (2.5 * 0.3 - 0.7 * 1.0 + 0.4 * (2.0 / 1.5))
        assert math.isnan(sol.residual)
        assert sol.warnings == frozenset({"residual_unverified"})

    def test_identity_finite_residual_is_enumerated(self):
        dgp = DgpSpec(
            (Term("d", Bernoulli(0.8), 0.3), CAT_TERM), Identity(), NormalOutcome(1.0), 0.7
        )
        sol = solve_linear_scale(dgp)
        value, se = expectation_of_mean(sol.beta0, dgp)
        assert se == 0.0
        assert sol.residual == abs(value - 0.7)
        assert sol.warnings == frozenset()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_finite_support_dgps())
    def test_moment_residual_equals_enumeration(self, dgp):
        # the residual from the summed link moments against an independent
        # route, exact enumeration of the joint support
        sol = solve_linear_scale(dgp)
        value, _ = expectation_of_mean(sol.beta0, dgp)
        assert sol.residual == pytest.approx(abs(value - dgp.target_mean), rel=1e-12, abs=1e-12)


class TestExpectationOfMeanByMoments:
    """expectation_of_mean(..., moments=True): the summed link moments with se 0, else the engine."""

    def test_log_and_identity_give_the_exact_mean(self):
        value, se = expectation_of_mean(LOG_BETA0, cat_dgp(), moments=True)
        assert (value, se) == (pytest.approx(0.5, rel=1e-15), 0.0)
        # enumeration refuses a continuous term, so only the moments give this
        z = Term("z", Normal(0.3, 1.0), 2.0)
        dgp = DgpSpec((z,), Identity(), NormalOutcome(0.1), 0.5)
        assert expectation_of_mean(-0.1, dgp, moments=True) == (-0.1 + 0.6, 0.0)

    @pytest.mark.parametrize(
        "link, terms",
        [
            (Log(), (Term("k", Categorical(probs=(0.5, 0.5)), (800.0,)),)),
            (Log(), (Term("k", Categorical(probs=(0.0, 1.0)), (-800.0,)),)),
            (Identity(), (Term("z", Normal(1e300, 1.0), 1e10),)),
            (Identity(), (Term("z", Normal(1e300, 1.0), -1e10),)),
            (Identity(), (Term("y", Normal(1e308, 1.0), 1.0), Term("z", Normal(1e308, 1.0), 1.0))),
        ],
        ids=["log-overflow", "log-underflow", "identity-overflow", "identity-underflow", "identity-sum"],
    )
    def test_moments_past_a_double_fall_through_to_the_engine(self, link, terms):
        # finite terms get the engine's own value, continuous ones its refusal
        dgp = DgpSpec(terms, link, NormalOutcome(0.1), 0.5)
        if link == Log():
            assert expectation_of_mean(0.0, dgp, moments=True) == expectation_of_mean(0.0, dgp)
        else:
            with pytest.raises(EngineMismatchError, match="continuous"):
                expectation_of_mean(0.0, dgp, moments=True)

    def test_logit_falls_through_to_the_engine(self):
        dgp = cat_dgp(link=Logit())
        assert expectation_of_mean(0.0, dgp, moments=True) == expectation_of_mean(0.0, dgp)
        # with no terms the list holds no moment, and the link's exact_mean has none either
        dgp = DgpSpec((), Logit(), NormalOutcome(0.1), 0.5)
        assert expectation_of_mean(0.0, dgp, moments=True) == (0.5, 0.0)


class TestLogClosedForm:
    def test_categorical_oracle(self):
        sol = solve_log_closed_form(cat_dgp())
        assert sol.beta0 == pytest.approx(LOG_BETA0, abs=1e-14)
        assert sol.method == "log_closed_form"
        assert sol.residual <= 1e-14
        assert sol.mc_se == 0.0
        assert sol.warnings == frozenset()

    def test_added_normal_covariate_shifts_by_half(self):
        dgp = cat_dgp(extra=(Term("z", Normal(0.0, 1.0), 1.0),))
        sol = solve_log_closed_form(dgp)
        assert sol.beta0 == pytest.approx(LOG_BETA0_WITH_Z, abs=1e-14)

    @pytest.mark.parametrize(
        "term",
        [
            Term("k", Categorical(probs=(0.5, 0.5)), (800.0,)),
            Term("k", Normal(0.0, 1.0), 40.0),
            Term("k", Bernoulli(0.5), 710.0),
            Term("k", UniformContinuous(0.0, 1.0), 800.0),
        ],
        ids=["categorical", "normal", "bernoulli", "uniform"],
    )
    def test_overflowing_moment_is_infeasible_and_named(self, term):
        dgp = DgpSpec((term,), Log(), NormalOutcome(0.1), 0.5)
        with pytest.raises(InfeasibleError, match="term 'k'.*overflows") as exc:
            solve_log_closed_form(dgp)
        # not a divergent MGF: a grid records this cell as an error, not as skipped
        assert not isinstance(exc.value, MgfDomainError)

    @pytest.mark.parametrize(
        "term",
        [
            Term("k", Categorical(probs=(0.0, 1.0)), (-800.0,)),
            Term("k", Normal(-800.0, 1.0), 1.0),
            Term("k", Bernoulli(1.0), -800.0),
            Term("k", UniformContinuous(-1000.0, -900.0), 1.0),
            Term("k", Gamma(2.0, 1.0), -1e200),
        ],
        ids=["categorical", "normal", "bernoulli", "uniform", "gamma"],
    )
    @pytest.mark.parametrize("engine", [ExactEnumeration(), MonteCarlo(1000)], ids=["exact", "mc"])
    def test_underflowing_moment_is_infeasible_and_named(self, term, engine):
        dgp = DgpSpec((term,), Log(), NormalOutcome(0.1), 0.5)
        with pytest.raises(InfeasibleError, match="term 'k'.*underflows") as exc:
            solve(dgp, "log_closed_form", engine=engine, rng=RngStream(1))
        assert not isinstance(exc.value, MgfDomainError)

    def test_no_covariates_gives_log_target(self):
        sol = solve_log_closed_form(DgpSpec((), Log(), NormalOutcome(0.1), 0.5))
        assert sol.beta0 == math.log(0.5)
        assert sol.residual <= 1e-15

    def test_independent_terms_factor(self):
        dgp = cat_dgp(
            extra=(
                Term("d", Bernoulli(0.8), 2.0),
                Term("z", Normal(0.0, 1.0), 1.0),
            )
        )
        sol = solve_log_closed_form(dgp)
        expected = (
            math.log(0.5)
            - math.log(CAT_EXP_MOMENT)
            - math.log(BERN_EXP_MOMENT_2)
            - math.log(NORMAL01_MGF_1)
        )
        assert sol.beta0 == pytest.approx(expected, abs=1e-13)
        assert sol.residual <= 1e-13

    @pytest.mark.parametrize("link", [Identity(), Logit()])
    def test_wrong_link_refused(self, link):
        target = 0.5
        dgp = DgpSpec((CAT_TERM,), link, NormalOutcome(1.0), target)
        with pytest.raises(WrongLinkError):
            solve_log_closed_form(dgp)

    def test_divergent_gamma_moment_names_term(self):
        dgp = DgpSpec(
            (Term("g", Gamma(1.0, 1.5), 2.0),), Log(), NormalOutcome(0.1), 0.5
        )
        with pytest.raises(MgfDomainError, match="term 'g'"):
            solve_log_closed_form(dgp)

    def test_cauchy_fallback_reports_what_it_is(self):
        # E[exp(beta X)] is infinite for a Cauchy X and any beta != 0, so no
        # balancing intercept exists; a sample would only estimate a moment
        # that is not there, and every engine refuses the term by name
        dgp = DgpSpec(
            (Term("c", Cauchy(0.0, 1.0), 0.5),), Log(), NormalOutcome(0.1), 0.5
        )
        with pytest.raises(MgfDomainError, match="term 'c'"):
            solve_log_closed_form(dgp)
        for engine in (ExactEnumeration(), MonteCarlo(100_000)):
            with pytest.raises(MgfDomainError, match="term 'c'"):
                solve(dgp, "log_closed_form", engine=engine, rng=RngStream(5))

    def test_mc_engine_not_used_when_closed_forms_exist(self):
        sol = solve(cat_dgp(), "log_closed_form", engine=MonteCarlo(100), rng=RngStream(0))
        assert sol.beta0 == pytest.approx(LOG_BETA0, abs=1e-14)
        assert sol.mc_se == 0.0
        assert sol.warnings == frozenset()

@pytest.mark.parametrize(
    "term",
    [Term("c", Categorical((1.0, 0.0)), (800.0,)), Term("b", Bernoulli(0.0), 800.0)],
    ids=["categorical", "bernoulli"],
)
class TestZeroProbabilityPoints:
    """A point of probability 0 adds nothing to E[exp(beta' X)] = 1, though exp(800) overflows."""

    def dgp(self, term):
        return DgpSpec((term,), Log(), NormalOutcome(0.1), 0.5)

    def test_exp_moment(self, term):
        assert term.exp_moment() == 1.0

    def test_support_leaves_the_point_out(self, term):
        etas, probs = _support(self.dgp(term))
        assert etas.tolist() == [0.0]
        assert probs.tolist() == [1.0]

    def test_points_leave_the_point_out_and_are_read_only(self, term):
        # (share of eta, probability) float pairs, in a tuple, which cannot be written to
        assert term.points == ((0.0, 1.0),)
        assert type(term.points) is tuple

    def test_log_closed_form(self, term):
        sol = solve_log_closed_form(self.dgp(term))
        assert sol.beta0 == math.log(0.5)
        assert sol.residual == 0.0

    def test_linear_scale_residual(self, term):
        sol = solve_linear_scale(self.dgp(term))
        assert sol.beta0 == math.log(0.5)
        assert sol.residual == 0.0
        assert sol.warnings == frozenset({"naive_linear_scale"})

    @pytest.mark.parametrize("engine", [ExactEnumeration(), MonteCarlo(1000)], ids=["exact", "mc"])
    def test_numeric(self, term, engine):
        # a RuntimeWarning (0 * inf) would fail the suite
        sol = solve_numeric(self.dgp(term), engine=engine, tol=1e-12, rng=RngStream(3))
        assert sol.beta0 == pytest.approx(math.log(0.5), abs=1e-11)


class TestZeroProbabilityLevelWhoseShareOverflows:
    """Level 0 has probability 0, and its effect-coded share, -2e308, overflows to -inf.

    A RuntimeWarning (the overflow, or 0 * inf) would fail the suite.
    """

    def term(self):
        return Term("c", Categorical((0.0, 0.5, 0.5), "effect"), (1e308, 1e308))

    def test_mean_and_exp_moment_leave_the_level_out(self):
        term = self.term()
        assert term.mean() == 1e308
        assert term.exp_moment() == math.inf

    def test_linear_scale_beta0_is_finite(self):
        sol = solve_linear_scale(DgpSpec((self.term(),), Identity(), NormalOutcome(1.0), 0.3))
        assert sol.beta0 == 0.3 - 1e308


class TestExpectationOfMean:
    def test_no_covariates_identity(self):
        dgp = DgpSpec((), Identity(), NormalOutcome(1.0), 0.3)
        assert expectation_of_mean(0.3, dgp) == (0.3, 0.0)

    def test_fair_coin_logit_symmetry(self):
        dgp = DgpSpec(
            (Term("d", Bernoulli(0.5), 2.0),), Logit(), NormalOutcome(1.0), 0.5
        )
        value, se = expectation_of_mean(-1.0, dgp)
        assert value == pytest.approx(0.5, abs=1e-15)
        assert se == 0.0

    def test_log_exact_matches_moment_product(self):
        value, se = expectation_of_mean(LOG_BETA0, cat_dgp())
        assert value == pytest.approx(0.5, abs=1e-14)
        assert se == 0.0

    def test_monte_carlo_agrees_with_exact(self):
        value, se = expectation_of_mean(
            LOG_BETA0, cat_dgp(), MonteCarlo(200_000), RngStream(21)
        )
        assert se > 0.0
        assert abs(value - 0.5) <= 4 * se

    def test_monte_carlo_needs_rng(self):
        with pytest.raises(SpecError):
            expectation_of_mean(0.0, cat_dgp(), MonteCarlo(1000))

    def test_monte_carlo_se_that_overflows_is_inf_without_a_warning(self):
        # exp(158 z) at these draws (as `balint verify` takes them at seed 373)
        # has a finite mean whose squared deviations overflow a double
        dgp = DgpSpec((Term("z", Normal(0.0, 1.0), 158.0),), Log(), NormalOutcome(1.0), 0.5)
        value, se = expectation_of_mean(0.0, dgp, MonteCarlo(2000), RngStream(373).child(1))
        assert math.isfinite(value)
        assert se == math.inf

    def test_monte_carlo_se_of_an_infinite_mean_is_nan_without_a_warning(self):
        draws = expectation_mod.FrozenDraws(Log(), np.array([0.0, 800.0, 1.0]))
        assert draws.mean(0.0) == math.inf
        assert math.isnan(draws.se(0.0))

    def test_continuous_cannot_be_enumerated(self):
        dgp = DgpSpec(
            (Term("z", Normal(0.0, 1.0), 1.0),), Identity(), NormalOutcome(1.0), 0.0
        )
        with pytest.raises(EngineMismatchError, match="continuous"):
            expectation_of_mean(0.0, dgp)

    def test_support_size_cap(self):
        p = 101
        probs = tuple(1.0 / p for _ in range(p))
        terms = tuple(
            Term(f"c{i}", Categorical(probs=probs), (0.0,) * (p - 1)) for i in range(3)
        )
        dgp = DgpSpec(terms, Identity(), NormalOutcome(1.0), 0.0)
        with pytest.raises(EngineMismatchError, match="support"):
            expectation_of_mean(0.0, dgp)


_SUPPFIG1_Z = (
    Bernoulli(0.8),
    UniformContinuous(-1.0, 3.0),
    Normal(0.0, 1.0),
    Gamma(1.0, 1.5),
)


class TestSolveNumeric:
    def test_fair_coin_logit_midpoint_is_exact(self):
        dgp = DgpSpec(
            (Term("d", Bernoulli(0.5), 1.0),), Logit(), NormalOutcome(1.0), 0.5
        )
        sol = solve_numeric(dgp)
        assert sol.beta0 == -0.5
        assert sol.residual == 0.0
        assert sol.method == "numeric"

    @pytest.mark.parametrize("target", [0.1, 0.3, 0.5])
    def test_root_at_the_upper_bracket_end(self, target):
        # eta is -1 on every draw, so the root is exactly g(target) + 1: the
        # first bracket's upper end, taken before any bisection
        dgp = DgpSpec((Term("d", Bernoulli(1.0), -1.0),), Logit(), BernoulliOutcome(), target)
        sol = solve_numeric(dgp, engine=ExactEnumeration())
        assert sol.beta0 == Logit().apply(target) + 1.0
        assert sol.iterations == 0
        assert sol.residual <= 1e-10

    def test_identity_agrees_with_linear_scale(self):
        dgp = DgpSpec(
            (Term("d", Bernoulli(0.8), 0.3),), Identity(), NormalOutcome(1.0), 0.7
        )
        assert abs(solve_numeric(dgp).beta0 - 0.46) <= 1e-10

    def test_log_agrees_with_closed_form(self):
        sol = solve_numeric(cat_dgp())
        assert abs(sol.beta0 - LOG_BETA0) <= 1e-9
        assert sol.residual <= 1e-10

    def test_no_covariates_returns_link_of_target(self):
        for link, target in [(Identity(), -0.3), (Log(), 0.5), (Logit(), 0.42)]:
            sol = solve_numeric(DgpSpec((), link, NormalOutcome(1.0), target))
            assert sol.beta0 == pytest.approx(link.apply(target), abs=1e-9)
            assert sol.residual <= 1e-10

    def test_bracket_expansion_reaches_distant_root(self):
        # eta is constantly 10, so the root sits 10 below the bracket center
        dgp = DgpSpec(
            (Term("d", Bernoulli(1.0), 10.0),), Identity(), NormalOutcome(1.0), 5.0
        )
        sol = solve_numeric(dgp)
        assert abs(sol.beta0 - (-5.0)) <= 1e-10
        assert sol.iterations >= 4  # half-width must grow 1 -> 16

    def test_endpoint_root_accepted_without_bisection(self):
        # root = target - 1 is exactly the lower bracket endpoint
        dgp = DgpSpec(
            (Term("d", Bernoulli(1.0), 1.0),), Identity(), NormalOutcome(1.0), 0.25
        )
        sol = solve_numeric(dgp)
        assert sol.beta0 == -0.75
        assert sol.iterations == 0

    def test_exhausted_expansions_raise(self, monkeypatch):
        monkeypatch.setattr(intercept_mod, "MAX_EXPANSIONS", 0)
        dgp = DgpSpec(
            (Term("d", Bernoulli(1.0), 10.0),), Identity(), NormalOutcome(1.0), 5.0
        )
        with pytest.raises(NoRootError, match=r"\+/- 1 "):
            solve_numeric(dgp)

    def test_tol_validation(self):
        for tol in (0.0, -1e-3, math.nan, math.inf):
            with pytest.raises(SpecError):
                solve_numeric(cat_dgp(), tol=tol)

    def test_monte_carlo_needs_rng(self):
        with pytest.raises(SpecError):
            solve_numeric(cat_dgp(), engine=MonteCarlo(1000))

    def test_monte_carlo_close_to_exact_and_reproducible(self):
        engine = MonteCarlo(200_000)
        a = solve_numeric(cat_dgp(), engine=engine, rng=RngStream(31))
        b = solve_numeric(cat_dgp(), engine=engine, rng=RngStream(31))
        assert a.beta0 == b.beta0  # frozen draws: same stream, same root
        assert abs(a.beta0 - LOG_BETA0) < 0.01
        assert a.mc_se > 0.0

    def test_mc_precision_warning_when_se_dwarfs_tol(self):
        sol = solve_numeric(
            cat_dgp(), engine=MonteCarlo(1000), tol=1e-6, rng=RngStream(32)
        )
        assert "mc_precision" in sol.warnings

    def test_mc_precision_silent_when_tol_is_loose(self):
        sol = solve_numeric(
            cat_dgp(), engine=MonteCarlo(100_000), tol=0.05, rng=RngStream(33)
        )
        assert "mc_precision" not in sol.warnings

    @pytest.mark.parametrize("beta, warns", [(1.0, True), (0.5, False)])
    def test_infinite_variance_warning_under_log(self, beta, warns):
        # E[exp(2 beta Z)] of a Gamma(1, 1.5) Z is infinite at 2 beta >= 1.5
        dgp = DgpSpec((Term("z", Gamma(1.0, 1.5), beta),), Log(), NormalOutcome(1.0), 0.5)
        sol = solve_numeric(dgp, engine=MonteCarlo(2000), rng=RngStream(34))
        assert sol.mc_se > 0.0
        assert ("infinite_variance" in sol.warnings) == warns

    def test_a_pass_whose_sum_overflows_warns_by_name_not_by_numpy(self):
        # a lognormal share whose sample sum passes a double at the bracket's
        # upper end: the pass's inf is the interval's and se's to handle, and
        # under filterwarnings = error numpy's own overflow warning would raise
        dgp = DgpSpec((Term("z", Normal(2.638, 0.1134), 248.66),), Log(), NormalOutcome(0.1), 2.86)
        sol = solve_numeric(dgp, engine=MonteCarlo(20000), rng=RngStream(1))
        assert math.isfinite(sol.beta0) and sol.residual <= DEFAULT_TOL_MC
        assert sol.warnings == {"infinite_variance", "mc_precision"}

    @pytest.mark.parametrize("z", [*_SUPPFIG1_Z, Cauchy(0.0, 1.0)], ids=lambda z: type(z).__name__)
    def test_infinite_variance_never_under_logit(self, z):
        # g^-1 is bounded, so a logit sample's variance is finite whatever its terms
        dgp = DgpSpec((CAT_TERM, Term("z", z, 3.0)), Logit(), BernoulliOutcome(), 0.2)
        sol = solve_numeric(dgp, engine=MonteCarlo(2000), rng=RngStream(35))
        assert sol.mc_se > 0.0
        assert "infinite_variance" not in sol.warnings


# InterceptSolution fields of the Monte Carlo numeric path, pinned as hex so
# a speed-up of the evaluation loop must reproduce them bit for bit.
_MC_PIN_DGPS = {
    "logit_bernoulli_z": (Logit(), Term("z", Bernoulli(0.8), 2.0), 0.3),
    "logit_normal_z": (Logit(), Term("z", Normal(0.0, 1.0), 1.5), 0.6),
    "logit_gamma_z": (Logit(), Term("z", Gamma(1.0, 1.5), 1.0), 0.2),
    "log_normal_z": (Log(), Term("z", Normal(0.0, 1.0), 1.0), 0.5),
}
_MC_PINS = {
    "logit_bernoulli_z": ("-0x1.5054419c2aba6p+1", 13, "0x1.89c3ca4cc0821p-12"),
    "logit_normal_z": ("0x1.10991f65fcc24p-1", 10, "0x1.b5c8883269fd7p-11"),
    "logit_gamma_z": ("-0x1.1ab217f7d1cf8p+1", 10, "0x1.a0e1aae2d01e6p-12"),
    "log_normal_z": ("-0x1.3ca217f7d1cf8p+0", 13, "0x1.0e71fbe8bb161p-9"),
}


def _pin_dgp(name):
    link, z, target = _MC_PIN_DGPS[name]
    outcome = BernoulliOutcome() if isinstance(link, Logit) else NormalOutcome(0.1)
    return DgpSpec((CAT_TERM, z), link, outcome, target)


class TestMonteCarloPins:
    @pytest.mark.parametrize("name", sorted(_MC_PINS))
    def test_solve_numeric_bits(self, name):
        sol = solve_numeric(_pin_dgp(name), engine=MonteCarlo(100_000), rng=RngStream(20230620))
        beta0, iterations, mc_se = _MC_PINS[name]
        assert sol.beta0.hex() == beta0
        assert sol.iterations == iterations
        assert sol.mc_se.hex() == mc_se
        assert sol.warnings == frozenset({"mc_precision"})

    @pytest.mark.parametrize("tol", [1e-4, 0.5], ids=["bisected", "bracket_end"])
    def test_mc_se_is_taken_at_beta0(self, tol):
        # at tol 0.5 the root is the bracket's lower end, evaluated before hi
        dgp = _pin_dgp("logit_normal_z")
        sol = solve_numeric(dgp, engine=MonteCarlo(10_000), tol=tol, rng=RngStream(3))
        assert (sol.iterations == 0) == (tol == 0.5)
        _, se = expectation_of_mean(sol.beta0, dgp, MonteCarlo(10_000), RngStream(3))
        assert sol.mc_se == se

    def test_expectation_of_mean_bits(self):
        value, se = expectation_of_mean(
            -0.5, _pin_dgp("logit_normal_z"), MonteCarlo(100_000), RngStream(7)
        )
        assert value.hex() == "0x1.acf3ea26df315p-2"
        assert se.hex() == "0x1.ba7bf4280776bp-11"


@st.composite
def _discrete_dgps(draw):
    link = draw(st.sampled_from([Identity(), Log(), Logit()]))
    terms = []
    for i in range(draw(st.integers(1, 2))):
        if draw(st.booleans()):
            spec = Bernoulli(draw(st.floats(0.05, 0.95)))
            beta = draw(st.floats(-2.0, 2.0))
        else:
            p = draw(st.integers(2, 4))
            raw = draw(st.lists(st.floats(0.05, 1.0), min_size=p, max_size=p))
            total = sum(raw)
            spec = Categorical(
                probs=tuple(v / total for v in raw),
                coding=draw(st.sampled_from(["reference_cell", "effect"])),
            )
            beta = tuple(draw(st.floats(-2.0, 2.0)) for _ in range(p - 1))
        terms.append(Term(f"x{i}", spec, beta))
    target = draw(
        {
            "identity": st.floats(-1.0, 1.0),
            "log": st.floats(0.2, 2.0),
            "logit": st.floats(0.1, 0.9),
        }[link.name]
    )
    return DgpSpec(tuple(terms), link, NormalOutcome(1.0), target)


class TestNumericProperties:
    @settings(max_examples=60, deadline=None)
    @given(_discrete_dgps())
    def test_expectation_monotone_in_intercept(self, dgp):
        grid = np.linspace(-8.0, 8.0, 33)
        values = [expectation_of_mean(b0, dgp)[0] for b0 in grid]
        assert all(a < b for a, b in zip(values, values[1:]))

    @settings(max_examples=60, deadline=None)
    @given(_discrete_dgps())
    def test_solution_satisfies_residual_contract(self, dgp):
        sol = solve_numeric(dgp, tol=1e-10)
        value, _ = expectation_of_mean(sol.beta0, dgp)
        assert abs(value - dgp.target_mean) <= 1e-10


@st.composite
def _six_family_dgps(draw):
    """A log- or identity-link DGP of 1-3 terms over the six families, and a solver stream."""
    link = draw(st.sampled_from([Identity(), Log()]))
    terms = []
    for i in range(draw(st.integers(1, 3))):
        family = draw(st.sampled_from(["bernoulli", "categorical", "uniform", "normal", "gamma", "cauchy"]))
        beta = draw(st.floats(-1.5, 1.5))
        if family == "bernoulli":
            spec = Bernoulli(draw(st.floats(0.05, 0.95)))
        elif family == "categorical":
            p = draw(st.integers(2, 4))
            raw = draw(st.lists(st.floats(0.05, 1.0), min_size=p, max_size=p))
            spec = Categorical(tuple(v / sum(raw) for v in raw), draw(st.sampled_from(CODINGS)))
            beta = tuple(draw(st.floats(-1.5, 1.5)) for _ in range(p - 1))
        elif family == "uniform":
            lo = draw(st.floats(-2.0, 2.0))
            spec = UniformContinuous(lo, lo + draw(st.floats(0.1, 3.0)))
        elif family == "normal":
            spec = Normal(draw(st.floats(-1.0, 1.0)), draw(st.floats(0.1, 1.5)))
        elif family == "gamma":
            spec = Gamma(draw(st.floats(0.5, 3.0)), draw(st.floats(0.5, 3.0)))
        else:
            spec = Cauchy(draw(st.floats(-1.0, 1.0)), draw(st.floats(0.1, 2.0)))
        terms.append(Term(f"x{i}", spec, beta))
    target = draw(st.floats(-2.0, 2.0) if link == Identity() else st.floats(0.05, 5.0))
    dgp = DgpSpec(tuple(terms), link, NormalOutcome(1.0), target)
    return dgp, RngStream(draw(st.integers(0, 2**64 - 1)))


class TestMonteCarloAgainstMoments:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_six_family_dgps())
    def test_solve_is_within_four_se_of_the_moments(self, case):
        dgp, rng = case
        engine = MonteCarlo(20_000)
        try:
            expectation_of_mean(0.0, dgp, moments=True)
        except (UndefinedMomentError, MgfDomainError):
            # no balancing intercept: refused by term name before drawing
            with pytest.raises(InfeasibleError, match="term 'x"):
                solve_numeric(dgp, engine=engine, rng=rng)
            return
        sol = solve_numeric(dgp, engine=engine, rng=rng)
        if not dgp.link.finite_variance(dgp.terms):
            assert "infinite_variance" in sol.warnings
            return
        assert "infinite_variance" not in sol.warnings
        value, se = expectation_of_mean(sol.beta0, dgp, moments=True)
        assert se == 0.0
        assert abs(value - dgp.target_mean) <= engine.tol + 4.0 * sol.mc_se


@st.composite
def _edge_dgps(draw):
    """A DGP of 0-2 terms over the six families and three links, |beta| up to 300, target down to 1e-12."""
    terms = []
    for i in range(draw(st.integers(0, 2))):
        family = draw(st.sampled_from(["bernoulli", "categorical", "uniform", "normal", "gamma", "cauchy"]))
        beta = draw(st.one_of(st.floats(-3.0, 3.0), st.floats(-300.0, 300.0)))
        if family == "bernoulli":
            spec = Bernoulli(draw(st.floats(0.0, 1.0)))
        elif family == "categorical":
            p = draw(st.integers(2, 4))
            raw = [draw(st.floats(0.05, 1.0))]
            raw += draw(st.lists(st.one_of(st.just(0.0), st.floats(0.05, 1.0)), min_size=p - 1, max_size=p - 1))
            spec = Categorical(tuple(v / sum(raw) for v in raw), draw(st.sampled_from(CODINGS)))
            beta = tuple(draw(st.floats(-300.0, 300.0)) for _ in range(p - 1))
        elif family == "uniform":
            lo = draw(st.floats(-5.0, 5.0))
            spec = UniformContinuous(lo, lo + draw(st.floats(0.01, 10.0)))
        elif family == "normal":
            spec = Normal(draw(st.floats(-5.0, 5.0)), draw(st.floats(0.01, 5.0)))
        elif family == "gamma":
            spec = Gamma(draw(st.floats(0.1, 10.0)), draw(st.floats(0.1, 10.0)))
        else:
            spec = Cauchy(draw(st.floats(-5.0, 5.0)), draw(st.floats(0.01, 5.0)))
        terms.append(Term(f"x{i}", spec, beta))
    link = draw(st.sampled_from([Identity(), Log(), Logit()]))
    outcome = draw(st.sampled_from([NormalOutcome(1.0), BernoulliOutcome(), BernoulliOutcome("reject_out_of_range")]))
    # inside every link's and outcome's domain
    target = 10.0 ** draw(st.floats(-12.0, -0.05))
    return DgpSpec(tuple(terms), link, outcome, target), RngStream(draw(st.integers(0, 2**64 - 1)))


def _finite_or_error(call, finite) -> None:
    """call() returns a value that finite() accepts, or raises an Error subclass; a warning is raised, and fails."""
    try:
        value = call()
    except Error:
        return
    assert finite(value), value


class TestNoRouteWarnsOrCrashes:
    """Each solver, the mean at its beta0 and a dataset drawn from it return finite values or raise an Error.

    Every route is taken: the linear scale, the log closed form, and the
    numeric solver under exact enumeration and under Monte Carlo.
    """

    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(_edge_dgps())
    def test_solve_mean_and_generate(self, case):
        dgp, rng = case
        routes = [
            ("linear_scale", ExactEnumeration()),
            ("log_closed_form", ExactEnumeration()),
            ("numeric", ExactEnumeration()),
            ("numeric", MonteCarlo(500)),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for method, engine in routes:
                try:
                    sol = solve(dgp, method, engine=engine, rng=rng.child(0))
                except Error:
                    continue
                assert math.isfinite(sol.beta0), sol
                _finite_or_error(
                    lambda: expectation_of_mean(sol.beta0, dgp, engine, rng.child(0))[0], math.isfinite
                )
                _finite_or_error(
                    lambda: generate(dgp, sol.beta0, 100, rng.child(1)).outcome, lambda v: np.isfinite(v).all()
                )

    def test_enumeration_leaves_out_a_point_whose_probability_underflows(self):
        # 0.5 * 5e-324 rounds to 0, and that point's eta, 457, overflows exp at the
        # bracket's far end: kept, it made Enumerated.mean take 0 * inf and warn
        dgp = DgpSpec(
            (Term("x0", Bernoulli(0.5), 157.0), Term("x1", Bernoulli(5e-324), 300.0)), Log(), NormalOutcome(1.0), 0.1
        )
        assert _support(dgp)[1].tolist() == [0.5, 0.5]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve(dgp, "numeric")
        assert sol.beta0 == pytest.approx(solve_log_closed_form(dgp).beta0, abs=1e-10)

    def test_generate_refuses_a_normal_outcome_mean_that_overflows(self):
        # under the log link the linear scale's beta0 (210.09) puts some rows' mean past a double
        dgp = DgpSpec(
            (Term("a", Normal(1.2e-07, 4.35), 264.1), Term("b", UniformContinuous(4.583, 4.612), -51.6)),
            Log(),
            NormalOutcome(1.0),
            1.64e-12,
        )
        beta0 = solve_linear_scale(dgp).beta0
        with pytest.raises(OutOfRangeError, match=r"row \d+: mean inf is not finite \(eta = .*\); generation rejected"):
            generate(dgp, beta0, 100, RngStream(2298043).child(1))


class TestDispatcher:
    def test_by_name(self):
        dgp = cat_dgp()
        assert solve(dgp, "log_closed_form").method == "log_closed_form"
        assert solve(dgp, "numeric").method == "numeric"
        assert solve(dgp, "linear_scale").method == "linear_scale"

    def test_unknown_solver(self):
        with pytest.raises(SpecError, match="unknown solver"):
            solve(cat_dgp(), "newton")


class TestUniformTermRoundTrip:
    def test_log_closed_form_with_uniform(self):
        dgp = DgpSpec(
            (Term("u", UniformContinuous(-1.0, 3.0), 0.4),),
            Log(),
            NormalOutcome(0.1),
            0.5,
        )
        sol = solve_log_closed_form(dgp)
        assert sol.beta0 == pytest.approx(
            math.log(0.5) - math.log(UniformContinuous(-1.0, 3.0).mgf(0.4)), abs=1e-13
        )
        value, _ = expectation_of_mean(
            sol.beta0, dgp, MonteCarlo(200_000), RngStream(40)
        )
        se = 4e-3  # generous; the draw s.e. is ~1e-3 at this size
        assert abs(value - 0.5) < se


class TestTermContributions:
    @pytest.mark.parametrize("coding", CODINGS)
    def test_categorical_gather_equals_encoded_matmul(self, coding):
        spec = Categorical(probs=(0.1, 0.2, 0.3, 0.25, 0.15), coding=coding)
        term = Term("k", spec, (0.3, -0.7, 0.45, 1.1))
        levels = spec.sample(5000, RngStream(3))
        encoded = spec.rows()[levels] @ term.betas
        assert term.eta(levels).tobytes() == encoded.tobytes()

    def test_categorical_builds_its_coding_rows_once(self, monkeypatch):
        calls = []
        rows = Categorical.rows

        def counting_rows(self):
            calls.append(self.p)
            return rows(self)

        monkeypatch.setattr(Categorical, "rows", counting_rows)
        spec = Categorical(probs=(0.2, 0.3, 0.5), coding="effect")
        term = Term("k", spec, (0.4, -0.6))
        dgp = DgpSpec((term,), Log(), NormalOutcome(0.1), 0.5)
        levels = np.array([0, 1, 2, 2, 0])
        first = term.eta(levels)
        for _ in range(4):
            assert term.eta(levels).tobytes() == first.tobytes()
        for k in range(3):
            intercept_mod.draw_terms(dgp.terms, 100, RngStream(5, (k,)), np.zeros(100))
        assert calls == [3]
        assert first.tobytes() == (rows(spec)[levels] @ term.betas).tobytes()

    def test_cached_level_etas_keep_equality_and_pickling(self):
        fresh = Term("k", Categorical(probs=(0.2, 0.3, 0.5)), (0.4, -0.6))
        used = Term("k", Categorical(probs=(0.2, 0.3, 0.5)), (0.4, -0.6))
        used.eta(np.arange(3))
        assert used == fresh and hash(used) == hash(fresh)
        clone = pickle.loads(pickle.dumps(used))
        assert clone == fresh
        assert clone.eta(np.arange(3)).tobytes() == fresh.eta(np.arange(3)).tobytes()

    def test_continuous_contribution_is_beta_times_value(self):
        values = np.array([-1.5, 0.0, 2.25])
        assert Term("z", Normal(0.0, 1.0), 2.0).eta(values).tolist() == [-3.0, 0.0, 4.5]

    def test_draw_terms_adds_in_place_from_substreams(self):
        terms = (CAT_TERM, Term("z", Normal(0.0, 1.0), 0.5), Term("d", Bernoulli(0.3), -1.0))
        rng = RngStream(8, (2,))
        # eta's old contents are overwritten, and beta0 reaches the sum as
        # when it was the start of it: e0 + beta0 is beta0 + e0 to the bit
        eta = np.full(400, np.nan)
        draws = intercept_mod.draw_terms(terms, 400, rng, eta, beta0=0.25)
        expected = np.full(400, 0.25)
        for j, (term, values) in enumerate(zip(terms, draws)):
            assert np.array_equal(values, term.spec.sample(400, rng.child(j)))
            expected += term.eta(values)
        assert eta.tobytes() == expected.tobytes()
        # without beta0 the sum starts from the first share, equal to one from 0.0
        draws = intercept_mod.draw_terms(terms, 400, rng, eta)
        expected = np.zeros(400)
        for term, values in zip(terms, draws):
            expected += term.eta(values)
        assert np.array_equal(eta, expected)

    @pytest.mark.parametrize("beta0", [None, -1.5])
    def test_draw_terms_without_terms_fills_beta0(self, beta0):
        eta = np.full(3, np.nan)
        assert intercept_mod.draw_terms((), 3, RngStream(8), eta, beta0=beta0) == []
        assert eta.tolist() == [beta0 or 0.0] * 3

    def test_tol_follows_engine(self):
        assert ExactEnumeration().tol == intercept_mod.DEFAULT_TOL_EXACT
        assert MonteCarlo(10).tol == intercept_mod.DEFAULT_TOL_MC


def _oracle_solve_numeric(dgp, engine, tol, rng):
    """solve_numeric as it ran before the interval filter: one full pass per test.

    Its draws come from fresh spec.sample calls, not from the workspace the
    solver borrows, so a solver that aliased its buffers would disagree.
    """
    target = dgp.target_mean
    link = dgp.link
    if isinstance(engine, MonteCarlo):
        eta = np.zeros(engine.n_mc)
        for j, term in enumerate(dgp.terms):
            values = term.spec.sample(engine.n_mc, rng.child(j))
            if isinstance(term.spec, Categorical):
                eta += (term.spec.rows() @ term.betas)[values]
            else:
                eta += term.beta * values

        def evaluate(b0):
            mu = link.invert(eta + b0)
            return float(np.mean(mu)), mu

    else:
        etas, probs = _support(dgp)

        def evaluate(b0):
            return float(probs @ np.atleast_1d(link.invert(b0 + etas))), None

    def expect(b0):
        return evaluate(b0)[0]

    center = link.apply(target)
    half = 1.0
    lo, hi = center - half, center + half
    flo = expect(lo) - target
    fhi = expect(hi) - target
    expansions = 0
    while not (flo <= 0.0 <= fhi):
        expansions += 1
        if expansions > intercept_mod.MAX_EXPANSIONS:
            raise NoRootError(
                f"no sign change within g(target) +/- {half:g} "
                f"after {intercept_mod.MAX_EXPANSIONS} bracket expansions"
            )
        half *= 2.0
        lo, hi = center - half, center + half
        flo = expect(lo) - target
        fhi = expect(hi) - target
    if abs(flo) <= tol:
        beta0, residual, bisections = lo, abs(flo), 0
    elif abs(fhi) <= tol:
        beta0, residual, bisections = hi, abs(fhi), 0
    else:
        beta0 = residual = None
        for bisections in range(1, intercept_mod.MAX_BISECTIONS + 1):
            mid = 0.5 * (lo + hi)
            fm = expect(mid) - target
            if abs(fm) <= tol:
                beta0, residual = mid, abs(fm)
                break
            if fm < 0.0:
                lo = mid
            else:
                hi = mid
        if beta0 is None:
            raise NoRootError(
                f"bisection did not bring the residual under {tol:g} "
                f"within {intercept_mod.MAX_BISECTIONS} iterations"
            )
    mc_se = 0.0
    warnings = set()
    if isinstance(engine, MonteCarlo):
        mu = evaluate(beta0)[1]
        mc_se = float(mu.std(ddof=1) / math.sqrt(mu.size))
        if mc_se > tol / 4.0:
            warnings.add("mc_precision")
        if mc_se > 0.0 and _infinite_variance(dgp):
            warnings.add("infinite_variance")
    return intercept_mod.InterceptSolution(
        beta0=float(beta0),
        method="numeric",
        residual=float(residual),
        iterations=expansions + bisections,
        mc_se=mc_se,
        warnings=frozenset(warnings),
    )


def _solve_outcome(solver, dgp, engine, tol, seed):
    """Every InterceptSolution field as hex, or the error's type and message."""
    try:
        sol = solver(dgp, engine, tol, RngStream(seed))
    except (NoRootError, MgfDomainError, UndefinedMomentError) as e:
        return type(e).__name__, str(e)
    return (
        sol.beta0.hex(),
        sol.method,
        sol.residual.hex(),
        sol.iterations,
        sol.mc_se.hex(),
        sorted(sol.warnings),
    )


def _filtered(dgp, engine, tol, rng):
    return solve_numeric(dgp, engine=engine, tol=tol, rng=rng)


def _undefined_moment(dgp):
    """(error name, term name) for the first term whose balanced moment does not exist, else None.

    Taken from the distributions' definitions: under log, E[exp(beta X)] is
    infinite for a Cauchy X at beta != 0 and a gamma X at beta >= rate; under
    identity a Cauchy X has no mean. Every logit expectation exists.
    """
    for term in dgp.terms:
        spec = term.spec
        if isinstance(dgp.link, Log) and isinstance(spec, Cauchy) and term.beta != 0.0:
            return "MgfDomainError", term.name
        if isinstance(dgp.link, Log) and isinstance(spec, Gamma) and term.beta >= spec.rate:
            return "MgfDomainError", term.name
        if isinstance(dgp.link, Identity) and isinstance(spec, Cauchy):
            return "UndefinedMomentError", term.name
    return None


def _infinite_variance(dgp):
    """Whether g^-1(beta0 + eta) has an infinite variance, from the distributions' definitions.

    Only under log, and there E[exp(2 beta X)] is infinite for a gamma X at
    2 beta >= rate; _random_dgps draws no other term whose square moment
    passes a double.
    """
    return isinstance(dgp.link, Log) and any(
        isinstance(t.spec, Gamma) and 2.0 * t.beta >= t.spec.rate for t in dgp.terms
    )


def _logit_cells(betas=(1.0, 1.5, 2.0, 2.5, 3.0), targets=tuple(k / 10 for k in range(1, 10))):
    """The suppfig1 axes under a logit link, as the numeric solver's benchmark grid has them."""
    return [
        DgpSpec((CAT_TERM, Term("z", z, beta2)), Logit(), BernoulliOutcome(), target)
        for z in _SUPPFIG1_Z
        for beta2 in betas
        for target in targets
    ]


@st.composite
def _random_dgps(draw):
    link = draw(st.sampled_from([Identity(), Log(), Logit()]))
    finite_support = True
    terms = []
    for i in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(["categorical", "bernoulli", "normal", "gamma", "cauchy"]))
        beta = draw(st.floats(-3.0, 3.0))
        if kind == "categorical":
            spec, beta = CAT_TERM.spec, (beta, draw(st.floats(-3.0, 3.0)))
        elif kind == "bernoulli":
            spec = Bernoulli(draw(st.floats(0.0, 1.0)))
        elif kind == "normal":
            spec = Normal(draw(st.floats(-5.0, 5.0)), draw(st.floats(0.01, 5.0)))
        elif kind == "gamma":
            spec = Gamma(draw(st.floats(0.2, 5.0)), draw(st.floats(0.5, 5.0)))
        else:
            spec = Cauchy(draw(st.floats(-5.0, 5.0)), draw(st.floats(0.01, 3.0)))
        finite_support = finite_support and kind in ("categorical", "bernoulli")
        terms.append(Term(f"x{i}", spec, beta))
    near_zero = st.floats(1e-7, 1e-6)
    target = draw(
        {
            "identity": st.floats(-10.0, 10.0),
            "log": st.one_of(near_zero, st.floats(1e-6, 10.0)),
            "logit": st.one_of(near_zero, st.floats(1.0 - 1e-6, 1.0 - 1e-7), st.floats(0.01, 0.99)),
        }[link.name]
    )
    dgp = DgpSpec(tuple(terms), link, NormalOutcome(1.0), target)
    if finite_support and draw(st.booleans()):
        engine = ExactEnumeration()
    else:
        engine = MonteCarlo(draw(st.sampled_from([200, 1000, 5000])))
    tol = 10.0 ** draw(st.floats(-12.0, -2.0))
    return dgp, engine, tol


class TestFilteredBisection:
    """The filtered loop against the pre-filter loop kept above, field for field in hex."""

    @pytest.mark.parametrize("seed", [20230620, 1, 2])
    def test_bits_on_the_logit_numeric_mc_axes(self, seed):
        for k, dgp in enumerate(_logit_cells()):
            args = (dgp, MonteCarlo(10_000), intercept_mod.DEFAULT_TOL_MC, seed * 1000 + k)
            assert _solve_outcome(_filtered, *args) == _solve_outcome(_oracle_solve_numeric, *args)

    @settings(max_examples=150, deadline=None)
    @given(_random_dgps(), st.integers(0, 2**32 - 1))
    @example(  # bounds taken from swapped bin edges decide a step wrongly here
        (
            DgpSpec((Term("x0", Cauchy(0.0, 1.0), 1.0),), Logit(), NormalOutcome(1.0), 1e-7),
            MonteCarlo(200),
            1e-9,
        ),
        0,
    )
    def test_bits_on_random_dgps(self, case, seed):
        # a term whose balanced moment does not exist is refused on both
        # sides: by the solver, and by _undefined_moment for the oracle
        dgp, engine, tol = case
        refusal = _undefined_moment(dgp)
        with np.errstate(all="ignore"):
            filtered = _solve_outcome(_filtered, dgp, engine, tol, seed)
            if refusal is None:
                assert filtered == _solve_outcome(_oracle_solve_numeric, dgp, engine, tol, seed)
        if refusal is not None:
            assert filtered[0] == refusal[0]
            assert filtered[1].startswith(f"term '{refusal[1]}': ")

    @pytest.mark.parametrize("engine", [ExactEnumeration(), MonteCarlo(2000)], ids=["exact", "mc"])
    def test_exhausted_bisection_keeps_its_message(self, engine):
        # at this target no double beta0 gives a residual of exactly 0
        dgp = cat_dgp(link=Logit(), target=0.123)
        args = (dgp, engine, 1e-300, 4)
        outcome = _solve_outcome(_filtered, *args)
        assert outcome == _solve_outcome(_oracle_solve_numeric, *args)
        assert outcome == (
            "NoRootError",
            "bisection did not bring the residual under 1e-300 within 200 iterations",
        )

    def test_exhausted_expansions_keep_their_message(self, monkeypatch):
        monkeypatch.setattr(intercept_mod, "MAX_EXPANSIONS", 3)
        dgp = DgpSpec((Term("z", Normal(40.0, 1.0), 1.0),), Logit(), BernoulliOutcome(), 0.5)
        args = (dgp, MonteCarlo(2000), 1e-4, 5)
        outcome = _solve_outcome(_filtered, *args)
        assert outcome == _solve_outcome(_oracle_solve_numeric, *args)
        assert outcome == (
            "NoRootError",
            "no sign change within g(target) +/- 8 after 3 bracket expansions",
        )

    def test_intervals_only_for_tested_residuals(self, monkeypatch):
        # while the bracket expands, a failing low end leaves its high end
        # untested, and an untested Residual takes no interval
        intervals, made, tested = [], [], []
        interval = expectation_mod.FrozenDraws.interval
        init, test = expectation_mod.Residual.__init__, expectation_mod.Residual.test

        def counting_interval(self, b0, level=-1):
            if level == 0:  # a Residual's first bounds
                intervals.append(b0)
            return interval(self, b0, level)

        def recording_init(self, *args):
            made.append(self)
            init(self, *args)

        def recording_test(self, holds):
            tested.append(self)
            return test(self, holds)

        monkeypatch.setattr(expectation_mod.FrozenDraws, "interval", counting_interval)
        monkeypatch.setattr(expectation_mod.Residual, "__init__", recording_init)
        monkeypatch.setattr(expectation_mod.Residual, "test", recording_test)
        dgp = DgpSpec((Term("z", Normal(6.0, 1.0), 1.0),), Logit(), BernoulliOutcome(), 0.5)
        solve_numeric(dgp, engine=MonteCarlo(2000), rng=RngStream(3))
        n_tested = len({id(r) for r in tested})
        assert n_tested < len(made)
        assert len(intervals) == n_tested

    def test_filter_skips_most_exact_passes(self, monkeypatch):
        # the bit tests cannot tell a filter that never fires from one that does
        passes = []
        mean = expectation_mod.FrozenDraws.mean

        def counting_mean(self, b0):
            passes.append(b0)
            return mean(self, b0)

        monkeypatch.setattr(expectation_mod.FrozenDraws, "mean", counting_mean)
        cells = _logit_cells(betas=(1.0, 3.0), targets=(0.1, 0.5, 0.9))
        iterations = 0
        for k, dgp in enumerate(cells):
            iterations += solve_numeric(dgp, engine=MonteCarlo(), rng=RngStream(k)).iterations
        assert iterations >= 8 * len(cells)
        assert len(passes) <= 3 * len(cells)

    def test_coarse_level_saves_fine_intervals(self, monkeypatch):
        # a coarse level that never decided would cost a fine interval per tested Residual
        fine, tested = [], {}
        interval, test = expectation_mod.FrozenDraws.interval, expectation_mod.Residual.test

        def counting_interval(self, b0, level=-1):
            if level % self.depth == self.depth - 1:
                fine.append(b0)
            return interval(self, b0, level)

        def recording_test(self, holds):
            tested[id(self)] = self  # kept, so that no id is reused
            return test(self, holds)

        monkeypatch.setattr(expectation_mod.FrozenDraws, "interval", counting_interval)
        monkeypatch.setattr(expectation_mod.Residual, "test", recording_test)
        cells = _logit_cells(betas=(1.0, 3.0), targets=(0.1, 0.5, 0.9))
        for k, dgp in enumerate(cells):
            solve_numeric(dgp, engine=MonteCarlo(), rng=RngStream(k))
        assert len(fine) < len(tested)


_ETA_LINKS = st.sampled_from([Identity(), Log(), Logit()])
_B0 = st.one_of(
    st.just(0.0),
    st.floats(-50.0, 50.0),
    st.builds(lambda k, sign: sign * 2.0**k, st.integers(0, 60), st.sampled_from([-1.0, 1.0])),
)


@st.composite
def _drawn_etas(draw):
    """A sample like a solver's frozen draws: many points, dense bins, at any location and scale."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 20_000))
    kind = draw(st.sampled_from(["normal", "gamma", "cauchy", "levels"]))
    if kind == "normal":
        base = rng.standard_normal(n)
    elif kind == "gamma":
        base = rng.gamma(draw(st.floats(0.2, 5.0)), 1.0, n)
    elif kind == "cauchy":
        base = rng.standard_cauchy(n)
    else:
        base = rng.integers(0, draw(st.integers(1, 5)), n).astype(float)
    loc = draw(st.one_of(st.floats(-10.0, 10.0), st.floats(-1e12, 1e12)))
    scale = 10.0 ** draw(st.floats(-12.0, 3.0))
    return loc + scale * base


def _cancelling(a, m, seed):
    """m draws of a and m of -a, in an order shuffled by seed."""
    return np.random.default_rng(seed).permutation(np.repeat([a, -a], m))


_F32_MAX = float(np.finfo(np.float32).max)


def _sharing_keys(c, m, seed):
    """m distinct doubles c * (1 + k 2^-40), |k| < 2^17, in random order: within a float32 step of c."""
    k = np.random.default_rng(seed).permutation(np.arange(-m // 2, m - m // 2) * (2**18 // m))
    return c * (1.0 + k * 2.0**-40)


def _float32_subnormal(m, seed):
    """m draws of either sign at magnitudes 1e-50 to 1e-37, past float32's least normal (1.2e-38)."""
    rng = np.random.default_rng(seed)
    return rng.choice([-1.0, 1.0], m) * 10.0 ** rng.uniform(-50.0, -37.0, m)


_ANY_ETAS = st.one_of(
    _drawn_etas(),
    # draws whose float32 keys overflow to +-inf, among ordinary ones
    st.lists(
        st.one_of(
            st.floats(-10.0, 10.0),
            st.floats(0.999 * _F32_MAX, 1e39),
            st.floats(-1e39, -0.999 * _F32_MAX),
        ),
        min_size=1,
        max_size=200,
    ).map(np.array),
    st.builds(_sharing_keys, st.floats(-60.0, 60.0), st.integers(1, 20_000), st.integers(0, 2**32 - 1)),
    st.builds(_float32_subnormal, st.integers(1, 10_000), st.integers(0, 2**32 - 1)),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=200).map(
        np.array
    ),
    st.builds(
        _cancelling,
        st.floats(-20.0, 300.0).map(lambda k: 10.0**k),
        st.integers(1, 10_000),
        st.integers(0, 2**32 - 1),
    ),
    st.builds(
        lambda finite, infinite: np.array(finite + infinite),
        st.lists(st.floats(-1e6, 1e6), max_size=50),
        st.lists(st.sampled_from([-math.inf, math.inf]), min_size=1, max_size=3),
    ),
    st.builds(np.full, st.integers(1, 10_000), st.floats(allow_nan=False, allow_infinity=False)),
)
# NaN draws, among ordinary and infinite ones: the exact mean is NaN
_NAN_ETAS = st.builds(
    lambda finite, nan: np.random.default_rng(0).permutation(np.array(finite + nan)),
    st.lists(st.one_of(st.floats(-1e6, 1e6), st.sampled_from([-math.inf, math.inf])), max_size=5000),
    st.lists(st.just(math.nan), min_size=1, max_size=3),
)


def _reference_levels(link, eta):
    """FrozenDraws.levels as first written, from index arrays, stacks and a compress per level."""
    n = eta.size
    with np.errstate(over="ignore"):
        keys = np.sort(eta.astype(np.float32))
    first = np.arange(0, n, -(-n // expectation_mod.HIST_BINS))
    ends = keys[np.stack([first, np.append(first[1:], n) - 1])]
    keep = np.append(True, ends[0, :-1] != ends[1, 1:])
    first, ends = first[keep], ends.compress(keep, axis=1)
    with np.errstate(over="ignore"):
        edges = np.stack([np.nextafter(ends[0], -np.inf), np.nextafter(ends[1], np.inf)])
    edges = edges.astype(float)
    counts = np.diff(np.append(first, n))
    fine = edges, counts / n
    if first.size <= 2 * expectation_mod.COARSE_RUNS:
        return (fine,)
    starts = np.arange(0, first.size, expectation_mod.COARSE_RUNS)
    edges = np.stack([edges[0, starts], edges[1, np.append(starts[1:], first.size) - 1]])
    return (edges, np.add.reduceat(counts, starts) / n), fine


class TestFrozenDrawsInterval:
    @settings(max_examples=400, deadline=None)
    @given(_ETA_LINKS, _ANY_ETAS, _B0)
    def test_interval_contains_the_exact_mean(self, link, eta, b0):
        draws = expectation_mod.FrozenDraws(link, eta)
        draws.levels  # built where warnings are errors: the float32 keys must not warn
        with np.errstate(all="ignore"):
            bounds = [draws.interval(b0, level) for level in range(draws.depth)]
            mean = draws.mean(b0)
        for lo, hi in bounds:
            if math.isnan(mean):
                assert (lo, hi) == (-math.inf, math.inf)
            else:
                assert lo <= mean <= hi
        if isinstance(link, Logit):
            # sum_k p_k (g^-1(upper_k) - g^-1(lower_k)) over the keys telescopes
            # under a g^-1 bounded by [0, 1], and every p_k <= ceil(n / HIST_BINS) / n;
            # each end's float32 step out, of at most 2^-23 |eta|, adds at most
            # a quarter of it (the slope of g^-1 is at most 1/4); add the two
            # margins of 1e-9 and the sums' rounding
            step = math.ceil(eta.size / expectation_mod.HIST_BINS)
            widening = 2.0**-24 * float(np.abs(eta).max())
            lo, hi = bounds[-1]
            assert hi - lo <= step / eta.size + widening + 2e-9 + 1e-14

    @settings(max_examples=100, deadline=None)
    @given(_ETA_LINKS, _NAN_ETAS, _B0)
    def test_nan_draws_give_the_whole_line(self, link, eta, b0):
        # each link's bound path, on every level, must give up where the exact mean is NaN
        draws = expectation_mod.FrozenDraws(link, eta)
        with np.errstate(all="ignore"):
            bounds = [draws.interval(b0, level) for level in range(draws.depth)]
            mean = draws.mean(b0)
        assert math.isnan(mean)
        assert bounds == [(-math.inf, math.inf)] * draws.depth

    @settings(max_examples=200, deadline=None)
    @given(_ETA_LINKS, st.one_of(_ANY_ETAS, _NAN_ETAS))
    def test_levels_equal_the_reference_construction(self, link, eta):
        draws = expectation_mod.FrozenDraws(link, eta)
        got = [(edges.tobytes(), p.tobytes()) for edges, p, _ in draws.levels]
        expected = [(edges.tobytes(), p.tobytes()) for edges, p in _reference_levels(link, eta)]
        assert got == expected
        assert draws.depth == len(expected)

    @settings(max_examples=100, deadline=None)
    @given(
        _ETA_LINKS,
        st.lists(st.floats(-1e6, 1e6), max_size=50),
        st.lists(st.sampled_from([-math.inf, math.inf]), min_size=1, max_size=3),
        _B0,
    )
    def test_infinite_draws_build_no_histogram(self, link, finite, infinite, b0):
        # the sorted runs hold infinite draws as they are, at the two ends,
        # and a finite end one float32 step out from the extreme draw's key
        eta = np.array(finite + infinite)
        draws = expectation_mod.FrozenDraws(link, eta)
        edges, p, _ = draws.levels[-1]
        assert edges[0, 0] == np.nextafter(np.float32(eta.min()), -np.inf)
        assert edges[1, -1] == np.nextafter(np.float32(eta.max()), np.inf)
        assert p.sum() == pytest.approx(1.0)
        with np.errstate(all="ignore"):
            lo, hi = draws.interval(b0)
            mean = draws.mean(b0)
        if math.isfinite(mean):
            assert lo <= mean <= hi
        else:
            assert (lo, hi) == (-math.inf, math.inf)

    @pytest.mark.parametrize("link", [Identity(), Log(), Logit()], ids=lambda l: l.name)
    def test_constant_draws_are_one_bin_around_their_key(self, link):
        draws = expectation_mod.FrozenDraws(link, np.full(1000, 0.7))
        assert draws.depth == 1
        edges, p, _ = draws.levels[0]
        key = np.float32(0.7)
        assert edges.tolist() == [[np.nextafter(key, -np.inf)], [np.nextafter(key, np.inf)]]
        assert p.tolist() == [1.0]
        lo, hi = draws.interval(-0.2)
        assert lo <= draws.mean(-0.2) <= hi
        # two float32 steps of 6e-8 around 0.5, where the steepest g^-1 (exp) has slope 1.65
        assert hi - lo <= 3e-7

    def test_sorting_the_draws_keeps_se_exact(self):
        # the sort borrows the work buffer that se() writes
        with MonteCarlo(10_000).expectation(_pin_dgp("logit_normal_z"), RngStream(6)) as draws:
            reference = expectation_mod.FrozenDraws(Logit(), draws.eta)
            draws.mean(0.4)
            draws.interval(0.4)
            assert draws.se(0.4) == reference.se(0.4)

    def test_interval_is_narrow_on_a_solver_sample(self):
        dgp = _logit_cells(betas=(3.0,), targets=(0.3,))[3]  # the gamma z cell
        with MonteCarlo(100_000).expectation(dgp, RngStream(9)) as draws:
            coarse, fine = draws.levels
            assert fine[1].size <= expectation_mod.HIST_BINS
            assert coarse[1].size == -(-fine[1].size // expectation_mod.COARSE_RUNS)
            (clo, chi), (lo, hi) = draws.interval(-2.0, 0), draws.interval(-2.0, 1)
            assert clo <= draws.mean(-2.0) <= chi and lo <= draws.mean(-2.0) <= hi
        # 2.2e-4 here; runs of 25 of the 100k draws bound it by 2.5e-4 plus the margins
        assert hi - lo <= 3e-4
        # runs of 64 * 25 draws bound the coarse one by 0.016
        assert chi - clo <= 0.016

    def test_repeated_runs_join_on_a_few_valued_sample(self):
        dgp = _logit_cells(betas=(3.0,), targets=(0.3,))[0]  # 2 x 3 distinct etas
        with MonteCarlo(100_000).expectation(dgp, RngStream(9)) as draws:
            assert draws.depth == 1  # too few runs for a coarse level
            edges, p, _ = draws.levels[0]
            # each value's runs join into one, beside at most 5 runs that straddle two values
            assert edges.shape[1] <= 11
            assert p.sum() == pytest.approx(1.0)
            lo, hi = draws.interval(-2.0)
            assert lo <= draws.mean(-2.0) <= hi


class TestNumericMomentRefusal:
    """solve_numeric refuses a term whose balanced moment does not exist, before the engine runs."""

    @pytest.mark.parametrize(
        "link, term, error",
        [
            (Log(), Term("c", Cauchy(0.0, 1.0), 0.5), MgfDomainError),
            (Log(), Term("c", Gamma(1.0, 1.5), 2.0), MgfDomainError),
            (Identity(), Term("c", Cauchy(0.0, 1.0), 0.5), UndefinedMomentError),
        ],
        ids=["log-cauchy", "log-gamma", "identity-cauchy"],
    )
    @pytest.mark.parametrize("engine", [cls() for cls in get_args(Engine)], ids=lambda e: e.name)
    def test_refused_by_name_before_the_engine_runs(self, monkeypatch, link, term, error, engine):
        def no_expectation(*args, **kwargs):
            raise AssertionError("took an expectation of a moment that does not exist")

        monkeypatch.setattr(type(engine), "expectation", no_expectation)
        dgp = DgpSpec((CAT_TERM, term), link, NormalOutcome(1.0), 0.5)
        for seed in (1, 2):
            with pytest.raises(error, match="term 'c'"):
                solve(dgp, "numeric", engine=engine, rng=RngStream(seed))
            with pytest.raises(error, match="term 'c'"):
                expectation_of_mean(0.0, dgp, engine, RngStream(seed))
        assert error.exit_code == 2

    def test_logit_cauchy_still_solves(self):
        dgp = DgpSpec((Term("c", Cauchy(0.0, 1.0), 0.5),), Logit(), BernoulliOutcome(), 0.3)
        sol = solve_numeric(dgp, engine=MonteCarlo(10_000), rng=RngStream(1))
        assert sol.residual <= intercept_mod.DEFAULT_TOL_MC
        assert math.isfinite(sol.beta0)

    def test_cauchy_at_beta_zero_keeps_its_log_moment(self):
        # E[exp(0 X)] = 1 exists for any X
        dgp = DgpSpec((CAT_TERM, Term("c", Cauchy(0.0, 1.0), 0.0)), Log(), NormalOutcome(1.0), 0.5)
        sol = solve_numeric(dgp, engine=MonteCarlo(1000), rng=RngStream(1))
        assert sol.beta0 == pytest.approx(LOG_BETA0, abs=0.05)


def _cells_for_workspace():
    return _logit_cells(betas=(1.0, 3.0), targets=(0.1, 0.5, 0.9))


def _solve_hex(dgp, n_mc, seed):
    return _solve_outcome(_filtered, dgp, MonteCarlo(n_mc), intercept_mod.DEFAULT_TOL_MC, seed)


class TestWorkspace:
    def test_second_solve_allocates_less_than_one_draw_array(self):
        import tracemalloc

        dgp = _logit_cells(betas=(2.0,), targets=(0.3,))[0]  # categorical x plus Bernoulli z
        solve_numeric(dgp, engine=MonteCarlo(100_000), rng=RngStream(1))
        tracemalloc.start()
        try:
            solve_numeric(dgp, engine=MonteCarlo(100_000), rng=RngStream(2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000 * 8

    def test_back_to_back_n_mc_match_fresh_processes(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        cells = _cells_for_workspace()
        runs = [(3, 2000), (17, 30_000), (3, 2000), (22, 5000), (17, 30_000)]
        here = [_solve_hex(cells[k], n_mc, k) for k, n_mc in runs]
        assert here[0] == here[2] and here[1] == here[4]
        src = str(Path(intercept_mod.__file__).resolve().parents[1])
        script = (
            "import sys, test_intercept as t\n"
            "k, n = int(sys.argv[1]), int(sys.argv[2])\n"
            "print(repr(t._solve_hex(t._cells_for_workspace()[k], n, k)))\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, str(Path(__file__).parent)])}
        for (k, n_mc), got in zip(runs[:2] + runs[3:4], here[:2] + here[3:4]):
            fresh = subprocess.run(
                [sys.executable, "-c", script, str(k), str(n_mc)],
                env=env, capture_output=True, text=True, check=True,
            ).stdout.strip()
            assert fresh == repr(got)

    def test_threads_solving_at_once_match_sequential_bits(self):
        import sys
        import threading
        from concurrent.futures import ThreadPoolExecutor

        cells = _cells_for_workspace()
        # one n_mc for all, so that a shared set would be reused, not replaced;
        # three threads on a 2-vCPU box, switching often
        jobs = [[(dgp, 20_000, 100 * w + k) for k, dgp in enumerate(cells)] for w in range(3)]
        sequential = [[_solve_hex(*job) for job in js] for js in jobs]
        start = threading.Barrier(len(jobs), timeout=60)

        def run(js):
            start.wait()
            return [_solve_hex(*job) for job in js]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
                futures = [pool.submit(run, js) for js in jobs]
                concurrent = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert concurrent == sequential

    def test_each_thread_keeps_its_own_set(self):
        import threading

        with expectation_mod.WORKSPACE.borrow(64) as main:
            pass
        seen = []

        def borrow():
            with expectation_mod.WORKSPACE.borrow(64) as arrays:
                seen.extend(arrays)

        worker = threading.Thread(target=borrow)
        worker.start()
        worker.join()
        assert len(seen) == 3
        assert not any(np.shares_memory(a, b) for a in main for b in seen)

    def test_nested_or_unreturned_borrow_gets_fresh_arrays(self):
        ws = expectation_mod.Workspace()
        with ws.borrow(64) as kept:
            with ws.borrow(64) as nested:
                assert not any(np.shares_memory(a, b) for a in kept for b in nested)
        with ws.borrow(64) as again:
            assert [(a.ctypes.data, a.size) for a in again] == [(b.ctypes.data, b.size) for b in kept]
        held = ws.borrow(64)
        lent = held.__enter__()
        with ws.borrow(64) as other:
            assert not any(np.shares_memory(a, b) for a in lent for b in other)
        held.__exit__(None, None, None)
        with ws.borrow(32) as resized:
            assert [a.size for a in resized] == [32] * 3
            assert len({id(a) for a in resized}) == 3

    def test_frozen_draws_without_buffers_allocates_its_own(self):
        eta = np.linspace(-2.0, 2.0, 101)
        a = expectation_mod.FrozenDraws(Logit(), eta)
        work = (np.empty_like(eta), np.empty_like(eta))
        b = expectation_mod.FrozenDraws(Logit(), eta, work)
        assert (a.mean(0.3), a.se(0.3)) == (b.mean(0.3), b.se(0.3))
        assert b.x is work[0] and b.mu is work[1]
        assert a.se(0.3) == float(a.mu.std(ddof=1) / math.sqrt(eta.size))
