import math

import numpy as np
import pytest

from balint import (
    Bernoulli,
    BernoulliOutcome,
    Categorical,
    DgpSpec,
    Identity,
    Log,
    Normal,
    NormalOutcome,
    OutOfRangeError,
    RngStream,
    SpecError,
    Term,
    UniformContinuous,
    expectation_of_mean,
    generate,
    solve_log_closed_form,
)

PROBS = (0.5, 0.35, 0.15)
CAT_TERM = Term("x", Categorical(probs=PROBS), (0.2, -0.2))


def log_dgp(extra=(), outcome=NormalOutcome(0.1), target=0.5):
    return DgpSpec((CAT_TERM, *extra), Log(), outcome, target)


class TestDeterminism:
    def test_same_stream_bitwise_identical(self):
        dgp = log_dgp(extra=(Term("z", Normal(0.0, 1.0), 1.0),))
        a = generate(dgp, -1.24, 500, RngStream(42, (7,)))
        b = generate(dgp, -1.24, 500, RngStream(42, (7,)))
        assert np.array_equal(a.outcome, b.outcome)
        for ca, cb in zip(a.columns, b.columns):
            assert ca.name == cb.name
            assert np.array_equal(ca.values, cb.values)

    def test_different_stream_differs(self):
        dgp = log_dgp()
        a = generate(dgp, -0.74, 500, RngStream(42, (7,)))
        b = generate(dgp, -0.74, 500, RngStream(42, (8,)))
        assert not np.array_equal(a.outcome, b.outcome)

    def test_adding_a_term_preserves_earlier_columns(self):
        base = log_dgp()
        wider = log_dgp(extra=(Term("z", Normal(0.0, 1.0), 0.5),))
        a = generate(base, -0.74, 300, RngStream(9))
        b = generate(wider, -0.74, 300, RngStream(9))
        assert np.array_equal(a.columns[0].values, b.columns[0].values)


class TestColumns:
    def test_names_and_shapes(self):
        dgp = log_dgp(extra=(Term("z", Normal(0.0, 1.0), 1.0),))
        ds = generate(dgp, -1.24, 200, RngStream(1))
        assert [c.name for c in ds.columns] == ["x", "z"]
        assert ds.n == 200
        assert ds.outcome.shape == (200,)

    def test_categorical_column_carries_levels_and_encoding(self):
        ds = generate(log_dgp(), -0.74, 200, RngStream(2))
        col = ds.columns[0]
        assert col.values.dtype == np.int64
        assert col.values.shape == (200,)
        # the levels through the coding give, bit for bit, the eta generate added
        rows = Categorical(probs=PROBS).rows()
        assert CAT_TERM.eta(col.values).tobytes() == (rows[col.values] @ CAT_TERM.betas).tobytes()


class TestOutcome:
    def test_identity_no_covariates_mean(self):
        dgp = DgpSpec((), Identity(), NormalOutcome(0.1), 0.37)
        ds = generate(dgp, 0.37, 200_000, RngStream(4))
        se = 0.1 / math.sqrt(ds.n)
        assert abs(ds.outcome.mean() - 0.37) <= 4 * se
        assert ds.clamp_count == 0

    def test_log_link_hits_solved_target(self):
        dgp = log_dgp(extra=(Term("z", Normal(0.0, 1.0), 1.0),))
        beta0 = solve_log_closed_form(dgp).beta0
        ds = generate(dgp, beta0, 200_000, RngStream(5))
        se = ds.outcome.std(ddof=1) / math.sqrt(ds.n)
        assert abs(ds.outcome.mean() - 0.5) <= 4 * se

    def test_normal_noise_scale(self):
        dgp = DgpSpec((), Identity(), NormalOutcome(0.25), 0.0)
        ds = generate(dgp, 0.0, 100_000, RngStream(6))
        assert ds.outcome.std(ddof=1) == pytest.approx(0.25, rel=0.02)

    def test_bernoulli_outcome_binary_and_unclamped(self):
        dgp = log_dgp(outcome=BernoulliOutcome(), target=0.3)
        beta0 = solve_log_closed_form(dgp).beta0
        ds = generate(dgp, beta0, 50_000, RngStream(7))
        assert set(np.unique(ds.outcome)) <= {0.0, 1.0}
        assert ds.clamp_count == 0
        se = ds.outcome.std(ddof=1) / math.sqrt(ds.n)
        assert abs(ds.outcome.mean() - 0.3) <= 4 * se


class TestNormalOutcomeKernel:
    """The outcome is standard_normal(n) * sd + mu; numpy's normal(mu, sd) is the oracle."""

    @pytest.mark.parametrize("n", [1, 7, 1000, 10_007])
    @pytest.mark.parametrize("sd", [1e-3, 0.37, 1.0, 1e3])
    @pytest.mark.parametrize("beta0", [-1e5, 0.0, 1e5])
    def test_equals_generator_normal_bitwise(self, n, sd, beta0):
        # identity link: mu = beta0 + x, x uniform on [-1e5, 1e5]
        term = Term("x", UniformContinuous(-1e5, 1e5), 1.0)
        dgp = DgpSpec((term,), Identity(), NormalOutcome(sd), 0.0)
        rng = RngStream(31, (n,))
        ds = generate(dgp, beta0, n, rng)
        mu = beta0 + term.eta(term.spec.sample(n, rng.child(0).child(0)))
        expected = rng.child(1).generator().normal(mu, sd)
        assert ds.outcome.view(np.int64).tolist() == expected.view(np.int64).tolist()

    def test_log_link_categorical_equals_generator_normal_bitwise(self):
        dgp = log_dgp(extra=(Term("z", Normal(0.0, 1.0), 1.0),))
        rng = RngStream(32)
        ds = generate(dgp, -1.24, 5000, rng)
        eta = np.full(5000, -1.24)
        for term, col in zip(dgp.terms, ds.columns):
            eta += term.eta(col.values)
        expected = rng.child(1).generator().normal(np.exp(eta), 0.1)
        assert ds.outcome.view(np.int64).tolist() == expected.view(np.int64).tolist()


class TestClamping:
    def test_all_rows_clamped_above(self):
        dgp = DgpSpec((), Identity(), BernoulliOutcome(), 0.5)
        ds = generate(dgp, 1.5, 1000, RngStream(8))
        assert ds.clamp_count == 1000
        assert np.all(ds.outcome == 1.0)

    def test_all_rows_clamped_below(self):
        dgp = DgpSpec((), Identity(), BernoulliOutcome(), 0.5)
        ds = generate(dgp, -0.5, 1000, RngStream(9))
        assert ds.clamp_count == 1000
        assert np.all(ds.outcome == 0.0)

    def test_partial_clamp_pulls_mean_down(self):
        # mu is 0.6 or 1.4 with equal probability; the upper branch clamps
        dgp = DgpSpec(
            (Term("d", Bernoulli(0.5), 0.8),), Identity(), BernoulliOutcome(), 0.5
        )
        ds = generate(dgp, 0.6, 100_000, RngStream(10))
        assert 0.45 * ds.n < ds.clamp_count < 0.55 * ds.n
        unclamped_mean = 1.0  # 0.5*0.6 + 0.5*1.4
        achieved = ds.outcome.mean()
        assert achieved < unclamped_mean
        assert achieved == pytest.approx(0.8, abs=0.01)  # 0.5*0.6 + 0.5*1.0

    def test_reject_policy_names_offending_row(self):
        dgp = DgpSpec(
            (Term("d", Bernoulli(0.5), 0.8),),
            Identity(),
            BernoulliOutcome(clamp="reject_out_of_range"),
            0.5,
        )
        with pytest.raises(OutOfRangeError, match=r"outside \[0, 1\]"):
            generate(dgp, 0.6, 10_000, RngStream(11))

    def test_reject_policy_passes_valid_means(self):
        dgp = DgpSpec(
            (Term("d", Bernoulli(0.5), 0.4),),
            Identity(),
            BernoulliOutcome(clamp="reject_out_of_range"),
            0.5,
        )
        ds = generate(dgp, 0.3, 1000, RngStream(12))
        assert ds.clamp_count == 0


class TestValidation:
    def test_size_must_be_positive(self):
        with pytest.raises(SpecError):
            generate(log_dgp(), -0.74, 0, RngStream(0))

class TestGrandMeanUnbiased:
    def test_replicate_grand_mean_matches_expectation(self):
        dgp = log_dgp(extra=(Term("d", Bernoulli(0.8), 0.5),))
        beta0 = solve_log_closed_form(dgp).beta0
        expected, _ = expectation_of_mean(beta0, dgp)
        base = RngStream(2026, (3,))
        means = np.array(
            [generate(dgp, beta0, 10_000, base.child(k)).outcome.mean() for k in range(200)]
        )
        se = means.std(ddof=1) / math.sqrt(means.size)
        assert abs(means.mean() - expected) <= 4 * se
        # replicates must look independent: lag-1 autocorrelation near zero
        c = np.corrcoef(means[:-1], means[1:])[0, 1]
        assert abs(c) < 4 / math.sqrt(means.size)
