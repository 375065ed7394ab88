import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from balint import CODINGS, Categorical, RngStream, SpecError, Term

PROBS = (0.5, 0.35, 0.15)
CAT_EXP_MOMENT = 1.0503005783177568  # 0.5 + 0.35*e^0.2 + 0.15*e^-0.2


def coding_rows(probs, coding):
    """A coding matrix written out from its definition, as an oracle for Categorical.rows."""
    p = len(probs)
    rows = np.zeros((p, p - 1))
    for i in range(1, p):
        rows[i, i - 1] = 1.0
    if coding == "effect":
        rows[0, :] = -1.0
    elif coding == "weighted_effect":
        rows[0, :] = [-probs[j] / probs[0] for j in range(1, p)]
    return rows


class TestEncode:
    def test_reference_cell_rows(self):
        rows = Categorical(PROBS).rows()
        assert rows.tolist() == [[0, 0], [1, 0], [0, 1]]

    def test_effect_rows(self):
        rows = Categorical(PROBS, coding="effect").rows()
        assert rows.tolist() == [[-1, -1], [1, 0], [0, 1]]

    def test_weighted_effect_reference_row(self):
        # row 0 is -pi_j/pi_0 for each non-reference level
        row = Categorical(PROBS, coding="weighted_effect").rows()[0]
        assert row == pytest.approx([-0.7, -0.3], rel=1e-14)

    def test_weighted_effect_nonreference_rows_match_reference_cell(self):
        w = Categorical(PROBS, coding="weighted_effect").rows()
        r = Categorical(PROBS).rows()
        assert np.array_equal(w[1:], r[1:])

    def test_weighted_effect_zero_reference_mass(self):
        with pytest.raises(SpecError, match="nonzero probability"):
            Categorical((0.0, 0.5, 0.5), coding="weighted_effect")

    def test_two_level_collapses_to_indicator(self):
        assert Categorical((0.5, 0.5)).rows().tolist() == [[0], [1]]
        assert Categorical((0.5, 0.5), coding="effect").rows().tolist() == [[-1], [1]]

    @pytest.mark.parametrize("coding", CODINGS)
    def test_rows_match_the_written_out_definition(self, coding):
        probs = (0.1, 0.2, 0.3, 0.25, 0.15)
        rows = Categorical(probs, coding=coding).rows()
        assert rows.tobytes() == coding_rows(probs, coding).tobytes()


@st.composite
def _probs(draw, min_levels=2, max_levels=6):
    p = draw(st.integers(min_levels, max_levels))
    raw = draw(
        st.lists(st.floats(0.01, 1.0), min_size=p, max_size=p)
    )
    total = sum(raw)
    return tuple(v / total for v in raw)


class TestWeightedEffectZeroSum:
    @settings(max_examples=200, deadline=None)
    @given(_probs())
    def test_probability_weighted_rows_sum_to_zero(self, probs):
        rows = Categorical(probs, coding="weighted_effect").rows()
        weighted = np.asarray(probs) @ rows
        assert np.all(np.abs(weighted) <= 1e-12)

    def test_uniform_probs_reduce_to_effect(self):
        probs = (0.25, 0.25, 0.25, 0.25)
        assert np.allclose(
            Categorical(probs, coding="weighted_effect").rows(),
            Categorical(probs, coding="effect").rows(),
            atol=1e-14,
        )


def categorical_expectation(probs, betas, coding, f):
    """E[f(beta' X)] for an encoded categorical, as balint computed it before Term did.

    The bit-for-bit oracle for Term.mean and Term.exp_moment, with its coding
    rows written out here rather than taken from Categorical.
    """
    pr = np.asarray(probs, dtype=float)
    b = np.asarray(betas, dtype=float)
    etas = coding_rows(pr, coding) @ b
    return float(sum(p_i * float(f(float(e))) for p_i, e in zip(pr, etas)))


def cat_term(probs, betas, coding):
    return Term("x", Categorical(probs=tuple(probs), coding=coding), tuple(betas))


class TestCategoricalExpectation:
    """A categorical term's moments, against closed forms and Monte Carlo."""

    def test_reference_cell_exp_oracle(self):
        got = cat_term(PROBS, (0.2, -0.2), "reference_cell").exp_moment()
        assert got == pytest.approx(CAT_EXP_MOMENT, rel=1e-14)

    def test_zero_betas_with_exp(self):
        assert cat_term(PROBS, (0.0, 0.0), "effect").exp_moment() == 1.0

    def test_identity_f_weighted_effect_centres(self):
        # E(beta' X) = 0 under probability-weighted coding, any betas
        for betas in [(1.0, -2.0), (0.3, 0.3), (-5.0, 4.0)]:
            got = cat_term(PROBS, betas, "weighted_effect").mean()
            assert abs(got) <= 1e-12

    def test_identity_f_reference_cell(self):
        got = cat_term(PROBS, (0.2, -0.2), "reference_cell").mean()
        assert got == pytest.approx(0.35 * 0.2 - 0.15 * 0.2, abs=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_monte_carlo(self, seed):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(2, 6))
        probs = rng.dirichlet(np.ones(p))
        betas = rng.uniform(-1.0, 1.0, p - 1)
        coding = CODINGS[seed % 3]
        exact = cat_term(probs, betas, coding).exp_moment()
        spec = Categorical(probs=tuple(probs), coding=coding)
        lv = spec.sample(200_000, RngStream(100 + seed))
        draws = np.exp(coding_rows(probs, coding)[lv] @ betas)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - exact) <= 4 * se


@st.composite
def _categorical_terms(draw):
    """1-8 levels, some of zero probability, any coding, betas past exp's range."""
    p = draw(st.integers(1, 8))
    coding = draw(st.sampled_from(CODINGS))
    level = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
    # weighted effect coding needs mass on the reference level
    raw = [draw(st.floats(0.01, 1.0) if coding == "weighted_effect" else level)]
    raw += draw(st.lists(level, min_size=p - 1, max_size=p - 1))
    if sum(raw) == 0.0:
        raw[-1] = 1.0
    total = sum(raw)
    probs = tuple(v / total for v in raw)
    betas = tuple(draw(st.lists(st.floats(-800.0, 800.0), min_size=p - 1, max_size=p - 1)))
    return probs, betas, coding


class TestMomentsMatchOldRoute:
    @settings(max_examples=1000, deadline=None)
    @given(_categorical_terms())
    @example(((0.5, 0.5), (800.0,), "reference_cell"))  # exp overflows
    @example(((0.0, 1.0), (-800.0,), "reference_cell"))  # exp underflows
    @example(((1.0,), (), "weighted_effect"))  # one level, no coefficients
    @example(((0.25, 0.0, 0.75), (3.0, -2.0), "effect"))  # a level of zero probability
    def test_bit_equal_to_categorical_expectation(self, case):
        probs, betas, coding = case
        term = cat_term(probs, betas, coding)
        # the old route raised OverflowError where exp did, which the solver read as inf
        try:
            old_exp = categorical_expectation(probs, betas, coding, math.exp)
        except OverflowError:
            old_exp = math.inf
        old_mean = categorical_expectation(probs, betas, coding, lambda e: e)
        assert term.exp_moment().hex() == old_exp.hex()
        assert term.mean().hex() == old_mean.hex()


class TestRegistry:
    def test_lookup(self):
        assert Categorical(PROBS).coding == "reference_cell"
        for name in ("reference_cell", "effect", "weighted_effect"):
            assert Categorical(PROBS, coding=name).coding == name

    def test_unknown(self):
        with pytest.raises(SpecError, match="unknown coding scheme 'helmert'"):
            Categorical(PROBS, coding="helmert")
