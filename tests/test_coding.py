import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from balint import (
    Categorical,
    Effect,
    ReferenceCell,
    RngStream,
    SpecError,
    WeightedEffect,
    categorical_expectation,
    coding_by_name,
)

PROBS = (0.5, 0.35, 0.15)
CAT_EXP_MOMENT = 1.0503005783177568  # 0.5 + 0.35*e^0.2 + 0.15*e^-0.2


class TestEncode:
    def test_reference_cell_rows(self):
        rows = ReferenceCell().rows(3)
        assert rows.tolist() == [[0, 0], [1, 0], [0, 1]]

    def test_effect_rows(self):
        rows = Effect().rows(3)
        assert rows.tolist() == [[-1, -1], [1, 0], [0, 1]]

    def test_weighted_effect_reference_row(self):
        # row 0 is -pi_j/pi_0 for each non-reference level
        row = WeightedEffect().rows(3, PROBS)[0]
        assert row == pytest.approx([-0.7, -0.3], rel=1e-14)

    def test_weighted_effect_nonreference_rows_match_reference_cell(self):
        w = WeightedEffect().rows(3, PROBS)
        r = ReferenceCell().rows(3)
        assert np.array_equal(w[1:], r[1:])

    def test_weighted_effect_requires_probs(self):
        with pytest.raises(SpecError):
            WeightedEffect().rows(3)

    def test_weighted_effect_zero_reference_mass(self):
        with pytest.raises(SpecError):
            WeightedEffect().rows(3, (0.0, 0.5, 0.5))

    def test_two_level_collapses_to_indicator(self):
        assert ReferenceCell().rows(2).tolist() == [[0], [1]]
        assert Effect().rows(2).tolist() == [[-1], [1]]


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
        rows = WeightedEffect().rows(len(probs), probs)
        weighted = np.asarray(probs) @ rows
        assert np.all(np.abs(weighted) <= 1e-12)

    def test_uniform_probs_reduce_to_effect(self):
        probs = (0.25, 0.25, 0.25, 0.25)
        assert np.allclose(
            WeightedEffect().rows(4, probs), Effect().rows(4), atol=1e-14
        )


class TestCategoricalExpectation:
    def test_reference_cell_exp_oracle(self):
        got = categorical_expectation(PROBS, (0.2, -0.2), ReferenceCell(), math.exp)
        assert got == pytest.approx(CAT_EXP_MOMENT, rel=1e-14)

    def test_zero_betas_with_exp(self):
        assert categorical_expectation(PROBS, (0.0, 0.0), Effect(), math.exp) == 1.0

    def test_identity_f_weighted_effect_centres(self):
        # E(beta' X) = 0 under probability-weighted coding, any betas
        for betas in [(1.0, -2.0), (0.3, 0.3), (-5.0, 4.0)]:
            got = categorical_expectation(PROBS, betas, WeightedEffect(), lambda e: e)
            assert abs(got) <= 1e-12

    def test_identity_f_reference_cell(self):
        got = categorical_expectation(PROBS, (0.2, -0.2), ReferenceCell(), lambda e: e)
        assert got == pytest.approx(0.35 * 0.2 - 0.15 * 0.2, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(SpecError):
            categorical_expectation(PROBS, (0.2,), ReferenceCell(), math.exp)
        with pytest.raises(SpecError):
            categorical_expectation(PROBS, (0.1, 0.2, 0.3), ReferenceCell(), math.exp)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_monte_carlo(self, seed):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(2, 6))
        probs = rng.dirichlet(np.ones(p))
        betas = rng.uniform(-1.0, 1.0, p - 1)
        scheme = coding_by_name(
            ["reference_cell", "effect", "weighted_effect"][seed % 3]
        )
        exact = categorical_expectation(probs, betas, scheme, math.exp)
        spec = Categorical(probs=tuple(probs), coding=scheme)
        lv = spec.sample(200_000, RngStream(100 + seed))
        draws = np.exp(scheme.rows(p, probs)[lv] @ betas)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - exact) <= 4 * se


class TestRegistry:
    def test_lookup(self):
        for name in ("reference_cell", "effect", "weighted_effect"):
            assert coding_by_name(name).name == name

    def test_unknown(self):
        with pytest.raises(SpecError):
            coding_by_name("helmert")
