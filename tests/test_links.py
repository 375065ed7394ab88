import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from balint import (
    Categorical,
    DgpSpec,
    Gamma,
    Identity,
    Link,
    LinkDomainError,
    Log,
    Logit,
    Normal,
    NormalOutcome,
    Term,
    link_by_name,
)

LINKS = [Identity(), Log(), Logit()]


def _domain_grid(link: Link) -> np.ndarray:
    if isinstance(link, Log):
        return np.geomspace(1e-8, 1e6, 41)
    if isinstance(link, Logit):
        return np.concatenate([np.linspace(1e-7, 1 - 1e-7, 37), [0.5]])
    return np.linspace(-1e6, 1e6, 41)


class TestRoundTrip:
    @pytest.mark.parametrize("link", LINKS, ids=lambda l: l.name)
    def test_invert_after_apply(self, link):
        mu = _domain_grid(link)
        back = link.invert(link.apply(mu))
        assert np.all(np.abs(back - mu) <= 1e-12 * np.maximum(1.0, np.abs(mu)))

    @pytest.mark.parametrize("link", LINKS, ids=lambda l: l.name)
    def test_scalar_in_scalar_out(self, link):
        mu = 0.25
        eta = link.apply(mu)
        assert isinstance(eta, float)
        assert isinstance(link.invert(eta), float)

    @pytest.mark.parametrize("link", LINKS, ids=lambda l: l.name)
    def test_array_in_array_out(self, link):
        eta = np.array([-0.5, 0.0, 0.5])
        out = link.invert(eta)
        assert isinstance(out, np.ndarray)
        assert out.shape == (3,)


class TestPointValues:
    def test_identity_is_identity(self):
        assert Identity().apply(0.37) == 0.37
        assert Identity().invert(-4.2) == -4.2

    def test_log_points(self):
        assert Log().apply(1.0) == 0.0
        assert Log().invert(0.0) == 1.0
        assert Log().apply(math.e) == pytest.approx(1.0, rel=1e-15)

    def test_logit_points(self):
        assert Logit().apply(0.5) == 0.0
        assert Logit().invert(0.0) == 0.5
        assert Logit().apply(0.75) == pytest.approx(math.log(3.0), rel=1e-14)


class TestMonotonicity:
    @pytest.mark.parametrize("link", LINKS, ids=lambda l: l.name)
    def test_apply_order_preserving(self, link):
        rng = np.random.default_rng(11)
        grid = _domain_grid(link)
        lo, hi = grid.min(), grid.max()
        a = rng.uniform(lo, hi, 10_000)
        b = rng.uniform(lo, hi, 10_000)
        swap = a > b
        a[swap], b[swap] = b[swap], a[swap].copy()
        strict = a < b
        fa, fb = link.apply(a), link.apply(b)
        assert np.all(fa[strict] < fb[strict])

    @pytest.mark.parametrize("link", LINKS, ids=lambda l: l.name)
    def test_invert_order_preserving(self, link):
        rng = np.random.default_rng(12)
        a = np.sort(rng.uniform(-30, 30, 10_000))
        out = link.invert(a)
        assert np.all(np.diff(out) >= 0)


class TestDomainErrors:
    @pytest.mark.parametrize("mu", [0.0, -1.0, -1e-300])
    def test_log_rejects_nonpositive(self, mu):
        with pytest.raises(LinkDomainError):
            Log().apply(mu)

    @pytest.mark.parametrize("mu", [0.0, 1.0, -0.2, 1.3])
    def test_logit_rejects_outside_open_interval(self, mu):
        with pytest.raises(LinkDomainError):
            Logit().apply(mu)

    def test_array_domain_violation_detected(self):
        with pytest.raises(LinkDomainError):
            Log().apply(np.array([1.0, 0.0, 2.0]))
        with pytest.raises(LinkDomainError):
            Logit().apply(np.array([0.5, 1.0]))

    @pytest.mark.parametrize("mu", [math.inf, -math.inf])
    def test_identity_rejects_infinite_mean(self, mu):
        with pytest.raises(LinkDomainError, match="identity link requires -inf < mu < inf"):
            Identity().apply(mu)

    @pytest.mark.parametrize(
        "link, target, domain",
        [
            (Log(), -1.0, "log link requires 0 < {} < inf"),
            (Logit(), 1.3, "logit link requires 0 < {} < 1"),
        ],
    )
    def test_target_checked_against_the_same_domain(self, link, target, domain):
        with pytest.raises(LinkDomainError, match=domain.format("mu")):
            link.apply(target)
        with pytest.raises(LinkDomainError, match=domain.format("target_mean") + f", got {target}"):
            DgpSpec((), link, NormalOutcome(1.0), target)


class TestExtremeStability:
    def test_logit_invert_saturates_without_overflow(self):
        with np.errstate(over="raise", invalid="raise"):
            hi = Logit().invert(800.0)
            lo = Logit().invert(-800.0)
        assert hi == 1.0
        assert lo == 0.0

    def test_logit_invert_moderate_tail_accuracy(self):
        # 1/(1+e^30) without cancellation
        assert Logit().invert(-30.0) == pytest.approx(math.exp(-30.0), rel=1e-12)

    def test_log_invert_overflow_is_inf(self):
        assert Log().invert(800.0) == math.inf
        assert Log().invert(-800.0) == 0.0


class TestLogitSymmetry:
    @settings(max_examples=200, deadline=None)
    @given(st.floats(-50, 50))
    def test_invert_complements(self, eta):
        s = Logit().invert(eta) + Logit().invert(-eta)
        assert abs(s - 1.0) <= 1e-12


def _two_branch_logit_invert(eta):
    """The earlier masked Logit.invert, kept as the bit-exact oracle."""
    e = np.atleast_1d(np.asarray(eta, dtype=float))
    out = np.empty_like(e)
    pos = e >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-e[pos]))
    ex = np.exp(e[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


_LOGIT_EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                2.2250738585072009e-308, -1e-310, 800.0, -800.0]


class TestLogitBranchFree:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=60))
    def test_bit_identical_to_two_branch_form(self, values):
        # the edge values guarantee both signs in every array
        eta = np.array(values + _LOGIT_EDGES)
        new = Logit().invert(eta)
        old = _two_branch_logit_invert(eta)
        assert np.array_equal(np.isnan(new), np.isnan(old))
        finite = ~np.isnan(old)
        assert np.array_equal(new[finite].view(np.int64), old[finite].view(np.int64))

    @pytest.mark.parametrize("eta", _LOGIT_EDGES + [-30.0, 36.7, -745.2])
    def test_scalar_bit_identical(self, eta):
        new = Logit().invert(eta)
        old = float(_two_branch_logit_invert(eta)[0])
        assert (math.isnan(new) and math.isnan(old)) or new.hex() == old.hex()


def _two_exp_logit_invert(eta):
    """The earlier branch-free Logit.invert, exp(min(e, 0)) / (1 + exp(-|e|)), as the oracle."""
    e = np.asarray(eta, dtype=float)
    den = np.exp(-np.abs(e)) + 1.0
    return np.exp(np.minimum(e, 0.0)) / den


_ANY_DOUBLE = st.integers(-(2**63), 2**63 - 1).map(lambda i: float(np.int64(i).view(np.float64)))
_ONE_EXP_EDGES = _LOGIT_EDGES + [-math.nan, float(np.int64(0x7FF0000000000001).view(np.float64)),
                                 float(np.int64(-1).view(np.float64)), -2.2250738585072014e-308]


class TestLogitOneExp:
    """One exp pass, max(t, [e >= 0]) / (1 + t) with t = exp(-|e|), against the two-exp form."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.floats(), _ANY_DOUBLE, st.sampled_from(_ONE_EXP_EDGES)), max_size=70))
    def test_bits_equal_the_two_exp_form_on_every_path(self, values):
        # NaN sign and payload included, so the views compare every bit
        eta = np.array(values + _ONE_EXP_EDGES)
        old = _two_exp_logit_invert(eta).view(np.int64)
        assert np.array_equal(Logit().invert(eta).view(np.int64), old)
        out, scratch = np.full_like(eta, 7.0), np.full_like(eta, 7.0)
        assert Logit().invert(eta, out=out, scratch=scratch) is out
        assert np.array_equal(out.view(np.int64), old)
        in_place = eta.copy()
        Logit().invert(in_place, out=in_place)
        assert np.array_equal(in_place.view(np.int64), old)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.floats(), _ANY_DOUBLE, st.sampled_from(_ONE_EXP_EDGES)))
    def test_scalar_bits_equal_the_two_exp_form(self, eta):
        new = Logit().invert(eta)
        assert type(new) is float
        old = _two_exp_logit_invert(np.array([eta]))
        assert np.array([new]).view(np.int64)[0] == old.view(np.int64)[0]


class TestOutContract:
    @pytest.mark.parametrize("link", LINKS, ids=lambda l: l.name)
    def test_returns_out_and_leaves_input(self, link):
        eta = np.array([-800.0, -2.5, -0.0, 0.0, 1.5, 800.0])
        before = eta.copy()
        out = np.full_like(eta, 7.0)
        with np.errstate(over="ignore"):
            result = link.invert(eta, out=out)
            expected = link.invert(before)
        assert result is out
        assert np.array_equal(eta, before)
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("link", LINKS, ids=lambda l: l.name)
    @pytest.mark.parametrize(
        "eta", [0.25, np.float64(0.25), np.array(0.25)], ids=["float", "np.float64", "0-d"]
    )
    def test_scalar_and_0d_give_python_float(self, link, eta):
        assert type(link.invert(eta)) is float


Z = Term("z", Normal(0.3, 1.0), 2.0)


class TestBalancedMoment:
    """The moment of eta each link balances, and the mean that the summed moments give."""

    def test_identity_balances_the_mean(self):
        assert Identity().moment(Z) == Z.mean()
        assert Identity().exact_mean(-1.25) == -1.25

    def test_log_balances_the_log_exp_moment(self):
        assert Log().moment(Z) == math.log(Z.exp_moment())
        assert Log().exact_mean(0.0) == 1.0

    def test_log_moment_beyond_a_double(self):
        assert Log().moment(Term("z", Normal(0.0, 1.0), 40.0)) == math.inf
        assert Log().moment(Term("c", Categorical((0.0, 1.0)), (-800.0,))) == -math.inf
        assert Log().exact_mean(800.0) == math.inf

    def test_logit_has_none(self):
        assert Logit().moment(Z) is None
        assert Logit().exact_mean(0.0) is None


class TestFiniteVariance:
    """Whether g^-1(b0 + eta) has a finite variance, as a sample's se assumes."""

    @pytest.mark.parametrize("link", [Identity(), Logit()], ids=lambda l: l.name)
    def test_identity_and_logit_always(self, link):
        assert link.finite_variance((Z, Term("g", Gamma(1.0, 1.5), 1.0)))

    def test_log_needs_every_doubled_exp_moment(self):
        assert Log().finite_variance(())
        assert Log().finite_variance((Z, Term("g", Gamma(1.0, 1.5), 0.7)))
        # E[exp(2z)] underflows to 0, which is finite
        assert Log().finite_variance((Term("z", Normal(-800.0, 1.0), 1.0),))
        # E[exp(z)] is finite but E[exp(2z)] is not (2 * 1.0 >= rate 1.5)
        assert not Log().finite_variance((Z, Term("g", Gamma(1.0, 1.5), 1.0)))
        # E[exp(316 z)] = e^49928 overflows a double
        assert not Log().finite_variance((Term("z", Normal(0.0, 1.0), 158.0),))
        assert not Log().finite_variance((Term("c", Categorical((0.5, 0.5)), (400.0,)),))


class TestRegistry:
    def test_lookup(self):
        for name in ("identity", "log", "logit"):
            assert link_by_name(name).name == name

    def test_unknown_name(self):
        with pytest.raises(Exception, match="unknown link"):
            link_by_name("probit")
