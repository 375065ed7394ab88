import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from balint import (
    Bernoulli,
    Categorical,
    Cauchy,
    Gamma,
    MgfDomainError,
    Normal,
    RngStream,
    SpecError,
    UndefinedMomentError,
    UniformContinuous,
)
from balint.intercept import Term, draw_terms

# Frozen oracles. The MGF spot values were computed by adaptive quadrature of
# exp(t*x) against the density (independent of the closed forms under test);
# quadrature error is below 5e-13 relative on all of them.
CAT_EXP_MOMENT = 1.0503005783177568  # 0.5*e^0 + 0.35*e^0.2 + 0.15*e^-0.2
BERN_EXP_MOMENT_2 = 6.111244879144521  # 0.2 + 0.8*e^2
NORMAL01_MGF_1 = 1.6487212707001282  # e^0.5

QUAD_MGF = {
    ("normal_0.3_1.7", -1.0): 3.142441356839167,
    ("normal_0.3_1.7", -0.25): 1.0154303370196427,
    ("normal_0.3_1.7", 0.5): 1.667374110490571,
    ("normal_0.3_1.7", 1.0): 5.725901475421305,
    ("normal_0.3_1.7", 2.0): 589.9277076584688,
    ("uniform_-1_3", -2.0): 0.9233221683442482,
    ("uniform_-1_3", -0.5): 0.7127955552758491,
    ("uniform_-1_3", 0.4): 1.656123047938068,
    ("uniform_-1_3", 1.0): 4.929414370504055,
    ("uniform_-1_3", 2.5): 180.79603294574395,
    ("gamma_2.5_1.5", -3.0): 0.06415002990998435,
    ("gamma_2.5_1.5", -1.0): 0.27885480092695136,
    ("gamma_2.5_1.5", 0.5): 2.7556759606310797,
    ("gamma_2.5_1.5", 1.0): 15.588457268119926,
    ("gamma_2.5_1.5", 1.4): 871.4212528967158,
}

QUAD_SPECS = {
    "normal_0.3_1.7": Normal(0.3, 1.7),
    "uniform_-1_3": UniformContinuous(-1.0, 3.0),
    "gamma_2.5_1.5": Gamma(2.5, 1.5),
}


class TestRngStream:
    def test_same_descriptor_bitwise_identical(self):
        a = RngStream(123, (4, 5)).generator().random(64)
        b = RngStream(123, (4, 5)).generator().random(64)
        assert np.array_equal(a, b)

    def test_distinct_children_differ(self):
        base = RngStream(9)
        a = base.child(0).generator().random(64)
        b = base.child(1).generator().random(64)
        assert not np.array_equal(a, b)

    def test_child_appends_to_path(self):
        s = RngStream(7).child(3).child(8)
        assert s.master_seed == 7
        assert s.path == (3, 8)

    def test_nested_paths_are_independent_of_flat(self):
        # (1, 2) and (12,) must not collide
        a = RngStream(0, (1, 2)).generator().random(16)
        b = RngStream(0, (12,)).generator().random(16)
        assert not np.array_equal(a, b)

    def test_seed_validation(self):
        with pytest.raises(SpecError):
            RngStream(-1)
        with pytest.raises(SpecError):
            RngStream(2**64)
        with pytest.raises(SpecError):
            RngStream(0, (-3,))

    @given(
        master_seed=st.integers(0, 2**64 - 1),
        path=st.lists(st.integers(0, 2**64 - 1), max_size=6).map(tuple),
    )
    @example(master_seed=0, path=())
    @example(master_seed=2**64 - 1, path=())
    @example(master_seed=0, path=(0,))
    @example(master_seed=2**32, path=(2**32 - 1, 2**32, 0))
    @example(master_seed=2**63 + 5, path=(2**64 - 1, 3, 2**40 + 1))
    def test_generator_is_numpy_spawn_key_seeding(self, master_seed, path):
        # through the constructor, and through child() from the root
        chained = RngStream(master_seed)
        for i in path:
            chained = chained.child(i)
        assert chained == RngStream(master_seed, path)
        for stream in (RngStream(master_seed, path), chained):
            got = stream.generator()
            expected = np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=path))
            assert got.bit_generator.state == expected.bit_generator.state
            assert got.random(3).tolist() == expected.random(3).tolist()

    @given(
        master_seed=st.integers(0, 2**64 - 1),
        path=st.lists(st.integers(0, 2**64 - 1), max_size=4).map(tuple),
        indices=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
        suffix=st.lists(st.integers(0, 2**64 - 1), max_size=3).map(tuple),
    )
    @example(master_seed=0, path=(), indices=[0], suffix=())
    @example(master_seed=2**32, path=(2**32 - 1,), indices=[3, 2**32, 0], suffix=(0, 1))
    @example(master_seed=2**63 + 5, path=(2**64 - 1, 1), indices=[2**64 - 1, 7], suffix=(2**40 + 1,))
    def test_rows_reached_through_child_chains_are_numpy_spawn_key_seeding(self, master_seed, path, indices, suffix):
        # a block's rows, and each child() chain from them, against numpy's
        # own seeding of every row's whole path, and against RngStream's chain
        block = RngStream(master_seed, path).rows(indices)
        for i in suffix:
            block = block.child(i)
        assert len(block) == len(indices)
        for k, got in zip(indices, block.generators()):
            chained = RngStream(master_seed, path).child(k)
            for i in suffix:
                chained = chained.child(i)
            spawn_key = path + (k,) + suffix
            expected = np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=spawn_key))
            assert got.bit_generator.state == expected.bit_generator.state == chained.generator().bit_generator.state
            assert got.random(3).tolist() == expected.random(3).tolist()

    def test_row_indices_are_checked_as_child_checks_them(self):
        with pytest.raises(TypeError):
            RngStream(0).rows([1, 2.5])
        with pytest.raises(SpecError):
            RngStream(0).rows([2**64])
        with pytest.raises(TypeError):
            RngStream(0).rows([1]).child(2.7)
        with pytest.raises(SpecError):
            RngStream(0).rows([1]).child(-1)

    def test_a_row_generator_survives_a_pickle_round_trip(self):
        (got,) = RngStream(5, (2**40,)).rows([1]).generators()
        got.random(2)
        again = pickle.loads(pickle.dumps(got))
        assert again.bit_generator.state == got.bit_generator.state
        assert again.random(4).tolist() == got.random(4).tolist()

    @pytest.mark.parametrize("master_seed, path", [(0, ()), (2**40 + 7, ()), (11, (2**33, 4))])
    def test_spawned_generators_are_numpy_spawns(self, master_seed, path):
        got = RngStream(master_seed, path).generator().spawn(2)
        expected = np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=path)).spawn(2)
        assert [g.random(4).tolist() for g in got] == [g.random(4).tolist() for g in expected]

    def test_generator_survives_a_pickle_round_trip(self):
        # the bit generator pickles its seed sequence too, which must be numpy's own
        got = RngStream(5, (2**40, 1)).generator()
        got.random(2)
        bit_generator = pickle.loads(pickle.dumps(got.bit_generator))
        copies = [pickle.loads(pickle.dumps(got)), np.random.Generator(bit_generator)]
        state, draws = got.bit_generator.state, got.random(4).tolist()
        for again in copies:
            assert again.bit_generator.state == state
            assert again.random(4).tolist() == draws

    def test_float_seed_is_refused_as_numpy_refuses_it(self):
        with pytest.raises(TypeError):
            RngStream(3.0).generator()

    def test_float_child_index_is_refused_as_numpy_refuses_it(self):
        with pytest.raises(TypeError):
            RngStream(0).child(2.7)
        with pytest.raises(TypeError):
            RngStream(0, (2.7,)).generator()
        with pytest.raises(SpecError):
            RngStream(0).child(2**64)

    def test_a_float_seed_or_path_entry_is_refused_when_built(self):
        with pytest.raises(TypeError):
            RngStream(2.5)
        with pytest.raises(TypeError):
            RngStream(0, (2.5,))
        with pytest.raises(TypeError):
            RngStream(0, (1, np.float64(3.0)))

    def test_a_list_path_is_kept_as_a_tuple(self):
        s = RngStream(0, [3])
        assert s.path == (3,)
        assert s.child(1) == RngStream(0, (3, 1))
        assert hash(s) == hash(RngStream(0, (3,)))

    def test_large_hash_sized_path_entries_work(self):
        v = RngStream(1, (2**64 - 1,)).generator().random(4)
        assert v.shape == (4,)


class TestSampling:
    @pytest.mark.parametrize("n", [2.5, "3", np.float64(4.0)])
    def test_a_non_integral_size_is_refused(self, n):
        # 2.5 used to give 2 draws
        with pytest.raises(SpecError, match="sample size must be an integer"):
            Normal(0.0, 1.0).sample(n, RngStream(1))

    def test_degenerate_bernoulli_all_ones(self):
        v = Bernoulli(1.0).sample(5, RngStream(0))
        assert v.tolist() == [1.0, 1.0, 1.0, 1.0, 1.0]

    def test_degenerate_bernoulli_all_zeros(self):
        v = Bernoulli(0.0).sample(5, RngStream(0))
        assert v.tolist() == [0.0, 0.0, 0.0, 0.0, 0.0]

    def test_categorical_level_frequencies(self):
        spec = Categorical(probs=(0.5, 0.35, 0.15))
        lv = spec.sample(10**6, RngStream(2024))
        assert lv.dtype == np.int64
        assert lv.min() >= 0 and lv.max() <= 2
        freqs = np.bincount(lv, minlength=3) / lv.size
        assert np.all(np.abs(freqs - np.array([0.5, 0.35, 0.15])) < 0.005)

    def test_normal_sample_mean(self):
        v = Normal(0.0, 1.0).sample(10**6, RngStream(3))
        assert abs(v.mean()) < 0.01

    def test_uniform_range_and_gamma_positivity(self):
        u = UniformContinuous(-1.0, 3.0).sample(10_000, RngStream(4))
        assert u.min() >= -1.0 and u.max() <= 3.0
        g = Gamma(1.0, 1.5).sample(10_000, RngStream(5))
        assert g.min() >= 0.0
        assert abs(g.mean() - 1.0 / 1.5) < 0.03

    def test_sample_size_validation(self):
        with pytest.raises(SpecError):
            Normal(0.0, 1.0).sample(0, RngStream(0))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Bernoulli(1.2),
            lambda: Bernoulli(-0.1),
            lambda: UniformContinuous(2.0, 2.0),
            lambda: UniformContinuous(3.0, -1.0),
            lambda: Normal(0.0, 0.0),
            lambda: Gamma(0.0, 1.0),
            lambda: Gamma(1.0, -2.0),
            lambda: Cauchy(0.0, 0.0),
            lambda: Categorical(probs=(0.5, 0.6)),
            lambda: Categorical(probs=(0.7, -0.1, 0.4)),
        ],
    )
    def test_invalid_parameters_rejected(self, build):
        with pytest.raises(SpecError):
            build()

    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, -math.inf, -(10**400)], ids=["nan", "inf", "-inf", "int-past-a-double"]
    )
    @pytest.mark.parametrize(
        "cls, params",
        [
            (Bernoulli, {"p": 0.5}),
            (UniformContinuous, {"a": -1.0, "b": 1.0}),
            (Normal, {"mu": 0.0, "sigma": 1.0}),
            (Gamma, {"shape": 1.0, "rate": 1.5}),
            (Cauchy, {"location": 0.0, "scale": 1.0}),
        ],
        ids=lambda v: getattr(v, "kind", None),
    )
    def test_non_finite_parameters_rejected_by_name(self, cls, params, bad):
        for field in params:
            with pytest.raises(SpecError, match=f"{cls.kind} {field} must be finite"):
                cls(**{**params, field: bad})

    @pytest.mark.parametrize("bad", ["1", True, None, np.array(1.0)], ids=["str", "bool", "none", "array"])
    @pytest.mark.parametrize(
        "cls, params",
        [
            (Bernoulli, {"p": 0.5}),
            (UniformContinuous, {"a": -1.0, "b": 1.0}),
            (Normal, {"mu": 0.0, "sigma": 1.0}),
            (Gamma, {"shape": 1.0, "rate": 1.5}),
            (Cauchy, {"location": 0.0, "scale": 1.0}),
        ],
        ids=lambda v: getattr(v, "kind", None),
    )
    def test_non_numeric_parameters_rejected_by_name(self, cls, params, bad):
        # "1" used to raise a bare TypeError, and True was taken as 1.0
        for field in params:
            with pytest.raises(SpecError, match=re.escape(f"{cls.kind} {field} must be a number, got {bad!r}")):
                cls(**{**params, field: bad})

    def test_numpy_scalar_parameters_taken_as_they_are(self):
        spec = Normal(np.float64(0.5), np.int64(2))
        assert spec.mu == 0.5 and spec.sigma == 2 and type(spec.sigma) is np.int64

    @pytest.mark.parametrize("probs", [("0.5", "0.5"), (True, False), (True, 0.0), (0.5, None, 0.5)])
    def test_non_numeric_probs_rejected(self, probs):
        # the first three used to be converted by numpy and taken
        with pytest.raises(SpecError, match="categorical: probs must be numbers"):
            Categorical(probs=probs)

    def test_numpy_scalar_probs_taken(self):
        assert Categorical(probs=(np.float64(0.25), np.int64(0), 0.75)).probs == (0.25, 0.0, 0.75)

    @pytest.mark.parametrize("probs", [(), ((0.5, 0.5),)])
    def test_probs_not_a_nonempty_vector_rejected(self, probs):
        with pytest.raises(SpecError, match="probs must be a nonempty vector"):
            Categorical(probs=probs)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_probs_rejected(self, bad):
        with pytest.raises(SpecError, match="probs"):
            Categorical(probs=(bad, 0.5, 0.5))


def searchsorted_levels(probs, u):
    """The binary-search form Categorical.sample replaced, kept as its oracle."""
    cum = np.cumsum(np.asarray(probs))
    return np.minimum(np.searchsorted(cum, u, side="right"), len(probs) - 1).astype(np.int64)


class _FixedUniforms:
    """Stands in for an RngStream whose generator's random(n) returns given uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def generator(self):
        return self

    def random(self, n, out=None):
        assert n == self.u.size
        if out is None:
            return self.u.copy()
        out[...] = self.u
        return out


@st.composite
def level_probs(draw):
    """1 to 12 level probabilities, some zero (first, middle, last), some short of 1."""
    p = draw(st.integers(1, 12))
    w = np.array(draw(st.lists(st.integers(0, 1000), min_size=p, max_size=p)), dtype=float)
    for i in draw(st.sets(st.sampled_from([0, p // 2, p - 1]))):
        w[i] = 0.0
    assume(w.sum() > 0.0)
    probs = w / w.sum()
    # up to 2^-40 (9.1e-13) short of 1, inside the 1e-12 the constructor allows,
    # so that the cumsum tops out below 1.0
    probs *= 1.0 - draw(st.sampled_from([0.0, 2.0**-52, 2.0**-40]))
    return tuple(float(v) for v in probs)


class TestCategoricalThresholdCount:
    @given(
        probs=level_probs(),
        n=st.integers(1, 2000),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(probs=(0.1,) * 10, n=1000, seed=0)  # cumsum ends at 0.9999999999999999
    @settings(max_examples=300, deadline=None)
    def test_equals_searchsorted_on_the_same_stream(self, probs, n, seed):
        lv = Categorical(probs=probs).sample(n, RngStream(seed))
        expected = searchsorted_levels(probs, RngStream(seed).generator().random(n))
        assert lv.dtype == np.int64
        assert lv.min() >= 0 and lv.max() <= len(probs) - 1
        assert np.array_equal(lv, expected)

    @given(probs=level_probs(), extra=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20))
    @example(probs=(0.1,) * 10, extra=[])
    @settings(max_examples=300, deadline=None)
    def test_equals_searchsorted_at_the_thresholds(self, probs, extra):
        # uniforms on, just below and just above every cumsum entry, plus the
        # ends of [0, 1): the top of the cumsum and the gap above it included
        cum = np.cumsum(np.asarray(probs))
        edges = np.concatenate([cum, np.nextafter(cum, 0.0), np.nextafter(cum, 1.0)])
        u = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], edges[edges < 1.0], extra])
        lv = Categorical(probs=probs).sample(u.size, _FixedUniforms(u))
        assert lv.dtype == np.int64
        assert lv.min() >= 0 and lv.max() <= len(probs) - 1
        assert np.array_equal(lv, searchsorted_levels(probs, u))

    @given(
        p=st.integers(2, 600),
        zeros=st.lists(st.integers(0, 599), max_size=20),
        n=st.integers(1, 500),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(p=257, zeros=[], n=500, seed=0)  # the first level count past a byte
    @example(p=300, zeros=[0, 150, 299], n=500, seed=1)
    @settings(max_examples=100, deadline=None)
    def test_counts_past_a_byte_equal_searchsorted(self, p, zeros, n, seed):
        # above 256 levels the count is kept in uint16, not uint8
        w = np.ones(p)
        w[[i for i in zeros if i < p]] = 0.0
        assume(w.sum() > 0.0)
        probs = tuple(float(v) for v in w / w.sum())
        buf = np.empty(n)
        lv = Categorical(probs=probs).sample(n, RngStream(seed), out=buf)
        expected = searchsorted_levels(probs, RngStream(seed).generator().random(n))
        assert lv.dtype == np.int64
        assert np.shares_memory(lv, buf)
        assert np.array_equal(lv, expected)


class TestMean:
    def test_bernoulli(self):
        # a finite spec's mean is its term's, a sum over the term's points
        assert Term("b", Bernoulli(0.8), 1.0).mean() == 0.8

    def test_uniform_midpoint(self):
        assert UniformContinuous(-1.0, 3.0).mean() == 1.0

    def test_gamma(self):
        assert Gamma(2.0, 4.0).mean() == 0.5

    def test_cauchy_has_no_mean(self):
        with pytest.raises(UndefinedMomentError):
            Cauchy(0.0, 1.0).mean()


def exp_moment(spec, t):
    """E[exp(tX)]: a finite spec's from its term's points (Term.exp_moment), a continuous one's MGF."""
    return Term("x", spec, 1.0).exp_moment(t) if hasattr(spec, "support") else spec.mgf(t)


class TestMgf:
    @pytest.mark.parametrize(
        "spec",
        [
            Bernoulli(0.35),
            UniformContinuous(-1.0, 3.0),
            Normal(0.3, 1.7),
            Gamma(2.5, 1.5),
            Cauchy(0.0, 1.0),
        ],
    )
    def test_t_zero_is_one(self, spec):
        assert exp_moment(spec, 0.0) == 1.0

    def test_normal_standard_at_one(self):
        assert Normal(0.0, 1.0).mgf(1.0) == pytest.approx(NORMAL01_MGF_1, rel=1e-14)

    @pytest.mark.parametrize("key,t", sorted(QUAD_MGF))
    def test_against_quadrature(self, key, t):
        spec = QUAD_SPECS[key]
        assert spec.mgf(t) == pytest.approx(QUAD_MGF[(key, t)], rel=5e-12)

    @pytest.mark.parametrize("t", [1e-300, -1e-17, 1e-9, -0.2499, 0.2499])
    def test_uniform_near_zero_keeps_its_digits(self, t):
        # the difference of exponentials cancels near t = 0: at t = 1e-17 it gave 0
        a, b = -1.0, 3.0
        series = math.fsum(
            t**k * (b ** (k + 1) - a ** (k + 1)) / ((b - a) * math.factorial(k + 1)) for k in range(40)
        )
        assert UniformContinuous(a, b).mgf(t) == pytest.approx(series, rel=1e-15)

    def test_bernoulli_two_point_form(self):
        assert Term("b", Bernoulli(0.35), 1.3).exp_moment() == pytest.approx(
            0.65 + 0.35 * math.exp(1.3), rel=1e-14
        )

    def test_bernoulli_without_mass_at_one(self):
        # exp(800) overflows a double, but a point of probability 0 adds nothing
        assert Term("b", Bernoulli(0.0), 800.0).exp_moment() == 1.0
        assert Term("b", Bernoulli(0.0), -800.0).exp_moment() == 1.0
        assert Term("b", Bernoulli(1e-300), 800.0).exp_moment() == math.inf

    def test_gamma_domain_error(self):
        with pytest.raises(MgfDomainError):
            Gamma(1.0, 1.5).mgf(2.0)
        with pytest.raises(MgfDomainError):
            Gamma(1.0, 1.5).mgf(1.5)  # boundary diverges too

    def test_cauchy_no_mgf(self):
        # an infinite E[exp(tX)], as for a gamma past its rate
        with pytest.raises(MgfDomainError, match="no MGF"):
            Cauchy(0.0, 1.0).mgf(1.0)
        with pytest.raises(MgfDomainError, match="no MGF"):
            Cauchy(0.0, 1.0).mgf(-0.2)
        assert Cauchy(0.0, 1.0).mgf(0.0) == 1.0


@st.composite
def _mgf_cases(draw):
    kind = draw(st.sampled_from(["bernoulli", "uniform", "normal", "gamma"]))
    t = draw(
        st.floats(1e-3, 3.0).flatmap(lambda v: st.sampled_from([v, -v]))
    )
    if kind == "bernoulli":
        spec = Bernoulli(draw(st.floats(0.05, 0.95)))
    elif kind == "uniform":
        a = draw(st.floats(-3.0, 1.0))
        spec = UniformContinuous(a, a + draw(st.floats(0.1, 4.0)))
    elif kind == "normal":
        spec = Normal(draw(st.floats(-2.0, 2.0)), draw(st.floats(0.1, 2.0)))
    else:
        spec = Gamma(draw(st.floats(0.3, 3.0)), draw(st.floats(0.5, 3.0)))
        if t >= spec.rate:
            t = -t
    return spec, t


class TestJensenDirection:
    @settings(max_examples=200, deadline=None)
    @given(_mgf_cases())
    def test_mgf_strictly_exceeds_exp_of_mean(self, case):
        spec, t = case
        # strict for every nondegenerate distribution and t != 0; |t| >= 1e-3
        # keeps the gap, which is O(var * t^2), above float resolution
        assert exp_moment(spec, t) > math.exp(t * Term("x", spec, 1.0).mean())

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_degenerate_bernoulli_equality(self, p):
        for t in (-1.0, 0.5, 2.0):
            term = Term("b", Bernoulli(p), t)
            assert term.exp_moment() == pytest.approx(math.exp(term.mean()), rel=1e-15)


def mc_exp_moment(terms, n, rng):
    """(mean, se) of exp(eta) over n draws of the terms, drawn as a replicate draws them."""
    eta = np.zeros(n)
    draw_terms(terms, n, rng, eta)
    vals = np.exp(eta)
    return vals.mean(), vals.std(ddof=1) / math.sqrt(n)


class TestMcExpMoment:
    """Draws through draw_terms and Term.eta reproduce the closed-form moments."""

    def test_zero_betas_exact_one(self):
        terms = [Term("z", Normal(0.0, 1.0), 0.0), Term("b", Bernoulli(0.5), 0.0)]
        assert mc_exp_moment(terms, 1000, RngStream(1)) == (1.0, 0.0)

    def test_normal_matches_mgf(self):
        estimate, se = mc_exp_moment([Term("z", Normal(0.0, 1.0), 1.0)], 10**5, RngStream(6))
        assert se > 0
        assert abs(estimate - NORMAL01_MGF_1) <= 4 * se

    def test_bernoulli_matches_enumeration(self):
        estimate, se = mc_exp_moment([Term("b", Bernoulli(0.8), 2.0)], 10**5, RngStream(7))
        assert abs(estimate - BERN_EXP_MOMENT_2) <= 4 * se

    def test_categorical_block_matches_direct_sum(self):
        term = Term("k", Categorical(probs=(0.5, 0.35, 0.15)), (0.2, -0.2))
        estimate, se = mc_exp_moment([term], 10**5, RngStream(8))
        assert abs(estimate - CAT_EXP_MOMENT) <= 4 * se

class TestSampleReproducibility:
    @pytest.mark.parametrize(
        "spec",
        [
            Bernoulli(0.8),
            UniformContinuous(-1.0, 3.0),
            Normal(0.0, 1.0),
            Gamma(1.0, 1.5),
            Cauchy(0.0, 1.0),
            Categorical(probs=(0.5, 0.35, 0.15)),
        ],
    )
    def test_identical_stream_identical_draws(self, spec):
        a = spec.sample(256, RngStream(77, (1, 2)))
        b = spec.sample(256, RngStream(77, (1, 2)))
        c = spec.sample(256, RngStream(77, (1, 3)))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


_NUMPY_SAMPLERS = [
    (Bernoulli(0.3), lambda g, n: (g.random(n) < 0.3).astype(float)),
    (UniformContinuous(-1.0, 3.0), lambda g, n: g.uniform(-1.0, 3.0, n)),
    (Normal(0.7, 2.5), lambda g, n: g.normal(0.7, 2.5, n)),
    (Gamma(1.3, 1.5), lambda g, n: g.gamma(1.3, 1.0 / 1.5, n)),
    (Cauchy(-2.0, 0.4), lambda g, n: -2.0 + 0.4 * g.standard_cauchy(n)),
]


class TestSampleRows:
    """Over a block of streams each spec fills row r from the r-th stream, to the bits of that stream alone."""

    @pytest.mark.parametrize(
        "spec", [*(spec for spec, _ in _NUMPY_SAMPLERS), Categorical((0.2, 0.0, 0.5, 0.3))], ids=lambda v: v.kind
    )
    @pytest.mark.parametrize("n", [1, 7, 8193])
    def test_each_row_equals_its_stream_alone(self, spec, n):
        base = RngStream(41, (2**33, 1))
        block = base.rows([0, 5, 2**32 + 1]).child(0)
        fresh = spec.sample(n, block)
        out, scratch = np.full((3, n), np.nan), np.full((3, n), -1e300)
        into = spec.sample(n, block, out=out, scratch=scratch)
        assert fresh.shape == into.shape == (3, n)
        for r, k in enumerate([0, 5, 2**32 + 1]):
            alone = spec.sample(n, base.child(k).child(0))
            assert fresh[r].tobytes() == into[r].tobytes() == alone.tobytes()


class TestSampleIntoBuffer:
    """sample(out=) fills the caller's buffer with the bits numpy's own sampler gives."""

    @pytest.mark.parametrize("spec, numpy_sampler", _NUMPY_SAMPLERS, ids=lambda v: getattr(v, "kind", ""))
    @pytest.mark.parametrize("n", [1, 7, 4099])
    def test_bits_equal_numpy_sampler_with_and_without_out(self, spec, numpy_sampler, n):
        rng = RngStream(31, (n,))
        expected = numpy_sampler(rng.generator(), n)
        out = np.full(n, 9.5)
        assert spec.sample(n, rng, out=out) is out
        assert out.tobytes() == expected.tobytes()
        assert spec.sample(n, rng).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("probs", [(1.0,), (0.5, 0.35, 0.15), (0.1,) * 10])
    def test_categorical_levels_are_an_int64_view_of_out(self, probs):
        spec = Categorical(probs=probs)
        out = np.full(4099, 9.5)
        lv = spec.sample(4099, RngStream(32), out=out)
        assert lv.dtype == np.int64 and np.shares_memory(lv, out)
        assert np.array_equal(lv, spec.sample(4099, RngStream(32)))
