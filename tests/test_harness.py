import concurrent.futures
import dataclasses
import hashlib
import io
import math
import os
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import balint.expectation as expectation_mod
import balint.harness as harness_mod
import balint.intercept as intercept_mod
from balint import (
    Bernoulli,
    BernoulliOutcome,
    CSV_COLUMNS,
    Categorical,
    Cauchy,
    ConfigError,
    DgpSpec,
    ExactEnumeration,
    Gamma,
    GridConfig,
    Identity,
    Log,
    Logit,
    MgfDomainError,
    MonteCarlo,
    Normal,
    NormalOutcome,
    OutOfRangeError,
    RngStream,
    Scenario,
    SpecError,
    Term,
    UniformContinuous,
    expand_grid,
    generate,
    run_grid,
    run_scenario,
    scenario_stream,
    summarize,
    write_csv,
)

EXPOSURE = Term("x", Categorical(probs=(0.5, 0.35, 0.15)), (0.2, -0.2))


def small_grid(name="g", link=Log(), outcome=NormalOutcome(0.1), **kw):
    defaults = dict(
        name=name,
        link=link,
        outcome=outcome,
        exposure=EXPOSURE,
        covariate_axis=(("z", Bernoulli(0.8)), ("z", Normal(0.0, 1.0))),
        beta2_axis=(1.0, 2.0),
        target_axis=(0.3, 0.5),
        n=200,
        replicates=8,
        master_seed=7,
        solver="log_closed_form",
    )
    defaults.update(kw)
    return GridConfig(**defaults)


class TestScenarioStream:
    def test_keyed_by_sha256_of_id(self):
        digest = hashlib.sha256(b"g/normal/1.0/0.5").digest()
        expected = RngStream(9, (int.from_bytes(digest[:8], "big"),))
        assert scenario_stream(9, "g/normal/1.0/0.5") == expected

    def test_distinct_ids_distinct_streams(self):
        a = scenario_stream(9, "g/normal/1.0/0.5")
        b = scenario_stream(9, "g/normal/1.0/0.7")
        assert a != b
        assert not np.array_equal(a.generator().random(32), b.generator().random(32))

    def test_stable_across_calls(self):
        a = scenario_stream(3, "cell").generator().random(16)
        b = scenario_stream(3, "cell").generator().random(16)
        assert np.array_equal(a, b)


class TestScenarioValidation:
    def _dgp(self):
        return DgpSpec((EXPOSURE,), Log(), NormalOutcome(0.1), 0.5)

    def test_replicates_floor(self):
        with pytest.raises(SpecError, match="replicates"):
            Scenario("s", self._dgp(), "log_closed_form", n=10, replicates=1, master_seed=0)

    def test_unknown_solver(self):
        with pytest.raises(SpecError, match="unknown solver"):
            Scenario("s", self._dgp(), "newton", n=10, replicates=5, master_seed=0)

    def test_empty_id(self):
        with pytest.raises(SpecError):
            Scenario("", self._dgp(), "numeric", n=10, replicates=5, master_seed=0)

    def test_n_floor(self):
        with pytest.raises(SpecError, match="scenario s: n must be at least 1"):
            Scenario("s", self._dgp(), "log_closed_form", n=0, replicates=5, master_seed=0)

    @pytest.mark.parametrize("n, replicates, name", [(2.5, 5, "n"), (10, 3.0, "replicates"), ("10", 5, "n")])
    def test_non_integral_sizes_are_refused(self, n, replicates, name):
        with pytest.raises(SpecError, match=f"scenario s: {name} must be an integer"):
            Scenario("s", self._dgp(), "log_closed_form", n=n, replicates=replicates, master_seed=0)

    def test_a_non_integral_master_seed_is_refused_when_built(self):
        # it used to reach the stream layer at run_scenario as a bare TypeError
        with pytest.raises(SpecError, match="scenario s: master_seed must be an integer, got 2.5"):
            run_scenario(Scenario("s", self._dgp(), "log_closed_form", n=10, replicates=2, master_seed=2.5))

    def test_numpy_integer_sizes_are_taken(self):
        s = Scenario("s", self._dgp(), "log_closed_form", n=np.int64(10), replicates=np.int32(3), master_seed=0)
        assert len(run_scenario(s).replicate_means) == 3

    def test_a_grid_of_non_integral_n_raises_an_error_not_a_type_error(self):
        # run_grid's callers (simulate) map an Error to its exit code; a TypeError escaped them
        with pytest.raises(SpecError, match="n must be an integer, got 2.5"):
            run_grid(small_grid(n=2.5))


class TestRunScenario:
    def test_no_covariate_bias_within_monte_carlo_error(self):
        dgp = DgpSpec((), Identity(), NormalOutcome(0.1), 0.3)
        s = Scenario("flat", dgp, "linear_scale", n=500, replicates=50, master_seed=5)
        r = run_scenario(s)
        assert r.beta0 == 0.3
        assert r.bias == r.achieved_mean - 0.3
        assert abs(r.bias) <= 4 * r.bias_se
        assert r.clamp_rate == 0.0
        assert len(r.replicate_means) == 50

    def test_log_cell_hits_target(self):
        dgp = DgpSpec(
            (EXPOSURE, Term("z", Bernoulli(0.8), 1.0)), Log(), NormalOutcome(0.1), 0.5
        )
        s = Scenario("cell", dgp, "log_closed_form", n=2000, replicates=100, master_seed=11)
        r = run_scenario(s)
        assert abs(r.bias) <= 4 * r.bias_se
        assert r.warnings == frozenset()

    def test_replicates_look_independent(self):
        dgp = DgpSpec((), Identity(), NormalOutcome(1.0), 0.0)
        s = Scenario("iid", dgp, "linear_scale", n=50, replicates=400, master_seed=13)
        m = np.array(run_scenario(s).replicate_means)
        lag1 = np.corrcoef(m[:-1], m[1:])[0, 1]
        assert abs(lag1) < 4 / math.sqrt(m.size)

    def test_deterministic(self):
        dgp = DgpSpec((EXPOSURE,), Log(), NormalOutcome(0.1), 0.5)
        s = Scenario("det", dgp, "log_closed_form", n=100, replicates=5, master_seed=3)
        assert run_scenario(s) == run_scenario(s)

    def test_error_names_scenario(self):
        dgp = DgpSpec((Term("g", Gamma(1.0, 1.5), 2.0),), Log(), NormalOutcome(0.1), 0.5)
        s = Scenario("bad/cell", dgp, "log_closed_form", n=10, replicates=2, master_seed=0)
        with pytest.raises(MgfDomainError, match="scenario bad/cell"):
            run_scenario(s)

    def test_clamped_bernoulli_cell_underschoots(self):
        # pushing a bernoulli mean to 0.9 through a strong normal covariate
        # forces mu past 1 often; clamping can only pull the mean down
        dgp = DgpSpec(
            (EXPOSURE, Term("z", Normal(0.0, 1.0), 3.0)), Log(), BernoulliOutcome(), 0.9
        )
        s = Scenario("clamped", dgp, "log_closed_form", n=2000, replicates=50, master_seed=17)
        r = run_scenario(s)
        assert r.clamp_rate > 0.0
        assert r.bias < -0.01


class TestReplicateWorkspace:
    def test_second_run_peaks_below_one_n_array(self):
        import tracemalloc

        n = 20_000
        for outcome in (NormalOutcome(0.1), BernoulliOutcome()):
            dgp = DgpSpec((EXPOSURE, Term("z", Normal(0.0, 1.0), 1.0)), Log(), outcome, 0.3)
            s = Scenario("warm", dgp, "log_closed_form", n=n, replicates=4, master_seed=5)
            first = run_scenario(s)
            tracemalloc.start()
            try:
                again = run_scenario(s)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert again == first
            assert peak < n * 8 // 2, outcome

    def test_solves_after_generation_at_another_n_reuse_the_solver_arrays(self):
        dgp = DgpSpec((EXPOSURE, Term("z", Bernoulli(0.8), 1.0)), Log(), NormalOutcome(0.1), 0.5)
        s = Scenario(
            "mc", dgp, "numeric", n=100, replicates=2, master_seed=3, engine=MonteCarlo(5000)
        )
        sets = _workspace_sets_in_a_new_thread(lambda: run_scenario(s), lambda: run_scenario(s))
        # one set of max(n_mc, rows * n) = max(5000, 2 * 100), lent to the solve and the block
        assert [a.size for a in sets[0]] == [5000] * 3
        assert all(a is b for a, b in zip(sets[1], sets[0]))

    def test_a_solve_and_a_larger_block_share_one_set_of_the_larger_size(self):
        import tracemalloc

        dgp = DgpSpec((EXPOSURE, Term("z", Normal(0.0, 1.0), 1.0)), Log(), NormalOutcome(0.1), 0.3)
        # n_mc above rows * n = 2 * 100, then rows * n = 1 * 100,000 above n_mc
        solve_bound = Scenario("a", dgp, "numeric", n=100, replicates=2, master_seed=5, engine=MonteCarlo(40_000))
        block_bound = Scenario("b", dgp, "numeric", n=100_000, replicates=2, master_seed=5, engine=MonteCarlo(2000))
        results, peaks = [], []

        def run_both():
            results.append((run_scenario(solve_bound), run_scenario(block_bound)))

        def repeat_both_traced():
            for s in (solve_bound, block_bound):
                tracemalloc.start()
                try:
                    results.append(run_scenario(s))
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()

        sets = _workspace_sets_in_a_new_thread(run_both, repeat_both_traced)
        assert [a.size for a in sets[0]] == [100_000] * 3
        assert all(a is b for a, b in zip(sets[1], sets[0]))
        assert results[1:] == list(results[0])
        # a new set would be three arrays of 40,000 or of 100,000 elements
        assert max(peaks) < 100_000 * 8 // 2, peaks

    def test_replicates_equal_the_allocating_generate(self):
        dgp = DgpSpec((EXPOSURE, Term("z", Normal(0.0, 1.0), 3.0)), Log(), BernoulliOutcome(), 0.9)
        s = Scenario("clamped", dgp, "log_closed_form", n=500, replicates=6, master_seed=17)
        r = run_scenario(s)
        rep_base = scenario_stream(17, "clamped").child(1)
        fresh = [generate(dgp, r.beta0, 500, rep_base.child(k)) for k in range(6)]
        assert r.replicate_means == tuple(float(ds.outcome.mean()) for ds in fresh)
        assert r.clamp_rate == sum(ds.clamp_count for ds in fresh) / (6 * 500)
        assert r.clamp_rate > 0.0


def _workspace_sets_in_a_new_thread(*steps):
    """expectation.WORKSPACE's arrays after each step, run in order on one new thread, whose set starts empty."""
    sets = []

    def run():
        for step in steps:
            step()
            sets.append(expectation_mod.WORKSPACE.arrays)

    worker = threading.Thread(target=run)
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive()
    assert len(sets) == len(steps)
    return sets


_BLOCK_TERMS = [
    Term("b", Bernoulli(0.3), 1.5),
    Term("u", UniformContinuous(-1.0, 2.0), -0.7),
    Term("z", Normal(0.2, 1.0), 0.5),
    Term("g", Gamma(2.0, 3.0), 0.4),
    Term("c", Cauchy(0.0, 0.1), 0.01),
    Term("k", Categorical((0.2, 0.0, 0.5, 0.3), "effect"), (0.3, -0.1, 0.4)),
]


def _replicates_one_by_one(s, beta0):
    """What each replicate gives alone: (means, clamp_rate), or the first replicate's error."""
    rep_base = scenario_stream(s.master_seed, s.id).child(1)
    try:
        fresh = [generate(s.dgp, beta0, s.n, rep_base.child(k)) for k in range(s.replicates)]
    except OutOfRangeError as e:
        return type(e), str(e)
    means = np.array([ds.outcome.mean() for ds in fresh])
    return means.tobytes(), sum(ds.clamp_count for ds in fresh) / (s.replicates * s.n)


def _replicates_in_blocks(s, beta0):
    sol = intercept_mod.InterceptSolution(beta0, "numeric", 0.0, 0, 0.0)
    with mock.patch.object(harness_mod, "_solve", lambda s: sol):
        try:
            r = run_scenario(s)
        except OutOfRangeError as e:
            return type(e), str(e)
    return np.array(r.replicate_means).tobytes(), r.clamp_rate


class TestReplicateBlocks:
    """run_scenario generates a cell's replicates in blocks of rows, to the bits of one replicate at a time."""

    @given(
        terms=st.lists(st.sampled_from(_BLOCK_TERMS), min_size=1, max_size=3, unique_by=lambda t: t.name),
        link=st.sampled_from([Identity(), Log(), Logit()]),
        outcome=st.sampled_from([NormalOutcome(0.25), BernoulliOutcome(), BernoulliOutcome("reject_out_of_range")]),
        beta0=st.floats(-2.0, 1.0),
        n=st.sampled_from([1, 2, 7, 100, 8193, 20001]),
        replicates=st.integers(2, 11),
        budget=st.sampled_from([harness_mod.BLOCK_ELEMENTS, 16]),
        seed=st.integers(0, 2**64 - 1),
    )
    @example(
        terms=[_BLOCK_TERMS[0]], link=Identity(), outcome=BernoulliOutcome("reject_out_of_range"),
        beta0=-0.5, n=7, replicates=5, budget=16, seed=3,
    )
    @settings(derandomize=True, max_examples=60, deadline=None)
    def test_blocks_equal_one_replicate_at_a_time(self, terms, link, outcome, beta0, n, replicates, budget, seed):
        # a budget of 16 elements puts 16, 8, 2 and 1 rows in a block at n = 1, 2, 7 and 100,
        # and the default's 6 and 2 at n = 8193 and 20001, so the last block is often short
        dgp = DgpSpec(tuple(terms), link, outcome, 0.5)
        s = Scenario("blocks", dgp, "numeric", n=n, replicates=replicates, master_seed=seed)
        # a Cauchy or log-link mean may be inf, whose se is NaN: bits are compared, not values
        with np.errstate(all="ignore"), mock.patch.object(harness_mod, "BLOCK_ELEMENTS", budget):
            assert _replicates_in_blocks(s, beta0) == _replicates_one_by_one(s, beta0)

    def test_a_rejected_mean_is_named_within_the_first_replicate_that_has_one(self):
        # mu is 0 or 1.5: at this seed replicate 0 draws no 1, replicate 1 first at its row 2
        dgp = DgpSpec((_BLOCK_TERMS[0],), Identity(), BernoulliOutcome("reject_out_of_range"), 0.5)
        s = Scenario("reject", dgp, "numeric", n=4, replicates=6, master_seed=3)
        expected = _replicates_one_by_one(s, 0.0)
        assert expected == (OutOfRangeError, "row 2: mean 1.5 outside [0, 1] (eta = 1.5); generation rejected")
        assert generate(dgp, 0.0, 4, scenario_stream(3, "reject").child(1).child(0)).clamp_count == 0
        assert _replicates_in_blocks(s, 0.0) == expected

    @pytest.mark.parametrize("n", [1, 7, 8192, 8193, 10_000, 20_001, 100_000])
    def test_a_rows_sum_over_n_is_its_mean(self, n):
        # run_scenario takes each replicate's mean from one reduction over its
        # block; numpy does not promise it sums a row of a 2-D array in the
        # order it sums a 1-D array, which this checks above its 8,192-element buffer
        block = RngStream(17).generator().standard_normal((3, n)) * 1e3
        sums = np.add.reduce(block, axis=1)
        assert (sums / n).tobytes() == np.array([row.mean() for row in block]).tobytes()
        assert block.mean(axis=1).tobytes() == (sums / n).tobytes()


def test_import_loads_no_multiprocessing_or_openssl():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(harness_mod.__file__).resolve().parents[1])
    script = (
        "import sys, threading\n"
        "from balint import cli, harness\n"
        "unwanted = ('multiprocessing', '_hashlib', 'concurrent.futures', 'numpy.random')\n"
        "print(sorted(m for m in unwanted if m in sys.modules), threading.active_count())\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    loaded = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout.strip()
    assert loaded == "[] 1"


class TestGridValidation:
    def test_empty_name(self):
        with pytest.raises(ConfigError, match="grid name must be nonempty"):
            small_grid(name="")

    def test_empty_axis(self):
        with pytest.raises(ConfigError, match="axis"):
            small_grid(beta2_axis=())

    def test_duplicate_axis_distributions(self):
        with pytest.raises(ConfigError, match="distinct"):
            small_grid(covariate_axis=(("z", Bernoulli(0.8)), ("z", Bernoulli(0.2))))

    @pytest.mark.parametrize(
        "axes, message",
        [
            (dict(beta2_axis=(1.0, 2.0, 1)), "beta2_axis repeats the value 1.0"),
            (dict(target_axis=(0.5, 0.5)), "target_axis repeats the value 0.5"),
        ],
        ids=["beta2", "target"],
    )
    def test_repeated_axis_value(self, axes, message):
        # a repeated value is one scenario id run twice on the same streams
        with pytest.raises(ConfigError, match=message):
            small_grid(**axes)

    @pytest.mark.parametrize("axis", ["beta2_axis", "target_axis"])
    @pytest.mark.parametrize(
        "bad, message",
        [(math.nan, "must be finite, got nan"), ("0.5", "must be a number, got '0.5'"), (True, "must be a number")],
        ids=["nan", "str", "bool"],
    )
    def test_axis_value_not_a_finite_number(self, axis, bad, message):
        # a string used to raise a bare TypeError, and True was taken as 1.0
        with pytest.raises(ConfigError, match=f"{axis} {message}"):
            small_grid(**{axis: (0.5, bad)})

    def test_numpy_scalar_axis_values_taken(self):
        cfg = small_grid(beta2_axis=(np.int64(1), np.float64(2.0)), target_axis=(np.float64(0.5),))
        assert [c.scenario.id for c in expand_grid(cfg)][:2] == ["g/bernoulli/1.0/0.5", "g/bernoulli/2.0/0.5"]

    def test_negative_workers(self):
        with pytest.raises(ConfigError, match="workers"):
            small_grid(workers=-1)

    @pytest.mark.parametrize("field, value", [("master_seed", 2.5), ("workers", 1.5), ("master_seed", "7")])
    def test_a_non_integral_seed_or_worker_count_is_a_config_error(self, field, value):
        # run_grid used to raise a bare TypeError, from the stream layer or the process pool
        with pytest.raises(ConfigError, match=f"{field}.* must be an integer, got {value!r}"):
            run_grid(small_grid(**{field: value}))


class TestExpandGrid:
    def test_cell_count_and_order(self):
        cells = expand_grid(small_grid())
        assert len(cells) == 8
        ids = [c.scenario.id for c in cells]
        assert ids == sorted(ids)
        assert ids[0] == "g/bernoulli/1.0/0.3"

    def test_id_tokens_are_canonical_floats(self):
        cells = expand_grid(small_grid(beta2_axis=(2,), target_axis=(0.5,)))
        assert {c.scenario.id for c in cells} == {
            "g/bernoulli/2.0/0.5",
            "g/normal/2.0/0.5",
        }

    def test_cells_share_exposure_and_differ_in_z(self):
        for cell in expand_grid(small_grid()):
            terms = cell.scenario.dgp.terms
            assert terms[0] == EXPOSURE
            assert terms[1].beta == cell.beta2
            assert cell.scenario.dgp.target_mean == cell.target_mean


class TestRunGrid:
    def test_statuses_and_summary(self):
        cfg = small_grid(
            covariate_axis=(("z", Bernoulli(0.8)), ("z", Gamma(1.0, 1.5))),
            beta2_axis=(1.0, 2.0),
            target_axis=(0.5,),
        )
        rows = run_grid(cfg)
        by_id = {r.scenario_id: r for r in rows}
        # gamma rate 1.5: beta2=1 converges, beta2=2 diverges
        assert by_id["g/gamma/2.0/0.5"].status == "skipped"
        assert by_id["g/gamma/2.0/0.5"].warnings == ("divergent_exp_moment",)
        assert by_id["g/gamma/2.0/0.5"].beta0 is None
        assert by_id["g/gamma/1.0/0.5"].status == "ok"
        assert by_id["g/bernoulli/1.0/0.5"].status == "ok"
        s = summarize(rows)
        assert s["ok"] == 3 and s["skipped"] == 1 and s["error"] == 0
        assert s["max_bias_ratio"] > 0.0

    def test_bias_definition_exact(self):
        for r in run_grid(small_grid()):
            if r.status == "ok":
                assert r.bias == r.achieved_mean - r.target_mean

    def test_worker_counts_agree_byte_for_byte(self):
        cfg = small_grid()
        buffers = []
        for w in (1, 2):
            buf = io.StringIO()
            write_csv(run_grid(dataclasses.replace(cfg, workers=w)), buf)
            buffers.append(buf.getvalue())
        assert buffers[0] == buffers[1]

    @pytest.mark.parametrize("workers,expected", [(500, 4), (2, 2), (0, 1)])
    def test_pool_never_exceeds_cell_count(self, monkeypatch, workers, expected):
        # a stand-in pool: records its size, maps in-process, starts nothing;
        # workers 0 counts the one CPU this process may run on, not the host's
        sizes = []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        cfg = small_grid(beta2_axis=(1.0,), workers=workers)
        rows = run_grid(cfg)
        assert sizes == ([expected] if expected > 1 else [])
        assert rows == run_grid(dataclasses.replace(cfg, workers=1))

    @pytest.mark.parametrize("cpu_count,expected", [(None, 1), (3, 3)])
    def test_usable_cpus_without_an_affinity_call(self, monkeypatch, cpu_count, expected):
        # where os has no sched_getaffinity (macOS, Windows), the host's count
        # stands in, and one CPU where even that is unknown
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        assert harness_mod._usable_cpus() == expected

    def test_single_cell_grid_runs_in_process(self, monkeypatch):
        def no_pool(max_workers):
            raise AssertionError("a one-cell grid must not start a pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        cfg = small_grid(
            covariate_axis=(("z", Bernoulli(0.8)),), beta2_axis=(1.0,), target_axis=(0.5,), workers=8
        )
        assert [r.status for r in run_grid(cfg)] == ["ok"]

    def test_bernoulli_outcome_bias_grows_with_target_once_clamped(self):
        cfg = small_grid(
            outcome=BernoulliOutcome(),
            covariate_axis=(("z", Normal(0.0, 1.0)),),
            beta2_axis=(3.0,),
            target_axis=(0.5, 0.7, 0.9),
            n=2000,
            replicates=50,
        )
        rows = [r for r in run_grid(cfg) if r.status == "ok"]
        assert len(rows) == 3
        clamped = [r for r in sorted(rows, key=lambda r: r.target_mean) if r.clamp_rate > 0]
        biases = [r.bias for r in clamped]
        assert len(clamped) >= 2
        assert all(b < 0 for b in biases)
        assert biases == sorted(biases, reverse=True)  # more negative as target rises


def _csv(rows) -> str:
    buf = io.StringIO()
    write_csv(rows, buf)
    return buf.getvalue()


# Numeric grids whose serial run hands every other cell's solve to a helper
# thread when they use the Monte Carlo engine; the exact one runs on this thread.
HELPER_GRIDS = {
    "mc_logit": dict(
        link=Logit(),
        outcome=BernoulliOutcome(),
        covariate_axis=(("z", Bernoulli(0.8)), ("z", Normal(0.0, 1.0)), ("z", Gamma(1.0, 1.5))),
        engine=MonteCarlo(4000),
    ),
    # the four Cauchy cells have no mean, so each is skipped before it draws
    "mc_identity_cauchy": dict(
        link=Identity(),
        covariate_axis=(
            ("z", Bernoulli(0.8)),
            ("z", Cauchy(0.0, 1.0)),
            ("z", UniformContinuous(-1.0, 3.0)),
        ),
        engine=MonteCarlo(4000),
    ),
    # one cell, and an odd count of cells: the helper has none, or one fewer
    "mc_logit_one_cell": dict(
        link=Logit(),
        outcome=BernoulliOutcome(),
        covariate_axis=(("z", Normal(0.0, 1.0)),),
        beta2_axis=(1.0,),
        target_axis=(0.5,),
        engine=MonteCarlo(4000),
    ),
    "mc_logit_three_cells": dict(
        link=Logit(),
        outcome=BernoulliOutcome(),
        covariate_axis=(("z", Bernoulli(0.8)), ("z", Normal(0.0, 1.0)), ("z", Gamma(1.0, 1.5))),
        beta2_axis=(1.0,),
        target_axis=(0.3,),
        engine=MonteCarlo(4000),
    ),
    "exact_logit": dict(
        link=Logit(),
        outcome=BernoulliOutcome(),
        covariate_axis=(("z", Bernoulli(0.8)),),
        target_axis=(0.3, 0.5, 0.7),
        engine=ExactEnumeration(),
    ),
}


def helper_grid(name, **kw):
    return small_grid(solver="numeric", n=50, replicates=2, **{**HELPER_GRIDS[name], **kw})


def _each_cell_alone(cfg) -> str:
    return _csv([harness_mod._run_cell(c) for c in expand_grid(cfg)])


def _record_threads(monkeypatch):
    """{scenario id: thread name} for each _solve call, and each _replicate call."""
    solved, replicated = {}, {}
    solve, replicate = harness_mod._solve, harness_mod._replicate

    def recording_solve(s):
        solved[s.id] = threading.current_thread().name
        return solve(s)

    def recording_replicate(s, sol):
        replicated[s.id] = threading.current_thread().name
        return replicate(s, sol)

    monkeypatch.setattr(harness_mod, "_solve", recording_solve)
    monkeypatch.setattr(harness_mod, "_replicate", recording_replicate)
    return solved, replicated


class TestHelperCells:
    @pytest.mark.parametrize("seed", [7, 424242])
    @pytest.mark.parametrize("name", sorted(HELPER_GRIDS))
    def test_serial_bytes_equal_the_pool_and_each_cell_alone(self, name, seed):
        cfg = helper_grid(name, master_seed=seed)
        rows = run_grid(cfg)
        serial = _csv(rows)
        assert serial == _csv(run_grid(dataclasses.replace(cfg, workers=2)))
        # _run_cell cell by cell, outside run_grid, runs every cell on this thread
        assert serial == _each_cell_alone(cfg)
        statuses = [r.status for r in rows]
        assert statuses.count("skipped") == (4 if "cauchy" in name else 0)
        assert "error" not in statuses

    def test_odd_cells_solve_on_the_helper_and_every_replicate_runs_here(self, monkeypatch):
        solved, replicated = _record_threads(monkeypatch)
        solver_sets = set()
        solve = harness_mod._solve

        def recording_sets(s):
            sol = solve(s)
            solver_sets.add(tuple(id(a) for a in expectation_mod.WORKSPACE.arrays))
            return sol

        monkeypatch.setattr(harness_mod, "_solve", recording_sets)
        cfg = helper_grid("mc_logit")
        before = threading.active_count()
        run_grid(cfg)
        assert threading.active_count() == before
        here = threading.current_thread().name
        ids = [c.scenario.id for c in expand_grid(cfg)]
        assert [solved[i] == here for i in ids] == [True, False] * 6
        assert all(solved[i].startswith("balint-cells") for i in ids[1::2])
        assert [replicated[i] for i in ids] == [here] * 12
        # one n_mc set per thread, kept from solve to solve: two in all
        assert len(solver_sets) == 2

        # a Cauchy cell solved on the helper is skipped there, and has no replicates
        solved.clear()
        replicated.clear()
        rows = run_grid(helper_grid("mc_identity_cauchy"))
        cauchy = [k for k, r in enumerate(rows) if "cauchy" in r.scenario_id]
        assert cauchy == [4, 5, 6, 7]
        assert [solved[rows[k].scenario_id] == here for k in cauchy] == [True, False] * 2
        assert rows[5].status == "skipped" and rows[5].warnings == ("undefined_mean",)
        assert not {rows[k].scenario_id for k in cauchy} & set(replicated)

    def test_two_grids_at_once_under_a_short_switch_interval_keep_their_bits(self):
        import sys

        cfgs = [helper_grid(name) for name in ("mc_logit", "mc_identity_cauchy")]
        expected = [_each_cell_alone(cfg) for cfg in cfgs]
        got = [None] * len(cfgs)
        start = threading.Barrier(len(cfgs), timeout=60)

        def run(k):
            start.wait()
            got[k] = _csv(run_grid(cfgs[k]))

        # two grid threads, each with its own helper, on a 2-vCPU box, switching often
        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(cfgs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == expected

    @pytest.mark.parametrize("on_helper", [False, True], ids=["here", "on_helper"])
    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_no_thread_outlives_run_grid(self, monkeypatch, error, on_helper):
        cfg = helper_grid("mc_logit", target_axis=(0.2, 0.4, 0.6, 0.8))
        before = threading.active_count()
        run_grid(cfg)
        assert threading.active_count() == before

        solve = harness_mod._solve
        ids = [c.scenario.id for c in expand_grid(cfg)]
        failing = ids[3] if on_helper else ids[2]  # the second solve of its thread
        solved, failed_on = [], []
        # the helper's solves after its first wait until run_grid has cancelled
        # the queued ones, and the cancel waits until one of them has started
        held, cancelled = threading.Event(), threading.Event()

        def failing_solve(s):
            solved.append(s.id)
            if s.id == failing:
                failed_on.append(threading.current_thread() is not threading.main_thread())
                raise error("not a balint Error")
            if threading.current_thread() is not threading.main_thread() and s.id != ids[1]:
                held.set()
                assert cancelled.wait(timeout=60)
            return solve(s)

        shutdown = concurrent.futures.ThreadPoolExecutor.shutdown

        def cancel_then_join(self, wait=True, *, cancel_futures=False):
            assert held.wait(timeout=60)
            shutdown(self, wait=False, cancel_futures=cancel_futures)
            cancelled.set()
            shutdown(self, wait=wait)

        monkeypatch.setattr(harness_mod, "_solve", failing_solve)
        monkeypatch.setattr(concurrent.futures.ThreadPoolExecutor, "shutdown", cancel_then_join)
        with pytest.raises(error, match="not a balint Error"):
            run_grid(cfg)
        assert failed_on == [on_helper]
        assert threading.active_count() == before
        # the helper's one running solve ended; every queued one was cancelled
        assert sorted(solved) == sorted(ids[:4] + ids[5:6] if on_helper else ids[:4])
        assert len(ids) == 24

    def test_a_grid_that_solves_no_monte_carlo_cell_starts_no_thread(self, monkeypatch):
        def no_executor(*args, **kwargs):
            raise AssertionError("a closed-form grid must not start a helper")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_executor)
        # exact enumeration draws nothing, and a closed form takes no engine
        assert [r.status for r in run_grid(helper_grid("exact_logit"))] == ["ok"] * 6
        assert [r.status for r in run_grid(small_grid(engine=MonteCarlo(4000)))] == ["ok"] * 8


class TestWriteCsv:
    def _rows(self):
        return run_grid(
            small_grid(
                covariate_axis=(("z", Bernoulli(0.8)), ("z", Gamma(1.0, 1.5))),
                beta2_axis=(2.0,),
                target_axis=(0.5,),
            )
        )

    def test_header_pinned(self):
        buf = io.StringIO()
        write_csv(self._rows(), buf)
        header = buf.getvalue().split("\n", 1)[0]
        assert header == ",".join(CSV_COLUMNS)
        assert CSV_COLUMNS[0] == "scenario_id" and CSV_COLUMNS[-1] == "warnings"

    def test_skipped_row_has_empty_value_cells(self):
        buf = io.StringIO()
        write_csv(self._rows(), buf)
        lines = buf.getvalue().strip().split("\n")
        gamma = next(l for l in lines if l.startswith("g/gamma/"))
        cells = gamma.split(",")
        assert cells[CSV_COLUMNS.index("status")] == "skipped"
        for fld in ("beta0", "achieved_mean", "bias", "bias_se", "clamp_rate"):
            assert cells[CSV_COLUMNS.index(fld)] == ""
        assert cells[CSV_COLUMNS.index("warnings")] == "divergent_exp_moment"

    def test_nine_significant_digit_floats(self):
        buf = io.StringIO()
        write_csv(self._rows(), buf)
        ok = next(l for l in buf.getvalue().split("\n") if l.startswith("g/bernoulli/"))
        cells = ok.split(",")
        beta0 = cells[CSV_COLUMNS.index("beta0")]
        assert beta0 == format(float(beta0), ".9g")
        mantissa = beta0.lstrip("-0.").replace(".", "").split("e")[0]
        assert len(mantissa) <= 9

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "grid.csv"
        # a str path and a pathlib.Path (which used to raise TypeError) write the same bytes
        for destination in (str(path), path):
            write_csv(self._rows(), destination)
            raw = path.read_bytes()
            assert b"\r" not in raw
            assert raw.endswith(b"\n")
