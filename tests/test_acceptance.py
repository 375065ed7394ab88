"""Acceptance gate: each test checks one release criterion end to end.

These run the real CLI on the bundled configs at desk scale, so the module
takes a few minutes; everything else in the suite stays fast. Each test prints
one PASS/FAIL line (visible with pytest -s or in failure output).
"""

import csv
import functools
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import balint
from balint import (
    Bernoulli,
    Categorical,
    Cauchy,
    DgpSpec,
    Gamma,
    Identity,
    Log,
    Logit,
    MgfDomainError,
    Normal,
    NormalOutcome,
    RngStream,
    Term,
    UniformContinuous,
    generate,
    solve_linear_scale,
    solve_log_closed_form,
    solve_numeric,
)
from balint.cli import main

CONFIGS = resources.files("balint") / "configs"


def _report(number, label):
    def wrap(check):
        @functools.wraps(check)
        def run(*args, **kwargs):
            try:
                check(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} ({label}): FAIL")
                raise
            print(f"ACCEPTANCE {number} ({label}): PASS")

        return run

    return wrap


def _simulate(config_name, out_path, workers):
    code = main(
        [
            "simulate",
            "--config",
            str(CONFIGS / config_name),
            "--out",
            str(out_path),
            "--workers",
            str(workers),
        ]
    )
    assert code == 0, f"simulate exited {code}"


def _read_rows(path):
    with open(path) as f:
        return list(csv.DictReader(f))


@pytest.fixture(scope="module")
def fig1_csvs(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig1")
    paths = {label: out / f"{label}.csv" for label in ("w1", "w1_rerun", "w2", "w8")}
    # the serial rerun runs in a fresh interpreter, alongside the first serial run
    src = str(Path(balint.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    with subprocess.Popen(
        [sys.executable, "-m", "balint", "simulate", "--config", str(CONFIGS / "fig1.yaml"),
         "--out", str(paths["w1_rerun"]), "--workers", "1"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as rerun:
        try:
            _simulate("fig1.yaml", paths["w1"], 1)
            _, err = rerun.communicate(timeout=900)
        finally:
            rerun.kill()  # a no-op once it has exited
    assert rerun.returncode == 0, f"simulate rerun exited {rerun.returncode}: {err}"
    for label, workers in (("w2", 2), ("w8", 8)):
        _simulate("fig1.yaml", paths[label], workers)
    return paths


@pytest.fixture(scope="module")
def suppfig1_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("suppfig1") / "rows.csv"
    _simulate("suppfig1.yaml", path, 1)
    return path


def _bias_bound_holds(row, floor=0.002):
    bias = abs(float(row["bias"]))
    bound = max(4.0 * float(row["bias_se"]), floor)
    return bias <= bound


@_report(1, "normal-outcome grid unbiased")
def test_criterion_1_grid_bias_within_replication_error(fig1_csvs):
    rows = _read_rows(fig1_csvs["w1"])
    assert len(rows) == 180
    ok = [r for r in rows if r["status"] == "ok"]
    skipped = [r for r in rows if r["status"] == "skipped"]
    assert len(ok) == 144 and len(skipped) == 36
    assert not any(r["status"] == "error" for r in rows)
    # the skipped cells are exactly the divergent gamma moments (beta2 >= rate)
    assert all(r["z_dist"] == "gamma" and float(r["beta2"]) >= 1.5 for r in skipped)
    violations = [r["scenario_id"] for r in ok if not _bias_bound_holds(r)]
    assert violations == [], f"bias bound violated in {violations}"


@_report(2, "clamped bernoulli grid undershoots")
def test_criterion_2_clamping_biases_downward(suppfig1_csv):
    rows = _read_rows(suppfig1_csv)
    ok = [r for r in rows if r["status"] == "ok"]
    assert len(ok) == 144
    clamped = [r for r in ok if float(r["clamp_rate"]) > 0.0]
    clean = [r for r in ok if float(r["clamp_rate"]) == 0.0]
    assert clamped, "no clamped cells; the stress grid lost its point"
    assert all(float(r["bias"]) < 0.0 for r in clamped)
    worst = next(r for r in ok if r["scenario_id"] == "suppfig1/normal/3.0/0.9")
    assert abs(float(worst["bias"])) > 0.01
    bad = [r["scenario_id"] for r in clean if not _bias_bound_holds(r)]
    assert bad == [], f"unclamped cells out of bound: {bad}"


def _random_discrete_terms(rng, max_terms=3, beta_scale=1.5):
    terms = []
    for i in range(int(rng.integers(1, max_terms + 1))):
        if rng.random() < 0.5:
            spec = Bernoulli(float(rng.uniform(0.05, 0.95)))
            beta = float(rng.uniform(-beta_scale, beta_scale))
        else:
            p = int(rng.integers(2, 5))
            probs = tuple(rng.dirichlet(np.ones(p)).tolist())
            coding = "reference_cell" if rng.random() < 0.5 else "effect"
            spec = Categorical(probs=probs, coding=coding)
            beta = tuple(float(b) for b in rng.uniform(-beta_scale, beta_scale, p - 1))
        terms.append(Term(f"x{i}", spec, beta))
    return tuple(terms)


@_report(3, "numeric solver matches closed forms")
def test_criterion_3_solver_oracle_equivalence():
    rng = np.random.default_rng(20260821)
    for i in range(100):
        terms = _random_discrete_terms(rng)
        if i % 2 == 0:
            dgp = DgpSpec(terms, Identity(), NormalOutcome(1.0), float(rng.uniform(-2.0, 2.0)))
            reference = solve_linear_scale(dgp).beta0
        else:
            dgp = DgpSpec(terms, Log(), NormalOutcome(1.0), float(rng.uniform(0.2, 3.0)))
            reference = solve_log_closed_form(dgp).beta0
        numeric = solve_numeric(dgp).beta0
        assert abs(numeric - reference) <= 1e-9, (
            f"case {i}: numeric {numeric!r} vs closed form {reference!r}"
        )


@_report(4, "symmetric logit case is exactly centered")
def test_criterion_4_logit_symmetry():
    dgp = DgpSpec(
        (Term("x", Bernoulli(0.5), 1.0),), Logit(), NormalOutcome(1.0), 0.5
    )
    sol = solve_numeric(dgp)
    assert abs(sol.beta0 - (-0.5)) <= 1e-9


MGF_POINTS = {
    Bernoulli(0.8): (-2.0, -0.5, 0.7, 1.3, 2.0),
    UniformContinuous(-1.0, 3.0): (-2.0, -0.5, 0.4, 1.0, 2.5),
    Normal(0.0, 1.0): (-2.0, -1.0, 0.5, 1.0, 2.0),
    Normal(0.3, 1.7): (-1.0, -0.25, 0.5, 1.0, 2.0),
    # keep 2t < rate so the estimator itself has finite variance
    Gamma(2.5, 1.5): (-3.0, -1.0, 0.3, 0.5, 0.7),
    Gamma(1.0, 1.5): (-2.0, -1.0, -0.5, 0.3, 0.7),
}


@_report(5, "closed-form MGFs verified by simulation")
def test_criterion_5_mgf_suite():
    base = RngStream(5150)
    case = 0
    for spec, points in MGF_POINTS.items():
        for t in points:
            # term 0 of the case's stream, as draw_terms would draw it
            vals = np.exp(t * spec.sample(100_000, base.child(case).child(0)))
            case += 1
            estimate = vals.mean()
            se = vals.std(ddof=1) / math.sqrt(vals.size)
            exact = spec.mgf(t)
            assert se > 0.0
            assert abs(estimate - exact) <= 4.0 * se, (
                f"{spec} at t={t}: mc {estimate} vs mgf {exact} (se {se})"
            )
    with pytest.raises(MgfDomainError):
        Gamma(1.0, 1.5).mgf(2.0)
    with pytest.raises(MgfDomainError):
        Cauchy(0.0, 1.0).mgf(1.0)


def _jensen_envelope_term(rng, i):
    kind = int(rng.integers(0, 5))
    sign = -1.0 if rng.random() < 0.5 else 1.0
    mag = float(rng.uniform(0.3, 1.2))
    if kind == 0:
        return Term(f"x{i}", Bernoulli(float(rng.uniform(0.2, 0.8))), sign * mag)
    if kind == 1:
        a = float(rng.uniform(-1.0, 0.0))
        return Term(f"x{i}", UniformContinuous(a, a + float(rng.uniform(1.0, 2.5))), sign * mag)
    if kind == 2:
        spec = Normal(float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0.5, 1.2)))
        return Term(f"x{i}", spec, sign * mag)
    if kind == 3:
        shape = float(rng.uniform(1.0, 2.5))
        rate = float(rng.uniform(1.2, 2.5))
        beta = sign * mag if sign < 0 else min(mag, 0.8 * rate)
        return Term(f"x{i}", Gamma(shape, rate), beta)
    probs = tuple((rng.dirichlet(np.ones(3)) * 0.7 + 0.1).tolist())
    betas = tuple(
        float((-1.0 if rng.random() < 0.5 else 1.0) * rng.uniform(0.3, 1.2))
        for _ in range(2)
    )
    return Term(f"x{i}", Categorical(probs=probs), betas)


@_report(6, "naive linear-scale intercept demonstrably biased")
def test_criterion_6_jensen_gap():
    rng = np.random.default_rng(8128)
    stream = RngStream(8128)
    for i in range(100):
        terms = tuple(
            _jensen_envelope_term(rng, j) for j in range(int(rng.integers(1, 3)))
        )
        target = float(rng.uniform(0.2, 0.7))
        dgp = DgpSpec(terms, Log(), NormalOutcome(0.1), target)
        naive = solve_linear_scale(dgp)
        exact = solve_log_closed_form(dgp)
        assert naive.beta0 > exact.beta0, f"case {i}: Jensen direction violated"
        rep_base = stream.child(i)
        means = np.array(
            [
                generate(dgp, naive.beta0, 10_000, rep_base.child(k)).outcome.mean()
                for k in range(500)
            ]
        )
        bias = means.mean() - target
        bias_se = means.std(ddof=1) / math.sqrt(means.size)
        assert abs(bias) > 4.0 * bias_se, (
            f"case {i}: naive bias {bias:.3g} hides inside noise {bias_se:.3g}"
        )


@_report(7, "coding scheme invariants hold")
def test_criterion_7_coding_properties():
    rng = np.random.default_rng(496)
    for _ in range(1000):
        p = int(rng.integers(2, 7))
        probs = rng.dirichlet(np.ones(p))
        rows = Categorical(probs, coding="weighted_effect").rows()
        assert np.all(np.abs(probs @ rows) <= 1e-12)
    for p in range(2, 7):
        probs = tuple(1.0 / p for _ in range(p))
        betas = tuple(float(b) for b in rng.uniform(-2.0, 2.0, p - 1))
        centred = Term("x", Categorical(probs=probs, coding="effect"), betas).mean()
        assert abs(centred) <= 1e-12
    for i in range(50):
        p = int(rng.integers(2, 6))
        probs = rng.dirichlet(np.ones(p))
        betas = rng.uniform(-1.0, 1.0, p - 1)
        coding = ("reference_cell", "effect", "weighted_effect")[i % 3]
        spec = Categorical(probs=tuple(probs.tolist()), coding=coding)
        exact = Term("x", spec, tuple(betas)).exp_moment()
        levels = spec.sample(1_000_000, RngStream(496, (i,)))
        draws = np.exp(spec.rows()[levels] @ betas)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - exact) <= 4.0 * se


@_report(8, "grid output byte-identical across runs and workers")
def test_criterion_8_determinism(fig1_csvs):
    reference = fig1_csvs["w1"].read_bytes()
    assert len(reference) > 10_000
    for label in ("w1_rerun", "w2", "w8"):
        assert fig1_csvs[label].read_bytes() == reference, f"{label} differs from w1"
