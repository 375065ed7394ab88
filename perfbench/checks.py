"""Output checks on a grid's result CSV.

check_csv returns the problems it finds, an empty list when the CSV passes.
Three layers of checking, the first two at every seed:

- structure: one row per cell in scenario-id order, the cell's own axis
  values, and the status the cell must have (the log-link grids skip exactly
  their gamma cells with beta2 >= rate; nothing else may be skipped, and no
  cell may error);
- values: every ok row's beta0 is checked by a route independent of the
  solver that produced it (closed form: the exponential moments computed
  here; numeric: the expectation at beta0 over the solver's own frozen
  draws, through expectation_of_mean), and bias = achieved_mean - target;
- bytes: at the config's pinned seed and the benchmark's run size, the
  sha256 of the whole file must equal the pinned digest.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math

from balint import Gamma, Log, MonteCarlo, expectation_of_mean, scenario_stream
from balint.intercept import DEFAULT_TOL_MC

# CSV floats carry 9 significant digits, so a value read back is off by at
# most 5e-9 relative; these tolerances sit well above that and well below
# any error the solvers could make unnoticed.
CLOSED_FORM_RTOL = 1e-7
BIAS_ATOL = 1e-8


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def expected_status(cell) -> str:
    s = cell.scenario
    z = s.dgp.terms[-1].spec
    if isinstance(s.dgp.link, Log) and isinstance(z, Gamma) and cell.beta2 >= z.rate:
        return "skipped"
    return "ok"


def _mgf(spec, t: float) -> float:
    """E[exp(t Z)] for the covariate-axis families, written out independently."""
    if spec.kind == "bernoulli":
        return 1.0 - spec.p + spec.p * math.exp(t)
    if spec.kind == "uniform":
        return (math.exp(t * spec.b) - math.exp(t * spec.a)) / (t * (spec.b - spec.a))
    if spec.kind == "normal":
        return math.exp(spec.mu * t + 0.5 * (spec.sigma * t) ** 2)
    if spec.kind == "gamma":
        return (1.0 - t / spec.rate) ** (-spec.shape)
    raise ValueError(f"no reference moment for '{spec.kind}'")


def _closed_form_gap(dgp, beta0: float) -> float:
    """Relative gap between exp(beta0) E[exp(beta'X)] and the target."""
    moment = 1.0
    for term in dgp.terms:
        if term.spec.kind == "categorical":
            rows = term.spec.rows()
            moment *= sum(p * math.exp(float(r @ term.betas)) for p, r in zip(term.spec.probs, rows))
        else:
            moment *= _mgf(term.spec, term.beta)
    return abs(math.exp(beta0) * moment / dgp.target_mean - 1.0)


def _beta0_problem(cell, beta0: float) -> str | None:
    s = cell.scenario
    if s.solver == "log_closed_form":
        gap = _closed_form_gap(s.dgp, beta0)
        if not gap <= CLOSED_FORM_RTOL:
            return f"beta0 {beta0!r} misses the target by a relative {gap:.3g}"
    elif s.solver == "numeric" and isinstance(s.engine, MonteCarlo):
        tol = DEFAULT_TOL_MC if s.tol is None else s.tol
        rng = scenario_stream(s.master_seed, s.id).child(0)
        value, _ = expectation_of_mean(beta0, s.dgp, engine=s.engine, rng=rng)
        if not abs(value - s.dgp.target_mean) <= 1.01 * tol:
            return f"beta0 {beta0!r} gives mean {value!r}, target {s.dgp.target_mean!r}, tol {tol:g}"
    else:
        raise ValueError(f"no beta0 check for solver '{s.solver}' with engine '{s.engine.name}'")
    return None


def _row_problems(row: dict, cell) -> list[str]:
    s = cell.scenario
    where = s.id
    if row["scenario_id"] != s.id:
        return [f"row for {row['scenario_id']!r} where {s.id!r} belongs"]
    if (row["z_dist"], float(row["beta2"]), float(row["target_mean"])) != (
        cell.z_dist,
        cell.beta2,
        cell.target_mean,
    ):
        return [f"{where}: axis values {row['z_dist']}/{row['beta2']}/{row['target_mean']}"]
    status = expected_status(cell)
    if row["status"] != status:
        return [f"{where}: status {row['status']!r}, expected {status!r} ({row['warnings']})"]
    numeric = ("beta0", "achieved_mean", "bias", "bias_se", "clamp_rate")
    if status == "skipped":
        if any(row[k] for k in numeric) or row["warnings"] != "divergent_exp_moment":
            return [f"{where}: skipped row carries values or the wrong warning"]
        return []
    beta0, achieved, bias, bias_se, clamp_rate = (float(row[k]) for k in numeric)
    problems = []
    if not all(math.isfinite(v) for v in (beta0, achieved, bias, bias_se, clamp_rate)):
        problems.append(f"{where}: non-finite value")
    elif abs(bias - (achieved - s.dgp.target_mean)) > BIAS_ATOL:
        problems.append(f"{where}: bias {bias!r} is not achieved_mean - target")
    elif not (bias_se >= 0.0 and 0.0 <= clamp_rate <= 1.0):
        problems.append(f"{where}: bias_se or clamp_rate out of range")
    else:
        p = _beta0_problem(cell, beta0)
        if p:
            problems.append(f"{where}: {p}")
    return problems


def check_csv(data: bytes, cells, digest: str | None) -> list[str]:
    """Problems with a grid's CSV bytes; digest None skips the byte pin."""
    problems = []
    if digest is not None and sha256(data) != digest:
        problems.append(f"sha256 {sha256(data)} differs from the pinned {digest}")
    try:
        rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"), newline="")))
    except (UnicodeDecodeError, csv.Error) as e:
        return problems + [f"unreadable CSV: {e}"]
    if len(rows) != len(cells):
        return problems + [f"{len(rows)} rows for {len(cells)} cells"]
    for row, cell in zip(rows, cells):
        try:
            problems += _row_problems(row, cell)
        except (TypeError, ValueError) as e:
            # a missing field reads as None, a mangled number fails float()
            problems.append(f"{cell.scenario.id}: unreadable row ({e})")
    return problems
