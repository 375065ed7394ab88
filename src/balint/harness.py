"""Monte Carlo replication harness.

Runs scenario grids, measures the bias of the achieved marginal outcome mean
against its target, and writes one CSV row per grid cell. Determinism is the
central contract: every random stream is keyed to (master_seed, sha256 of the
scenario id, replicate index), results aggregate in scenario-id order, and the
output bytes are therefore identical whatever the worker count. Python's
builtin hash() is never used for keying (it is salted per process).
"""

from __future__ import annotations

import csv
import functools
import io
import math
import os
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .datagen import generate
from .distributions import CovariateSpec, RngStream, check_choice, check_int, check_real
from .errors import ConfigError, Error, MgfDomainError, SpecError, UndefinedMomentError
from .expectation import WORKSPACE
from .intercept import (
    DgpSpec,
    Engine,
    ExactEnumeration,
    InterceptSolution,
    MonteCarlo,
    OutcomeFamily,
    SOLVER_NAMES,
    Solver,
    Term,
    solve,
)
from .links import Link

__all__ = [
    "Scenario",
    "ScenarioResult",
    "GridConfig",
    "GridRow",
    "CSV_COLUMNS",
    "scenario_stream",
    "run_scenario",
    "expand_grid",
    "run_grid",
    "write_csv",
    "summarize",
]


def scenario_stream(master_seed: int, scenario_id: str) -> RngStream:
    # imported here, so that importing balint loads no OpenSSL
    import hashlib

    digest = hashlib.sha256(scenario_id.encode("utf-8")).digest()
    return RngStream(master_seed, (int.from_bytes(digest[:8], "big"),))


@dataclass(frozen=True)
class Scenario:
    id: str
    dgp: DgpSpec
    solver: str
    n: int
    replicates: int
    master_seed: int
    engine: Engine = ExactEnumeration()
    tol: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.id:
            raise SpecError("scenario id must be nonempty")
        check_int(self.n, f"scenario {self.id}: n", 1)
        # a standard error needs at least 2 replicates
        check_int(self.replicates, f"scenario {self.id}: replicates", 2)
        check_int(self.master_seed, f"scenario {self.id}: master_seed", 0)
        check_choice(self.solver, SOLVER_NAMES, "solver")

    @property
    def stream(self) -> RngStream:
        """The scenario's root stream: the solver draws from child(0), the replicates from child(1)."""
        return scenario_stream(self.master_seed, self.id)


@dataclass(frozen=True)
class ScenarioResult:
    scenario_id: str
    beta0: float
    achieved_mean: float
    bias: float
    bias_se: float
    clamp_rate: float
    replicates: int
    warnings: frozenset[str]
    replicate_means: tuple[float, ...]


# The most elements in each of a replicate block's three arrays, where one
# row (n past it) does not already exceed it: 5 rows at n = 10,000, whose
# three arrays take 1.2 MB. Measured on a 2-vCPU Xeon VM (numpy 2.4.6) over
# suppfig1's cells at n = 10,000 and 10 replicates, a replicate took 0.88
# of its one-at-a-time time in blocks of 2 or 3 rows, 0.86 at 4 and
# 0.83-0.85 at 5 or 6: a block pays about 40 us of calls whatever its rows,
# while past about 30,000 elements an array no longer stays in cache.
BLOCK_ELEMENTS = 50_000


def run_scenario(s: Scenario) -> ScenarioResult:
    """Solve beta0 once, then generate and average over the replicates.

    Replicate k draws from substream (master_seed, id hash, 1, k); the solver
    owns substream (master_seed, id hash, 0). The replicates are generated
    in blocks of max(1, BLOCK_ELEMENTS // n) rows, one replicate per row
    (datagen.generate on an RngStream.rows block), each block in (rows, n)
    views of the thread's one expectation.WORKSPACE set, borrowed at
    rows * n for the whole cell, and each row's mean is taken by one
    reduction over the block. Every replicate mean and the clamp count are
    the same to the bit as generating each replicate alone.
    """
    return _replicate(s, _solve(s))


def _solve(s: Scenario) -> InterceptSolution:
    try:
        return solve(s.dgp, s.solver, engine=s.engine, tol=s.tol, rng=s.stream.child(0))
    except Error as e:
        raise type(e)(f"scenario {s.id}: {e}") from None


def _replicate(s: Scenario, sol: InterceptSolution) -> ScenarioResult:
    n = s.n
    rows = max(1, min(s.replicates, BLOCK_ELEMENTS // n))
    means = np.empty(s.replicates)
    clamped = 0
    with WORKSPACE.borrow(rows * n) as work:
        for k in range(0, s.replicates, rows):
            block = s.stream.child(1).rows(range(k, min(k + rows, s.replicates)))
            views = tuple(a[: len(block) * n].reshape(-1, n) for a in work)
            ds = generate(s.dgp, sol.beta0, n, block, views)
            np.add.reduce(ds.outcome, axis=1, out=means[k : k + rows])
            clamped += ds.clamp_count
    means /= n  # each row's sum over n, as ndarray.mean divides it
    achieved = float(means.mean())
    return ScenarioResult(
        scenario_id=s.id,
        beta0=float(sol.beta0),
        achieved_mean=achieved,
        bias=achieved - s.dgp.target_mean,
        bias_se=float(means.std(ddof=1) / math.sqrt(s.replicates)),
        clamp_rate=clamped / (s.replicates * s.n),
        replicates=s.replicates,
        warnings=sol.warnings,
        replicate_means=tuple(float(m) for m in means),
    )


@dataclass(frozen=True)
class GridConfig:
    """Cartesian grid: (covariate axis) x (beta2 axis) x (target axis).

    Every cell shares the link, outcome family, exposure term, solver, and
    sample sizes; the axis covariate's coefficient is beta2.
    """

    name: str
    link: Link
    outcome: OutcomeFamily
    exposure: Term
    covariate_axis: tuple[tuple[str, CovariateSpec], ...]
    beta2_axis: tuple[float, ...]
    target_axis: tuple[float, ...]
    n: int
    replicates: int
    master_seed: int
    solver: Solver
    engine: Engine = ExactEnumeration()
    tol: Optional[float] = None
    workers: int = 1

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("grid name must be nonempty")
        if not (self.covariate_axis and self.beta2_axis and self.target_axis):
            raise ConfigError("every grid axis needs at least one entry")
        kinds = [spec.kind for _, spec in self.covariate_axis]
        if len(set(kinds)) != len(kinds):
            raise ConfigError(f"covariate axis entries must have distinct distributions, got {kinds}")
        # a repeated value would run one scenario id twice, on the same streams
        for axis in ("beta2_axis", "target_axis"):
            seen = set()
            for v in getattr(self, axis):
                v = check_real(v, axis, ConfigError)
                if v in seen:
                    raise ConfigError(f"{axis} repeats the value {v}")
                seen.add(v)
        # refused here, not by each cell's RngStream, which would make every row an error
        if check_int(self.master_seed, "master_seed", 0, ConfigError) >= 2**64:
            raise ConfigError(f"master_seed must be an unsigned 64-bit integer, got {self.master_seed}")
        check_int(self.workers, "workers", 0, ConfigError)  # 0 = auto


class GridCell(NamedTuple):
    scenario: Scenario
    z_dist: str
    beta2: float
    target_mean: float


@dataclass(frozen=True)
class GridRow:
    scenario_id: str
    link: str
    outcome_family: str
    solver: str
    z_dist: str
    beta2: float
    target_mean: float
    beta0: Optional[float]
    achieved_mean: Optional[float]
    bias: Optional[float]
    bias_se: Optional[float]
    clamp_rate: Optional[float]
    n: int
    replicates: int
    master_seed: int
    status: str
    warnings: tuple[str, ...]


CSV_COLUMNS = tuple(f.name for f in fields(GridRow))


def expand_grid(cfg: GridConfig) -> list[GridCell]:
    """All cells of the grid, ordered by scenario id."""
    cells = []
    for zname, zspec in cfg.covariate_axis:
        for beta2 in cfg.beta2_axis:
            for target in cfg.target_axis:
                sid = f"{cfg.name}/{zspec.kind}/{float(beta2)}/{float(target)}"
                dgp = DgpSpec(
                    terms=(cfg.exposure, Term(zname, zspec, float(beta2))),
                    link=cfg.link,
                    outcome=cfg.outcome,
                    target_mean=float(target),
                )
                scenario = Scenario(
                    id=sid,
                    dgp=dgp,
                    solver=cfg.solver,
                    n=cfg.n,
                    replicates=cfg.replicates,
                    master_seed=cfg.master_seed,
                    engine=cfg.engine,
                    tol=cfg.tol,
                )
                cells.append(GridCell(scenario, zspec.kind, float(beta2), float(target)))
    cells.sort(key=lambda c: c.scenario.id)
    return cells


def _run_cell(cell: GridCell, solution: Optional[Callable[[], InterceptSolution]] = None) -> GridRow:
    """The cell's row: run_scenario's result, or the replicates of what solution() returns."""
    s = cell.scenario
    row = functools.partial(
        GridRow,
        scenario_id=s.id,
        link=s.dgp.link.name,
        outcome_family=s.dgp.outcome.family,
        solver=s.solver,
        z_dist=cell.z_dist,
        beta2=cell.beta2,
        target_mean=cell.target_mean,
        n=s.n,
        replicates=s.replicates,
        master_seed=s.master_seed,
    )
    unfinished = dict.fromkeys(("beta0", "achieved_mean", "bias", "bias_se", "clamp_rate"))
    # a cell whose balanced moment does not exist has no intercept; recorded, not dropped
    try:
        r = run_scenario(s) if solution is None else _replicate(s, solution())
    except MgfDomainError:
        return row(**unfinished, status="skipped", warnings=("divergent_exp_moment",))
    except UndefinedMomentError:
        return row(**unfinished, status="skipped", warnings=("undefined_mean",))
    except Error as e:
        return row(**unfinished, status="error", warnings=(f"{type(e).__name__}: {e}",))
    return row(
        beta0=r.beta0,
        achieved_mean=r.achieved_mean,
        bias=r.bias,
        bias_se=r.bias_se,
        clamp_rate=r.clamp_rate,
        status="ok",
        warnings=tuple(sorted(r.warnings)),
    )


def _usable_cpus() -> int:
    """The CPUs this process may run on, where the OS says (os.cpu_count() counts the host's)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_grid(cfg: GridConfig) -> list[GridRow]:
    """Run every cell; rows come back in scenario-id order.

    cfg.workers counts processes: 0 means one per CPU this process may run
    on. Above 1, cells fan out over that many processes, never more than
    there are cells; the output is identical to the sequential run because
    each cell's streams depend only on (master_seed, scenario id) and
    aggregation follows the presorted cell order. In one process the cells
    run in order, except in a grid that solves numerically with the Monte
    Carlo engine: there one helper thread solves the odd-indexed cells, in
    order, while this thread solves the even ones and runs every cell's
    replicates, so that a solve overlaps another solve or a replicate loop.
    (Two threads that both generate replicates are slower than one.) Each
    thread solves in its own Workspace set, so the bits are those of the
    cells run one by one. The helper's queued solves are cancelled, and the
    helper joined, before run_grid returns or raises.
    """
    cells = expand_grid(cfg)
    w = min(cfg.workers or _usable_cpus(), len(cells))
    if w > 1:
        # imported here, so that importing balint loads no multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, len(cells) // (4 * w))
        with ProcessPoolExecutor(max_workers=w) as ex:
            return list(ex.map(_run_cell, cells, chunksize=chunk))
    if cfg.solver != "numeric" or cfg.engine.name != MonteCarlo.name:
        return [_run_cell(cell) for cell in cells]
    # imported here, so that importing balint loads no concurrent.futures
    from concurrent.futures import ThreadPoolExecutor

    helper = ThreadPoolExecutor(1, thread_name_prefix="balint-cells")
    try:
        solved = {k: helper.submit(_solve, cells[k].scenario).result for k in range(1, len(cells), 2)}
        return [_run_cell(cell, solved.get(k)) for k, cell in enumerate(cells)]
    finally:
        # not a with block, whose exit would run every queued solve first
        helper.shutdown(cancel_futures=True)


def _float_text(value: float) -> str:
    return format(value, ".9g")


# one formatter per GridRow field, chosen by its declared type
_CELL_TEXT = {
    "str": str,
    "int": str,
    "float": _float_text,
    "Optional[float]": lambda v: "" if v is None else _float_text(v),
    "tuple[str, ...]": ";".join,
}
_ROW_TEXT = tuple((f.name, _CELL_TEXT[f.type]) for f in fields(GridRow))


def write_csv(rows: list[GridRow], destination: Union[str, os.PathLike, io.TextIOBase]) -> None:
    """Result CSV to a path or an open text file: pinned column order, floats at 9 significant digits, LF."""
    if isinstance(destination, (str, bytes, os.PathLike)):
        with open(destination, "w", newline="") as f:
            write_csv(rows, f)
        return
    w = csv.writer(destination, lineterminator="\n")
    w.writerow(CSV_COLUMNS)
    for r in rows:
        w.writerow([text(getattr(r, name)) for name, text in _ROW_TEXT])


def summarize(rows: list[GridRow]) -> dict:
    """Counts and the worst |bias| / bias_se ratio over the ok rows."""
    ok = [r for r in rows if r.status == "ok"]
    ratios = [abs(r.bias) / r.bias_se for r in ok if r.bias_se and r.bias_se > 0.0]
    return {
        "ok": len(ok),
        "skipped": sum(1 for r in rows if r.status == "skipped"),
        "error": sum(1 for r in rows if r.status == "error"),
        "max_bias_ratio": max(ratios) if ratios else 0.0,
    }
