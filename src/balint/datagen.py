"""Dataset generation from a solved data-generating mechanism."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distributions import RngRows, Streams
from .errors import SpecError
from .intercept import DgpSpec, draw_terms

__all__ = ["Column", "Dataset", "generate"]


@dataclass(frozen=True)
class Column:
    """One covariate's draws: level indices for a categorical, reals otherwise."""

    name: str
    values: np.ndarray


@dataclass(frozen=True)
class Dataset:
    columns: tuple[Column, ...]
    outcome: np.ndarray
    clamp_count: int

    @property
    def n(self) -> int:
        return int(self.outcome.shape[-1])


def generate(
    dgp: DgpSpec,
    beta0: float,
    n: int,
    rng: Streams,
    work: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
) -> Dataset:
    """Draw covariates, form mu = g^-1(beta0 + beta'x), then the outcome.

    Covariates draw in declaration order, each from its own substream, so
    adding a term never perturbs the draws of earlier columns; the outcome
    noise has its own substream for the same reason. dgp.outcome.draw draws
    the outcome from mu; BernoulliOutcome.draw applies the clamp policy.

    rng is one RngStream, or a block of them (RngStream.rows): then every
    array is (rows, n), row r is the dataset rng's r-th stream gives alone,
    to the bit, and clamp_count is the block's. Each standard draw runs per
    row, from that row's stream, and every other step (shift and scale,
    Term.eta, the eta sums, link.invert, the outcome transform and the clamp
    count) once over the block, so that a block of replicates pays numpy's
    per-call cost and these layers once. A BernoulliOutcome that rejects a
    mean names the first dataset's row that has one, as generating the
    datasets one by one would. run_scenario generates a cell's replicates
    this way; one RngStream is the block of one.

    work = (eta, x, y), three float64 arrays shaped like the outcome, makes
    generation allocate nothing of size n (run_scenario passes views of a
    per-thread set). The covariates are drawn into x, with y as scratch,
    the first term's share of eta straight into eta and each later one's
    into y, mu is taken into y and the outcome drawn into x. All draws share
    x, so the Dataset has columns=(), and its outcome is x itself, valid
    until the next use of work. The outcome and clamp_count are the same to
    the bit either way.
    """
    n = int(n)
    if n < 1:
        raise SpecError("dataset size must be at least 1")
    shape = (len(rng), n) if isinstance(rng, RngRows) else (n,)
    eta, x, y = work or (np.empty(shape), None, None)
    draws = draw_terms(dgp.terms, n, rng.child(0), eta, (x, y), float(beta0))
    if work is None:
        columns = tuple(Column(t.name, v) for t, v in zip(dgp.terms, draws))
        x, y = np.empty(shape), np.empty(shape)
    else:
        columns = ()  # each draw was a view of x, overwritten by the next
    mu = dgp.link.invert(eta, out=y, scratch=x)
    outcome, clamp_count = dgp.outcome.draw(mu, eta, rng.child(1), x)
    return Dataset(columns=columns, outcome=outcome, clamp_count=clamp_count)
