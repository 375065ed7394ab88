"""Dataset generation from a solved data-generating mechanism."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distributions import RngStream
from .errors import OutOfRangeError, SpecError
from .intercept import DgpSpec, NormalOutcome, draw_terms

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
        return int(self.outcome.shape[0])


def generate(
    dgp: DgpSpec,
    beta0: float,
    n: int,
    rng: RngStream,
    work: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
) -> Dataset:
    """Draw covariates, form mu = g^-1(beta0 + beta'x), then the outcome.

    Covariates draw in declaration order, each from its own substream, so
    adding a term never perturbs the draws of earlier columns; the outcome
    noise has its own substream for the same reason. A Bernoulli outcome runs
    mu through its clamp policy first: clamp_to_unit clips to [0, 1] (in both
    directions) and counts the rows it changed, reject_out_of_range refuses to
    generate through an invalid mean.

    work = (eta, x, y), three float64 arrays of n, makes generation allocate
    nothing of size n (run_scenario passes a per-thread set). The covariates
    are drawn into x, each term's share of eta into y, mu is taken into y
    and the outcome drawn into x. All draws share x, so the Dataset has
    columns=(), and its outcome is x itself, valid until the next use of
    work. The outcome and clamp_count are the same to the bit either way.
    """
    n = int(n)
    if n < 1:
        raise SpecError("dataset size must be at least 1")
    eta, x, y = work or (np.empty(n), None, None)
    eta.fill(float(beta0))
    draws = draw_terms(dgp.terms, n, rng.child(0), eta, (x, y))
    if work is None:
        columns = tuple(Column(t.name, v) for t, v in zip(dgp.terms, draws))
        x, y = np.empty(n), np.empty(n)
    else:
        columns = ()  # each draw was a view of x, overwritten by the next
    mu = dgp.link.invert(eta, out=y, scratch=x)
    out_rng = rng.child(1).generator()
    if isinstance(dgp.outcome, NormalOutcome):
        # numpy's normal(loc, scale) is loc + scale * z, z from the same stream
        outcome = out_rng.standard_normal(n, out=x)
        outcome *= dgp.outcome.sd
        outcome += mu
        clamp_count = 0
    else:
        if dgp.outcome.clamp == "clamp_to_unit":
            # eta is no longer needed: it takes the clipped mean
            p = np.clip(mu, 0.0, 1.0, out=eta)
            clamp_count = int(np.count_nonzero(p != mu))
        else:
            bad = (mu < 0.0) | (mu > 1.0)
            if np.any(bad):
                i = int(np.argmax(bad))
                raise OutOfRangeError(
                    f"row {i}: mean {mu[i]:.6g} outside [0, 1] (eta = {eta[i]:.6g}); "
                    "generation rejected"
                )
            p, clamp_count = mu, 0
        # uniform draws are in [0, 1), so u < p is 1.0 with probability p
        outcome = np.less(out_rng.random(n, out=x), p, out=x)
    return Dataset(columns=columns, outcome=outcome, clamp_count=clamp_count)
