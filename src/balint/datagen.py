"""Dataset generation from a solved data-generating mechanism."""

from __future__ import annotations

from dataclasses import dataclass

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


def generate(dgp: DgpSpec, beta0: float, n: int, rng: RngStream) -> Dataset:
    """Draw covariates, form mu = g^-1(beta0 + beta'x), then the outcome.

    Covariates draw in declaration order, each from its own substream, so
    adding a term never perturbs the draws of earlier columns; the outcome
    noise has its own substream for the same reason. A Bernoulli outcome runs
    mu through its clamp policy first: clamp_to_unit clips to [0, 1] (in both
    directions) and counts the rows it changed, reject_out_of_range refuses to
    generate through an invalid mean.
    """
    n = int(n)
    if n < 1:
        raise SpecError("dataset size must be at least 1")
    eta = np.full(n, float(beta0))
    draws = draw_terms(dgp.terms, n, rng.child(0), eta)
    columns = [Column(term.name, values) for term, values in zip(dgp.terms, draws)]
    mu = np.atleast_1d(dgp.link.invert(eta))
    out_rng = rng.child(1).generator()
    if isinstance(dgp.outcome, NormalOutcome):
        # numpy's normal(loc, scale) is loc + scale * z, z from the same stream
        y = out_rng.standard_normal(n) * dgp.outcome.sd + mu
        clamp_count = 0
    else:
        if dgp.outcome.clamp == "clamp_to_unit":
            clamped = np.clip(mu, 0.0, 1.0)
            clamp_count = int(np.count_nonzero(clamped != mu))
            y = (out_rng.random(n) < clamped).astype(float)
        else:
            bad = (mu < 0.0) | (mu > 1.0)
            if np.any(bad):
                i = int(np.argmax(bad))
                raise OutOfRangeError(
                    f"row {i}: mean {mu[i]:.6g} outside [0, 1] (eta = {eta[i]:.6g}); "
                    "generation rejected"
                )
            y = (out_rng.random(n) < mu).astype(float)
            clamp_count = 0
    return Dataset(columns=tuple(columns), outcome=y, clamp_count=clamp_count)
