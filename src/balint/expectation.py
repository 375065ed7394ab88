"""E[g^-1(b0 + eta)] for the numeric intercept solver, with a certified interval around it.

solve_numeric (intercept.py) bisects on b0 -> E[g^-1(b0 + eta)] - target.
Enumerated takes that expectation exactly over a finite covariate support;
FrozenDraws takes it over a fixed Monte Carlo sample of eta. Each bisection
step asks one yes/no question of the residual (below 0? within tol?), and
with Monte Carlo most answers are plain long before the end. So FrozenDraws
also bounds its exact mean from below and above, on any input, from at most
HIST_BINS runs of its draws, sorted once per solve: about 60 us against about
0.5 ms for a full 100k-draw pass, after a sort of about 0.5 ms. Residual
takes a step's answer from those bounds when both give the same one, and
runs the full pass only when they do not. This is the floating-point filter
of exact geometric predicates (Shewchuk 1997, Discrete Comput. Geom.
18:305-363). Every value a solve keeps comes from a full pass, so its result
is the same to the bit as without the filter.

A Monte Carlo solve works in three n_mc-sized float64 arrays: the frozen
eta, g^-1(b0 + eta), and one scratch, which first holds the sorted draws. It
borrows them from WORKSPACE, which keeps them between solves (Workspace says
why).
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from functools import cached_property
from typing import Callable, Iterator, Optional, Union

import numpy as np

from .links import Link

__all__ = [
    "HIST_BINS",
    "Workspace",
    "WORKSPACE",
    "FrozenDraws",
    "Enumerated",
    "Expectation",
    "Residual",
]

# The Monte Carlo interval filter (FrozenDraws.interval): the most runs the
# sorted draws are cut into, the relative margin, and the largest
# n_mc * |g^-1| for which the exact pass's sum cannot overflow.
HIST_BINS = 4096
INTERVAL_MARGIN = 1e-9
MAX_SUM = 2.0**1020


class Workspace(threading.local):
    """Three float64 arrays of the last n used, one set per thread, lent to one borrower at a time.

    borrow(n) yields three arrays of n elements, each holding whatever the
    last borrower left there. The set is kept across borrows and replaced
    only when n changes. Two instances exist, so that neither user's n
    evicts the other's set: WORKSPACE here holds a Monte Carlo solve's
    (eta, x, mu), and harness.REPLICATE_WORKSPACE a cell's replicates
    (datagen.generate's work). A process running a Monte Carlo grid keeps
    three n_mc arrays resident per thread that has solved, 2.4 MB at the
    default n_mc of 100,000, below the five n_mc arrays a solve used to hold
    at once; one running replicates keeps three n arrays, 240 KB at
    n = 10,000. Allocated per use, arrays of this size go back to the OS
    when freed (glibc unmaps them or trims the heap top), so the next use
    faults every page in again: about 1,650 minor page faults per 100k-draw
    solve, near a third of its time on a 2-vCPU VM, and about 25 per
    10k-row fig1 replicate.

    A borrow made while this thread's set is already lent (a nested solve)
    gets fresh arrays, so two borrowers never share memory. Nothing may keep
    a borrowed array past its with block.
    """

    def __init__(self) -> None:
        self.arrays: tuple[np.ndarray, ...] = ()
        self.lent = False

    @contextmanager
    def borrow(self, n: int) -> Iterator[tuple[np.ndarray, ...]]:
        if self.lent:
            yield tuple(np.empty(n) for _ in range(3))
            return
        if not self.arrays or self.arrays[0].size != n:
            self.arrays = ()  # free the old set before allocating the new one
            self.arrays = tuple(np.empty(n) for _ in range(3))
        self.lent = True
        try:
            yield self.arrays
        finally:
            self.lent = False


WORKSPACE = Workspace()


class FrozenDraws:
    """E[g^-1(b0 + eta)] over a fixed eta sample: an exact pass and a cheap interval.

    work = (x, mu) are two arrays shaped like eta, fresh when not passed; a
    solve passes the ones it borrowed from WORKSPACE. mean(b0) writes
    b0 + eta into mu and takes g^-1 of it there, with x as the inverse's
    scratch, and se() works in x, so no evaluation allocates an array the
    size of eta. mu keeps the last evaluation, which se() reuses when asked
    about the same b0.

    interval(b0) bounds mean(b0) from both sides at a small fraction of its cost.
    """

    def __init__(
        self, link: Link, eta: np.ndarray, work: Optional[tuple[np.ndarray, ...]] = None
    ) -> None:
        self.link = link
        self.eta = eta
        self.x, self.mu = work or (np.empty_like(eta), np.empty_like(eta))
        self.at: Optional[float] = None

    def mean(self, b0: float) -> float:
        np.add(self.eta, b0, out=self.mu)
        self.link.invert(self.mu, out=self.mu, scratch=self.x)
        self.at = b0
        return float(np.mean(self.mu))

    def se(self, b0: float) -> float:
        """mu.std(ddof=1) / sqrt(n) at b0, by numpy's own steps in its order, into x.

        inf or nan, without a warning, where a square or a sum overflows a double.
        """
        if self.at != b0:
            self.mean(b0)
        n = self.mu.size
        with np.errstate(over="ignore", invalid="ignore"):
            mean = np.add.reduce(self.mu, keepdims=True)
            mean /= n
            np.subtract(self.mu, mean, out=self.x)
            np.square(self.x, out=self.x)
            return float(np.sqrt(np.add.reduce(self.x) / (n - 1)) / math.sqrt(n))

    @cached_property
    def blocks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(edges, p, buffer) over runs of ceil(n / HIST_BINS) draws of eta, sorted in x.

        edges[0] and edges[1] hold each run's first and last draw, p its
        share of the draws. Built on the first interval(); the sort leaves mu,
        and the evaluation se() may reuse there, untouched.
        """
        n = self.x.size
        np.copyto(self.x, self.eta)
        self.x.sort()
        first = np.arange(0, n, -(-n // HIST_BINS))
        edges = self.x[np.stack([first, np.append(first[1:], n) - 1])]
        # a run whose draws all equal the previous run's joins it
        keep = np.append(True, edges[0, :-1] != edges[1, 1:])
        edges = edges.compress(keep, axis=1)
        return edges, np.diff(first[keep], append=n) / n, np.empty_like(edges)

    def interval(self, b0: float) -> tuple[float, float]:
        """(lo, hi) with lo <= mean(b0) <= hi on any input.

        It costs g^-1 at the two ends of at most HIST_BINS runs of the sorted
        draws (sorted once, on the first call), not at n_mc draws:
            lo = sum_k p_k g^-1(fl(lower_k + b0))
            hi = sum_k p_k g^-1(fl(upper_k + b0))
        each widened by INTERVAL_MARGIN * max(1, size), where
            size = sum_k p_k max(|g^-1(fl(lower_k + b0))|, |g^-1(fl(upper_k + b0))|)
        bounds the summed magnitudes of both the interval and the exact pass.
          1. Each draw lies, exactly, between its run's first and last draw
             (runs joined into one all hold the same value).
          2. fl(e + b0) is monotone in e (rounding is monotone), so
             lower_k <= e gives fl(lower_k + b0) <= fl(e + b0), the argument
             the exact pass inverts; likewise for upper_k. g^-1 is increasing,
             and each link.invert result is within a few ulps of it.
          3. What is left is rounding: those few ulps, p_k = count / n, and
             the pairwise sums of the exact mean over n_mc terms and of the
             interval over at most HIST_BINS, each off by about
             (log2(n) + 20) u of the summed magnitudes, u = 2^-53. Together
             that is below 1e-14 of size for any n_mc that fits in memory. A
             g^-1 that underflows is off by at most 2^-1074 each, under the
             margin's floor of 1e-9.
        Where size is NaN, infinite, or above 2^1020 / n_mc, so that the exact
        pass's sum could overflow, the interval is (-inf, inf), which decides
        nothing. A NaN draw sorts last, so it makes size NaN.
        """
        edges, p, mu = self.blocks
        np.add(edges, b0, out=mu)
        self.link.invert(mu, out=mu)
        mu *= p
        size = float(np.maximum(abs(mu[0]), abs(mu[1])).sum())
        if not size <= MAX_SUM / self.eta.size:
            return -math.inf, math.inf
        lo, hi = (float(v) for v in mu.sum(axis=1))
        margin = INTERVAL_MARGIN * max(1.0, size)
        return lo - margin, hi + margin


class Enumerated:
    """E[g^-1(b0 + eta)] over a finite support, exactly; its interval is that value."""

    def __init__(self, link: Link, etas: np.ndarray, probs: np.ndarray) -> None:
        self.link = link
        self.etas = etas
        self.probs = probs

    def mean(self, b0: float) -> float:
        return float(self.probs @ np.atleast_1d(self.link.invert(b0 + self.etas)))

    def se(self, b0: float) -> float:
        return 0.0

    def interval(self, b0: float) -> tuple[float, float]:
        value = self.mean(b0)
        return value, value


Expectation = Union[Enumerated, FrozenDraws]


class Residual:
    """f = E[g^-1(b0 + eta)] - target at one b0: bounds first, the exact pass on demand.

    test(holds) answers a predicate monotone in f as the exact f would. When
    holds agrees at both bounds it holds on all of [lo, hi], so the exact
    pass is skipped; otherwise the pass runs and its f replaces the bounds.
    fl(x - target) is monotone, so bounds on the mean give bounds on f. A
    zero-width interval is the exact value.
    """

    def __init__(self, expectation: Expectation, b0: float, target: float) -> None:
        self.expectation = expectation
        self.b0 = b0
        self.target = target
        lo, hi = expectation.interval(b0)
        self.lo, self.hi = lo - target, hi - target
        self.exact = self.lo if lo == hi else None

    def value(self) -> float:
        if self.exact is None:
            self.exact = self.lo = self.hi = self.expectation.mean(self.b0) - self.target
        return self.exact

    def test(self, holds: Callable[[float], bool]) -> bool:
        if self.exact is None and holds(self.lo) == holds(self.hi):
            return holds(self.lo)
        return holds(self.value())
