"""E[g^-1(b0 + eta)] for the numeric intercept solver, with a certified interval around it.

solve_numeric (intercept.py) bisects on b0 -> E[g^-1(b0 + eta)] - target.
Enumerated takes that expectation exactly over a finite covariate support;
FrozenDraws takes it over a fixed Monte Carlo sample of eta. Each bisection
step asks one yes/no question of the residual (below 0? within tol?), and
with Monte Carlo most answers are plain long before the end. So FrozenDraws
also bounds its exact mean from below and above, on any input, from a
HIST_BINS-bin histogram of eta: about 40 us against about 0.5 ms for a full
100k-draw pass. Residual takes a step's answer from those bounds when both
give the same one, and runs the full pass only when they do not. This is the
floating-point filter of exact geometric predicates (Shewchuk 1997, Discrete
Comput. Geom. 18:305-363). Every value a solve keeps comes from a full pass,
so its result is the same to the bit as without the filter.

A Monte Carlo solve works in three n_mc-sized float64 arrays: the frozen
eta, g^-1(b0 + eta), and one scratch. It borrows them from WORKSPACE, which
keeps them between solves (Workspace says why).
"""

from __future__ import annotations

import math
import sys
import threading
from contextlib import contextmanager
from functools import cached_property
from typing import Callable, Iterator, Optional, Union

import numpy as np

from .links import Link

__all__ = [
    "HIST_BINS",
    "eta_histogram",
    "Workspace",
    "WORKSPACE",
    "FrozenDraws",
    "Enumerated",
    "Expectation",
    "Residual",
]

# The Monte Carlo interval filter (FrozenDraws.interval): histogram bins,
# the edge slack in bins, the relative margin, and the largest n_mc * |g^-1|
# for which the exact pass's sum cannot overflow.
HIST_BINS = 4096
HIST_SLACK = 2.0**-20
INTERVAL_MARGIN = 1e-9
MAX_SUM = 2.0**1020


def eta_histogram(
    eta: np.ndarray, t: np.ndarray, idx: np.ndarray
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """(edges, p) over the nonempty ones of HIST_BINS equal bins on [eta.min(), eta.max()].

    edges[0] and edges[1] hold each bin's lower and upper edge, widened so
    that every draw counted in a bin lies between them (see FrozenDraws);
    p holds each bin's share of the draws. A zero-width range is one bin of
    zero width. None when the range is not finite (an inf or NaN draw) or too
    narrow for a normal bin width. t (float) and idx (intp) are scratch
    buffers the size of eta.
    """
    e_min, e_max = float(eta.min()), float(eta.max())
    r = e_max - e_min
    if r == 0.0:
        return np.array([[e_min], [e_min]]), np.ones(1)
    w = r / HIST_BINS
    if not (math.isfinite(r) and w >= sys.float_info.min):
        return None
    np.subtract(eta, e_min, out=t)
    t *= HIST_BINS / r
    np.copyto(idx, t, casting="unsafe")
    np.minimum(idx, HIST_BINS - 1, out=idx)
    counts = np.bincount(idx, minlength=HIST_BINS)
    k = np.flatnonzero(counts)
    slack = HIST_SLACK * (1.0 + max(abs(e_min), abs(e_max)) / r)
    # an edge past the double range is +/-inf, which still bounds its draws
    with np.errstate(over="ignore"):
        edges = np.stack([e_min + (k - slack) * w, e_min + (k + 1 + slack) * w])
    return edges, counts[k] / eta.size


class Workspace(threading.local):
    """Three float64 arrays of the last n used, one set per thread, lent to one solve at a time.

    borrow(n) yields (eta, x, mu), each of n elements and holding whatever
    the last borrower left there. The set is kept across solves and replaced
    only when n changes, so a process running a Monte Carlo grid keeps three
    n_mc arrays resident per thread that has solved: 2.4 MB at the default
    n_mc of 100,000. That is below the five n_mc arrays a solve used to hold
    at once. Allocated per solve, arrays this large
    go back to the OS when freed (glibc unmaps them or trims the heap top),
    so the next solve faults every page in again: about 1,650 minor page
    faults per 100k-draw solve, near a third of its time on a 2-vCPU VM.

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
        """mu.std(ddof=1) / sqrt(n) at b0, by numpy's own steps in its order, into x."""
        if self.at != b0:
            self.mean(b0)
        n = self.mu.size
        mean = np.add.reduce(self.mu, keepdims=True)
        mean /= n
        np.subtract(self.mu, mean, out=self.x)
        np.square(self.x, out=self.x)
        return float(np.sqrt(np.add.reduce(self.x) / (n - 1)) / math.sqrt(n))

    @cached_property
    def histogram(self) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """(edges, p, buffer), built on the first interval() with x and mu as scratch."""
        self.at = None  # mu no longer holds an evaluation
        hist = eta_histogram(self.eta, self.x, self.mu.view(np.intp))
        return None if hist is None else (*hist, np.empty_like(hist[0]))

    def interval(self, b0: float) -> tuple[float, float]:
        """(lo, hi) with lo <= mean(b0) <= hi on any input.

        It costs g^-1 at twice the nonempty bins of a histogram of eta (at
        most 2 * HIST_BINS points, built on the first call), not at n_mc draws:
            lo = sum_k p_k g^-1(fl(lower_k + b0))
            hi = sum_k p_k g^-1(fl(upper_k + b0))
        each widened by INTERVAL_MARGIN * max(1, |lo|, |hi|). Write u = 2^-53,
        K = HIST_BINS, R = max - min of eta, w = R / K, M = max(|min|, |max|).
          1. Every draw lies between its bin's edges. The bin index
             floor(fl(fl(e - min) * fl(K / R))) is off the exact position
             K (e - min) / R by at most 4u(K + 1) bins, and the edge arithmetic
             min + (k +/- slack) w by at most u K M / R + 4u(K + 1 + slack)
             bins. The slack of 2^-20 (1 + M / R) bins is over 10^5 times
             their sum.
          2. fl(e + b0) is monotone in e (rounding is monotone), so
             lower_k <= e gives fl(lower_k + b0) <= fl(e + b0), the argument
             the exact pass inverts; likewise for upper_k. g^-1 is increasing,
             and each link.invert result is within a few ulps of it.
          3. What is left is rounding: those few ulps, p_k = count / n, and
             the pairwise sums of the exact mean over n_mc terms and of the
             interval over at most K, each off by about (log2(n) + 20) u of the
             summed magnitudes. Together that is below 1e-14 of the summed
             magnitudes for any n_mc that fits in memory. Under log and logit
             every term is >= 0, so that is 1e-14 of the value; a g^-1 that
             underflows is off by at most 2^-1074 each, under the margin's
             floor of 1e-9. Under identity with terms of one sign it is again
             relative; with both signs every term is at most
             (K + 1 + 2 slack) w in size, so the error is below
             1e-10 (1 + 2 slack) w, while hi - lo >= (1 + 2 slack) w puts the
             margin above 5e-10 (1 + 2 slack) w.
        Where g^-1 at the outermost edges is NaN, infinite, or so large (above
        2^1020 / n_mc) that the exact pass's sum could overflow, the interval
        is (-inf, inf), which decides nothing.
        """
        if self.histogram is None:
            return -math.inf, math.inf
        edges, p, mu = self.histogram
        np.add(edges, b0, out=mu)
        self.link.invert(mu, out=mu)
        limit = MAX_SUM / self.eta.size
        if not (abs(mu[0, 0]) <= limit and abs(mu[1, -1]) <= limit):
            return -math.inf, math.inf
        mu *= p
        lo, hi = (float(v) for v in mu.sum(axis=1))
        margin = INTERVAL_MARGIN * max(1.0, abs(lo), abs(hi))
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
