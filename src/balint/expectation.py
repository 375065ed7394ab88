"""E[g^-1(b0 + eta)] for the numeric intercept solver, with a certified interval around it.

solve_numeric (intercept.py) bisects on b0 -> E[g^-1(b0 + eta)] - target.
Enumerated takes that expectation exactly over a finite covariate support;
FrozenDraws takes it over a fixed Monte Carlo sample of eta. Each bisection
step asks one yes/no question of the residual (below 0? within tol?), and
with Monte Carlo most answers are plain long before the end. So FrozenDraws
also bounds its exact mean from below and above, on any input, from runs of
its draws sorted once per solve by their float32 keys (about 0.4-0.5 ms for
100k draws, against about 0.9 ms for a sort of the doubles), at two levels:
about 64 coarse runs (about 5 us) and at most HIST_BINS fine ones (about
25 us), against about 0.5 ms for a full 100k-draw pass (2-vCPU Xeon VM,
numpy 2.4.6). The link sums g^-1 over a level's run ends
(Link.weighted_sums). The logit link uses its tanh form, four numpy calls
in all, where an inverse of seven passes and five reductions would cost
more, mostly in numpy's per-call overhead. Residual takes a step's answer
from the coarse bounds when both give the same one, from the fine bounds
when those do, and runs the full pass only when neither does. This is the
floating-point filter of exact geometric predicates (Shewchuk 1997,
Discrete Comput. Geom. 18:305-363). Every value a solve keeps comes from a
full pass, so its result is the same to the bit as without the filter.

A Monte Carlo solve works in three n_mc-sized float64 arrays: the frozen
eta, g^-1(b0 + eta), and one scratch, whose first half first holds the
sorted float32 keys. It borrows them from WORKSPACE, one set per thread,
kept between solves and shared with the thread's replicate blocks
(Workspace says why).
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from functools import cached_property
from typing import Callable, Iterator, Optional, Union

import numpy as np

from .errors import SpecError
from .links import Link

__all__ = [
    "HIST_BINS",
    "COARSE_RUNS",
    "Workspace",
    "WORKSPACE",
    "FrozenDraws",
    "Enumerated",
    "Expectation",
    "Residual",
]

# The Monte Carlo interval filter (FrozenDraws.interval): the most runs the
# sorted draws are cut into, how many of them a coarse run joins, the
# relative margin, and the largest n_mc * |g^-1| for which the exact pass's
# sum cannot overflow.
HIST_BINS = 4096
COARSE_RUNS = 64
INTERVAL_MARGIN = 1e-9
MAX_SUM = 2.0**1020


def allocate(n: int) -> np.ndarray:
    """np.empty(n) of float64, or a SpecError naming n where numpy cannot allocate it."""
    try:
        return np.empty(n)
    except (ValueError, MemoryError):  # past what numpy can address, or what memory holds
        raise SpecError(f"cannot allocate an array of {n} float64 values") from None


class Workspace(threading.local):
    """Three float64 arrays, one set per thread, lent to one borrower at a time.

    borrow(n) yields views of the first n elements of each array, holding
    whatever the last borrower left there. The set is kept across borrows
    and replaced only by a borrow of more elements, so a thread keeps the
    largest set it has borrowed. WORKSPACE is the one instance, and it lends
    every n-sized array: a Monte Carlo solve's (eta, x, mu) at n_mc, and a
    block of a cell's replicates (datagen.generate's work, borrowed by
    harness.run_scenario at rows * n and viewed as (rows, n)), so neither
    evicts the other's set. A thread keeps three arrays of at most
    max(n_mc, harness.BLOCK_ELEMENTS, n): 2.4 MB at the default n_mc of
    100,000, below the five n_mc arrays a solve used to hold at once, and
    1.2 MB for a grid without Monte Carlo at n = 10,000 (blocks of 5 rows).
    run_grid's helper thread, which solves every other cell of a Monte
    Carlo grid, holds a second set until the grid ends. Allocated per use,
    arrays of this size go back to the OS when freed (glibc unmaps them or
    trims the heap top), so the next use faults every page in again: about
    1,650 minor page faults per 100k-draw solve, near a third of its time
    on a 2-vCPU VM, and about 25 per 10k-row fig1 replicate.

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
            yield tuple(allocate(n) for _ in range(3))
            return
        if not self.arrays or self.arrays[0].size < n:
            self.arrays = ()  # free the old set before allocating the new one
            self.arrays = tuple(allocate(n) for _ in range(3))
        self.lent = True
        try:
            yield tuple(a[:n] for a in self.arrays)
        finally:
            self.lent = False


WORKSPACE = Workspace()


def _run_ends(lower: np.ndarray, upper: np.ndarray, run: int) -> np.ndarray:
    """[first of lower, last of upper] in each run of run entries, the last run short: (2, runs)."""
    ends = np.empty((2, -(-lower.size // run)), lower.dtype)
    ends[0] = lower[::run]
    ends[1, : lower.size // run] = upper[run - 1 :: run]
    ends[1, -1] = upper[-1]
    return ends


class FrozenDraws:
    """E[g^-1(b0 + eta)] over a fixed eta sample: an exact pass and cheap intervals.

    work = (x, mu) are two arrays shaped like eta, fresh when not passed; a
    solve passes the ones it borrowed from WORKSPACE. mean(b0) writes
    b0 + eta into mu and takes g^-1 of it there, with x as the inverse's
    scratch, and se() works in x, so no evaluation allocates an array the
    size of eta. mu and its sum keep the last evaluation, which se() reuses
    when asked about the same b0.

    interval(b0, level) bounds mean(b0) from both sides at a small fraction
    of its cost; depth is the number of levels, coarse to fine.
    """

    def __init__(
        self, link: Link, eta: np.ndarray, work: Optional[tuple[np.ndarray, ...]] = None
    ) -> None:
        self.link = link
        self.eta = eta
        self.x, self.mu = work or (np.empty_like(eta), np.empty_like(eta))
        self.at: Optional[float] = None
        self.total = math.nan

    def mean(self, b0: float) -> float:
        """np.mean(g^-1(b0 + eta)): its sum, kept for se(), over n."""
        np.add(self.eta, b0, out=self.mu)
        self.link.invert(self.mu, out=self.mu, scratch=self.x)
        self.at = b0
        with np.errstate(over="ignore"):  # an inf sum is the interval's and se's to handle
            self.total = np.add.reduce(self.mu)
        return float(self.total / self.mu.size)

    def se(self, b0: float) -> float:
        """mu.std(ddof=1) / sqrt(n) at b0, by numpy's own steps in its order, into x.

        inf or nan, without a warning, where a square or a sum overflows a double.
        """
        if self.at != b0:
            self.mean(b0)
        n = self.mu.size
        with np.errstate(over="ignore", invalid="ignore"):
            np.subtract(self.mu, self.total / n, out=self.x)
            np.square(self.x, out=self.x)
            return float(np.sqrt(np.add.reduce(self.x) / (n - 1)) / math.sqrt(n))

    @cached_property
    def levels(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """(edges, p, buffer) per level of runs of the sorted draws, coarse to fine.

        The fine level cuts the draws, sorted by their float32 keys in x,
        into runs of ceil(n / HIST_BINS); the coarse one, kept only where
        the fine one has more than 2 * COARSE_RUNS runs, joins each
        COARSE_RUNS of them into one. edges[0] and edges[1] hold each run's
        ends, as doubles: its first and last key, one float32 step out toward
        -inf and +inf; p holds its share of the draws. Built on the first
        interval(); the keys take half of x, and the sort leaves mu, and the
        evaluation se() may reuse there, untouched.
        """
        n = self.x.size
        keys = self.x.view(np.float32)[:n]
        with np.errstate(over="ignore"):
            np.copyto(keys, self.eta, casting="same_kind")
        keys.sort()
        run = -(-n // HIST_BINS)
        ends = _run_ends(keys, keys, run)
        counts = np.full(ends.shape[1], run)
        counts[-1] = n - run * (counts.size - 1)
        # a run whose keys all equal the previous run's joins it
        joins = ends[0, :-1] == ends[1, 1:]
        if joins.any():
            first = np.flatnonzero(np.append(True, ~joins))
            ends, counts = ends[:, first], np.add.reduceat(counts, first)
        with np.errstate(over="ignore"):
            np.nextafter(ends[0], -np.inf, out=ends[0])
            np.nextafter(ends[1], np.inf, out=ends[1])
        edges = ends.astype(float)
        fine = edges, counts / n, np.empty_like(edges)
        if counts.size <= 2 * COARSE_RUNS:
            return (fine,)
        edges = _run_ends(edges[0], edges[1], COARSE_RUNS)
        counts = np.add.reduceat(counts, np.arange(0, counts.size, COARSE_RUNS))
        return (edges, counts / n, np.empty_like(edges)), fine

    @property
    def depth(self) -> int:
        """How many levels interval() takes: 2 where the coarse one is kept, else 1."""
        return len(self.levels)

    def interval(self, b0: float, level: int = -1) -> tuple[float, float]:
        """(lo, hi) with lo <= mean(b0) <= hi on any input, from one level of runs (default the finest).

        It costs g^-1 at the two ends of each of the level's runs, at most
        HIST_BINS (the draws sorted once, on the first call), not at n_mc
        draws, summed by link.weighted_sums:
            lo = sum_k p_k g^-1(fl(lower_k + b0))
            hi = sum_k p_k g^-1(fl(upper_k + b0))
        each widened by INTERVAL_MARGIN * max(1, size), where size bounds
            sum_k p_k max(|g^-1(fl(lower_k + b0))|, |g^-1(fl(upper_k + b0))|)
        and with it the summed magnitudes of both the interval and the exact
        pass: size is that sum under identity and log, and 1 under logit.
          1. Each draw e lies, exactly, between its run's ends. Its float32
             key fl32(e) is a nearest float32 (or +-inf past the float32
             range), so e lies between the float32 values on either side of
             fl32(e), and the run's keys lie between its first and last key
             (runs joined into one all hold the same key; a coarse run's keys
             lie between its first fine run's first key and its last fine
             run's last key).
          2. fl(e + b0) is monotone in e (rounding is monotone), so
             lower_k <= e gives fl(lower_k + b0) <= fl(e + b0), the argument
             the exact pass inverts; likewise for upper_k. g^-1 is increasing.
             The exact pass's link.invert is within a few ulps of it, and so
             is the logit sums' 1/2 + tanh(x / 2) / 2 (x / 2 is exact but
             for a subnormal x, off by at most 2^-1075).
          3. What is left is rounding, with u = 2^-53: those few ulps;
             p_k = count / n; the logit sums' taking sum_k p_k as exactly 1,
             which the rounded p_k miss by at most about HIST_BINS u; the
             pairwise sum of the exact mean over n_mc terms, off by about
             (log2(n) + 20) u of the summed magnitudes; and the interval's
             sums over at most HIST_BINS runs, off by at most HIST_BINS u of
             them. Together that is below 1e-12 of size for any n_mc that
             fits in memory. A g^-1 that underflows is off by at most
             2^-1074 each, under the margin's floor of 1e-9.
        Where size is NaN, infinite, or above 2^1020 / n_mc, so that the exact
        pass's sum could overflow, or where a sum is NaN, the interval is
        (-inf, inf), which decides nothing. A NaN draw's key sorts last, so
        it makes the upper sum NaN, and under identity and log size too.
        """
        edges, p, mu = self.levels[level]
        np.add(edges, b0, out=mu)
        (lo, hi), size = self.link.weighted_sums(mu, p)
        if not size <= MAX_SUM / self.eta.size or math.isnan(lo + hi):
            return -math.inf, math.inf
        margin = INTERVAL_MARGIN * max(1.0, size)
        return lo - margin, hi + margin


class Enumerated:
    """E[g^-1(b0 + eta)] over a finite support, exactly, so it has no interval levels."""

    def __init__(self, link: Link, etas: np.ndarray, probs: np.ndarray) -> None:
        self.link = link
        self.etas = etas
        self.probs = probs

    def mean(self, b0: float) -> float:
        return float(self.probs @ self.link.invert(b0 + self.etas))

    def se(self, b0: float) -> float:
        return 0.0

    depth = 0


Expectation = Union[Enumerated, FrozenDraws]


class Residual:
    """f = E[g^-1(b0 + eta)] - target at one b0: bounds, coarse to fine, then the exact pass on demand.

    test(holds) answers a predicate monotone in f as the exact f would. When
    holds agrees at both bounds it holds on all of [lo, hi], so the exact
    pass is skipped; otherwise the next level's bounds replace them, and
    after the finest level the pass runs and its f replaces the bounds.
    fl(x - target) is monotone, so bounds on the mean give bounds on f. Each
    level's bounds are taken when a test first needs them, so a Residual
    that is never tested costs nothing.
    """

    def __init__(self, expectation: Expectation, b0: float, target: float) -> None:
        self.expectation = expectation
        self.b0 = b0
        self.target = target
        self.lo = self.hi = self.exact = None
        self.level = 0  # the levels of bounds taken so far

    def value(self) -> float:
        if self.exact is None:
            self.exact = self.lo = self.hi = self.expectation.mean(self.b0) - self.target
        return self.exact

    def test(self, holds: Callable[[float], bool]) -> bool:
        while self.exact is None:
            if self.level and holds(self.lo) == holds(self.hi):
                return holds(self.lo)
            if self.level == self.expectation.depth:
                break
            lo, hi = self.expectation.interval(self.b0, self.level)
            self.level += 1
            self.lo, self.hi = lo - self.target, hi - self.target
        return holds(self.value())
