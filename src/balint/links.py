"""Link functions: g, g^-1, the domain of g, and the moment of eta each link balances.

All three inverses are total on the reals and strictly increasing, which is
what the numeric intercept solver's bracketing relies on. Each link writes its
domain once, an open interval that check() holds apply()'s mean and DgpSpec's
target to. E[g^-1(b0 + eta)] is exact_mean(b0 + sum of moment(term)) where that
sum is finite; a term's moment is E[beta' X] (identity) or log E[exp(beta' X)] (log).
finite_variance(terms) says whether a sample's se of that mean means anything.
weighted_sums(x, p) is what the Monte Carlo interval filter (expectation.py)
asks of a link: sum_k p_k g^-1(x[i, k]) for each row i of x, with a bound on
the p-weighted magnitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .distributions import check_choice
from .errors import LinkDomainError, MgfDomainError

__all__ = ["Identity", "Log", "Logit", "Link", "link_by_name"]


def _returning_like(x, result, out=None):
    """A Python float for scalar or 0-d x, else the array (out, when passed)."""
    return float(result) if out is None and np.ndim(x) == 0 else result


class _Link:
    """What the links share: check() against domain, and no balanced moment unless they define one."""

    linear = False  # g^-1 linear makes the linear-scale intercept exact

    def check(self, mu, what: str = "mu") -> np.ndarray:
        m = np.asarray(mu, dtype=float)
        lo, hi = self.domain
        if ((m <= lo) | (m >= hi)).any():
            raise LinkDomainError(f"{self.name} link requires {lo:g} < {what} < {hi:g}, got {mu}")
        return m

    def moment(self, term) -> None:
        return None

    def exact_mean(self, x: float) -> None:  # reached by a logit DGP with no terms
        return None

    def finite_variance(self, terms) -> bool:
        """Whether g^-1(b0 + eta) has a finite variance; so under logit (bounded) and identity."""
        return True

    def weighted_sums(self, x: np.ndarray, p: np.ndarray) -> tuple[list[float], float]:
        """(sum_k p_k g^-1(x[i, k]) for each row i, sum_k p_k max_i |g^-1(x[i, k])|), x overwritten.

        The second is NaN where some g^-1 is NaN.
        """
        self.invert(x, out=x)
        x *= p
        return x.sum(axis=1).tolist(), float(np.maximum.reduce(abs(x)).sum())


@dataclass(frozen=True)
class Identity(_Link):
    name = "identity"
    domain = (-math.inf, math.inf)
    linear = True

    def apply(self, mu):
        return _returning_like(mu, self.check(mu))

    def invert(self, eta, out=None, scratch=None):
        e = np.asarray(eta, dtype=float)
        if out is None:
            return _returning_like(eta, e)
        np.copyto(out, e)
        return out

    def moment(self, term) -> float:
        return term.mean()

    def exact_mean(self, x: float) -> float:
        return x


@dataclass(frozen=True)
class Log(_Link):
    name = "log"
    domain = (0.0, math.inf)

    def apply(self, mu):
        return _returning_like(mu, np.log(self.check(mu)))

    def invert(self, eta, out=None, scratch=None):
        e = np.asarray(eta, dtype=float)
        # overflow to inf is the mathematically right answer for huge eta,
        # and the bracket expansion deliberately probes huge eta
        with np.errstate(over="ignore"):
            return _returning_like(eta, np.exp(e, out=out), out)

    def moment(self, term) -> float:
        """log E[exp(beta' X)], +inf or -inf past a double; in logs, exp(b0) may pass that range."""
        m = term.exp_moment()
        return -math.inf if m == 0.0 else math.log(m)

    def exact_mean(self, x: float) -> float:
        try:
            return math.exp(x)
        except OverflowError:
            return math.inf

    def finite_variance(self, terms) -> bool:
        """False where some term's E[exp(2 beta' X)] is infinite or overflows a double."""
        try:
            return all(term.exp_moment(2.0) < math.inf for term in terms)
        except MgfDomainError:
            return False


@dataclass(frozen=True)
class Logit(_Link):
    name = "logit"
    domain = (0.0, 1.0)

    def apply(self, mu):
        m = self.check(mu)
        return _returning_like(mu, np.log(m / (1.0 - m)))

    def invert(self, eta, out=None, scratch=None):
        e = np.asarray(eta, dtype=float)
        # With t = exp(-|e|), this is max(t, [e >= 0]) / (1 + t): one exp pass,
        # in place. It equals the two-branch form bit for bit: for e >= 0 the
        # numerator is 1 (t <= 1), giving 1/(1+exp(-e)); for e < 0, -|e| is
        # exactly e, giving exp(e)/(1+exp(e)). No masks, and no positive
        # argument is ever exponentiated, so no overflow at the extreme eta
        # probed during bracket expansion. -|e| is taken as min(e, -e), which
        # returns a NaN e itself, so a NaN keeps its sign and payload as
        # exp(min(e, 0)) did. scratch (shaped like eta, not eta itself) holds
        # t and then 1 + t; out may be eta itself.
        t = np.empty_like(e) if scratch is None else scratch
        np.negative(e, out=t)
        np.minimum(e, t, out=t)
        np.exp(t, out=t)
        res = np.empty_like(e) if out is None else out
        np.greater_equal(e, 0.0, out=res)
        np.maximum(t, res, out=res)
        t += 1.0
        res /= t
        return _returning_like(eta, res, out)

    def weighted_sums(self, x: np.ndarray, p: np.ndarray) -> tuple[list[float], float]:
        """As _Link's, by g^-1(x) = 1/2 + tanh(x / 2) / 2, with 1 for the bound.

        Three passes over x where invert makes seven, with sum_k p_k taken
        as 1. The values differ from invert's by a few ulps, so exact passes
        keep invert. g^-1 lies in [0, 1], so the p-weighted magnitudes sum
        to at most sum_k p_k = 1. A NaN x gives a NaN sum.
        """
        x *= 0.5
        np.tanh(x, out=x)
        return [0.5 + 0.5 * v for v in np.dot(x, p).tolist()], 1.0


Link = Union[Identity, Log, Logit]

_LINKS = {cls.name: cls() for cls in (Identity, Log, Logit)}


def link_by_name(name: str) -> Link:
    return _LINKS[check_choice(name, _LINKS, "link")]
