"""Link functions: forward map g, inverse g^-1, and their domains.

All three inverses are total on the reals and strictly increasing, which is
what the numeric intercept solver's bracketing relies on. apply() enforces the
forward domain (log: mu > 0; logit: 0 < mu < 1) and raises LinkDomainError
outside it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import LinkDomainError, SpecError

__all__ = ["Identity", "Log", "Logit", "Link", "link_by_name"]


def _returning_like(x, result, out=None):
    """A Python float for scalar or 0-d x, else the array (out, when passed)."""
    return float(result) if out is None and np.ndim(x) == 0 else result


@dataclass(frozen=True)
class Identity:
    name = "identity"

    def apply(self, mu):
        return _returning_like(mu, np.asarray(mu, dtype=float))

    def invert(self, eta, out=None, scratch=None):
        e = np.asarray(eta, dtype=float)
        if out is None:
            return _returning_like(eta, e)
        np.copyto(out, e)
        return out


@dataclass(frozen=True)
class Log:
    name = "log"

    def apply(self, mu):
        m = np.asarray(mu, dtype=float)
        if np.any(m <= 0.0):
            raise LinkDomainError("log link requires mu > 0")
        return _returning_like(mu, np.log(m))

    def invert(self, eta, out=None, scratch=None):
        e = np.asarray(eta, dtype=float)
        # overflow to inf is the mathematically right answer for huge eta,
        # and the bracket expansion deliberately probes huge eta
        with np.errstate(over="ignore"):
            return _returning_like(eta, np.exp(e, out=out), out)


@dataclass(frozen=True)
class Logit:
    name = "logit"

    def apply(self, mu):
        m = np.asarray(mu, dtype=float)
        if np.any((m <= 0.0) | (m >= 1.0)):
            raise LinkDomainError("logit link requires 0 < mu < 1")
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


Link = Union[Identity, Log, Logit]

_LINKS = {cls.name: cls() for cls in (Identity, Log, Logit)}


def link_by_name(name: str) -> Link:
    try:
        return _LINKS[name]
    except KeyError:
        raise SpecError(f"unknown link '{name}' (expected one of {sorted(_LINKS)})") from None
