"""Covariate distributions: sampling, exact means, and exponential moments.

Each distribution is a frozen spec object that can sample itself. A
continuous one also reports its mean and evaluates its moment generating
function where one exists. The MGF is what the log-link intercept solver
consumes; where E[exp(tX)] is infinite (Cauchy everywhere except t=0, and
gamma outside t < rate) it raises MgfDomainError, which the solver reports as
a balancing intercept that does not exist. A categorical's moments depend on
its coding and coefficient block, so its term computes them (intercept.Term).
Every parameter must be finite.

Randomness is addressed, never ambient: every sampling entry point takes an
RngStream, a small immutable descriptor (master seed plus derivation path)
that maps to a numpy generator as a pure function. Two calls with equal
descriptors produce bitwise-identical draws regardless of process, thread, or
call order, which is what makes the replication harness's outputs independent
of worker count.

sample(n, rng, out=None) writes into out when one is passed, a float64 array
of length n, and returns it (a categorical returns its level indices as an
int64 view of it). The bits are the same either way: each spec draws numpy's
standard variate and applies the scale and shift that numpy's own sampler
applies, in place.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from typing import Optional, Union

import numpy as np

from .errors import MgfDomainError, SpecError, UndefinedMomentError

__all__ = [
    "RngStream",
    "Bernoulli",
    "UniformContinuous",
    "Normal",
    "Gamma",
    "Cauchy",
    "Categorical",
    "CovariateSpec",
    "CODINGS",
]

_U64 = 2**64
# SeedSequence's default pool size, in 32-bit words
_POOL_WORDS = 4


@dataclass(frozen=True)
class RngStream:
    """Pure descriptor of a random stream: (master_seed, derivation path).

    child(i) appends one index to the path; distinct paths yield statistically
    independent streams (numpy SeedSequence spawn keys). The descriptor is the
    whole state: generator() always starts the stream from its beginning.
    """

    master_seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not 0 <= int(self.master_seed) < _U64:
            raise SpecError("master_seed must be an unsigned 64-bit integer")
        for i in self.path:
            if not 0 <= int(i) < _U64:
                raise SpecError("stream path entries must be unsigned 64-bit integers")

    def child(self, index: int) -> "RngStream":
        # a float raises TypeError, as SeedSequence does
        return RngStream(self.master_seed, self.path + (operator.index(index),))

    def generator(self) -> np.random.Generator:
        """default_rng(SeedSequence(master_seed, spawn_key=path)), seeded from its entropy words.

        The words are the uint32 array SeedSequence.get_assembled_entropy
        builds: the seed's 32-bit words, least significant first (0 is one
        word), zero-padded to the pool size of 4 words when the path is
        nonempty, then each path entry's words. A SeedSequence made from
        that array mixes the same words into the same state, and skips
        numpy's coercion of the seed and the spawn key: on a 2-vCPU Xeon VM
        (numpy 2.4.6) the SeedSequence takes about 4 us instead of 11 us,
        and a generator about 12 us instead of 16 us. A replicate makes
        three.
        """
        words = _u32_words(self.master_seed)
        if self.path:
            words += [0] * (_POOL_WORDS - len(words))
            for i in self.path:
                words += _u32_words(i)
        seq = np.random.SeedSequence(np.array(words, dtype=np.uint32))
        return np.random.Generator(np.random.PCG64(seq))


def _u32_words(value: int) -> list[int]:
    """An unsigned 64-bit integer's 32-bit words, least significant first, as numpy splits it."""
    value = operator.index(value)  # a float raises TypeError, as SeedSequence does
    high = value >> 32
    return [value & 0xFFFFFFFF, high] if high else [value & 0xFFFFFFFF]


def _check_finite(spec) -> None:
    for f in fields(spec):
        value = getattr(spec, f.name)
        if not math.isfinite(value):
            raise SpecError(f"{spec.kind} {f.name} must be finite, got {value}")


def _check_n(n: int) -> int:
    n = int(n)
    if n < 1:
        raise SpecError("sample size must be at least 1")
    return n


@dataclass(frozen=True)
class Bernoulli:
    p: float
    kind = "bernoulli"

    def __post_init__(self) -> None:
        _check_finite(self)
        if not 0.0 <= self.p <= 1.0:
            raise SpecError(f"bernoulli probability must lie in [0, 1], got {self.p}")

    def sample(self, n: int, rng: RngStream, out: Optional[np.ndarray] = None) -> np.ndarray:
        # uniform draws are in [0, 1), so p=1 yields all ones and p=0 all zeros
        u = rng.generator().random(_check_n(n), out=out)
        return np.less(u, self.p, out=u)

    def mean(self) -> float:
        return float(self.p)

    def mgf(self, t: float) -> float:
        if self.p == 0.0:  # exp(t) may overflow, and 0 * exp(t) is 0
            return 1.0
        return 1.0 - self.p + self.p * math.exp(t)

    def support(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array([0.0, 1.0]), np.array([1.0 - self.p, self.p])


@dataclass(frozen=True)
class UniformContinuous:
    a: float
    b: float
    kind = "uniform"

    def __post_init__(self) -> None:
        _check_finite(self)
        if not self.a < self.b:
            raise SpecError(f"uniform bounds must satisfy a < b, got [{self.a}, {self.b}]")

    def sample(self, n: int, rng: RngStream, out: Optional[np.ndarray] = None) -> np.ndarray:
        # numpy's uniform(a, b) is a + (b - a) * u, u from the same stream
        u = rng.generator().random(_check_n(n), out=out)
        u *= self.b - self.a
        u += self.a
        return u

    def mean(self) -> float:
        return (self.a + self.b) / 2.0

    def mgf(self, t: float) -> float:
        # (e^(tb) - e^(ta)) / w, w = t(b - a), cancels as w -> 0 (to 0 once |w| < ~1e-16), so near 0
        # it is e^(ta) expm1(w) / w, 1 at w = 0; elsewhere it stays, so closed forms keep their bits
        w = t * (self.b - self.a)
        if abs(w) < 1.0:
            return math.exp(t * self.a) * math.expm1(w) / w if w else 1.0
        return (math.exp(t * self.b) - math.exp(t * self.a)) / w


@dataclass(frozen=True)
class Normal:
    mu: float
    sigma: float
    kind = "normal"

    def __post_init__(self) -> None:
        _check_finite(self)
        if not self.sigma > 0.0:
            raise SpecError(f"normal sigma must be positive, got {self.sigma}")

    def sample(self, n: int, rng: RngStream, out: Optional[np.ndarray] = None) -> np.ndarray:
        # numpy's normal(mu, sigma) is mu + sigma * z, z from the same stream
        z = rng.generator().standard_normal(_check_n(n), out=out)
        z *= self.sigma
        z += self.mu
        return z

    def mean(self) -> float:
        return float(self.mu)

    def mgf(self, t: float) -> float:
        return math.exp(self.mu * t + 0.5 * self.sigma**2 * t**2)


@dataclass(frozen=True)
class Gamma:
    shape: float
    rate: float
    kind = "gamma"

    def __post_init__(self) -> None:
        _check_finite(self)
        if not self.shape > 0.0:
            raise SpecError(f"gamma shape must be positive, got {self.shape}")
        if not self.rate > 0.0:
            raise SpecError(f"gamma rate must be positive, got {self.rate}")

    def sample(self, n: int, rng: RngStream, out: Optional[np.ndarray] = None) -> np.ndarray:
        # numpy's gamma(shape, scale) is scale * g, g from the same stream
        g = rng.generator().standard_gamma(self.shape, _check_n(n), out=out)
        g *= 1.0 / self.rate
        return g

    def mean(self) -> float:
        return self.shape / self.rate

    def mgf(self, t: float) -> float:
        """(1 - t/rate)^(-shape), defined only for t < rate."""
        if t >= self.rate:
            raise MgfDomainError(
                f"gamma MGF diverges for t >= rate ({t} >= {self.rate}); "
                "E[exp(tX)] is infinite"
            )
        return (1.0 - t / self.rate) ** (-self.shape)


@dataclass(frozen=True)
class Cauchy:
    location: float
    scale: float
    kind = "cauchy"

    def __post_init__(self) -> None:
        _check_finite(self)
        if not self.scale > 0.0:
            raise SpecError(f"cauchy scale must be positive, got {self.scale}")

    def sample(self, n: int, rng: RngStream, out: Optional[np.ndarray] = None) -> np.ndarray:
        # standard_cauchy takes no out, so a caller's buffer gets the scaled copy
        z = rng.generator().standard_cauchy(_check_n(n))
        z = np.multiply(z, self.scale, out=z if out is None else out)
        z += self.location
        return z

    def mean(self) -> float:
        raise UndefinedMomentError("the Cauchy distribution has no mean")

    def mgf(self, t: float) -> float:
        if t == 0.0:
            return 1.0
        raise MgfDomainError(
            f"the Cauchy distribution has no MGF at t = {t}; E[exp(tX)] is infinite"
        )


CODINGS = ("reference_cell", "effect", "weighted_effect")


@dataclass(frozen=True)
class Categorical:
    """A p-level categorical, entering the linear predictor through p-1 coded columns.

    Its coding names the row rows() gives level 0, the reference level: all
    zeros (reference_cell), all -1 (effect) or -pi_j/pi_0 (weighted_effect,
    whose probability-weighted rows sum to the zero vector).
    """

    probs: tuple[float, ...]
    coding: str = "reference_cell"
    kind = "categorical"

    def __post_init__(self) -> None:
        pr = np.asarray(self.probs, dtype=float)
        if pr.ndim != 1 or pr.size < 1:
            raise SpecError("categorical: probs must be a nonempty vector")
        # written so that a NaN fails each test
        if not np.all((0.0 <= pr) & (pr <= 1.0)):
            raise SpecError(f"categorical: probs must lie in [0, 1], got {pr.tolist()}")
        if not abs(float(pr.sum()) - 1.0) <= 1e-12:
            raise SpecError("categorical: probabilities must sum to 1 within 1e-12")
        if self.coding not in CODINGS:
            raise SpecError(f"unknown coding scheme '{self.coding}' (expected one of {sorted(CODINGS)})")
        if self.coding == "weighted_effect" and pr[0] == 0.0:
            raise SpecError("weighted effect coding requires a reference level with nonzero probability")
        object.__setattr__(self, "probs", tuple(float(v) for v in pr))

    @property
    def p(self) -> int:
        return len(self.probs)

    def rows(self) -> np.ndarray:
        """The p x (p-1) coding matrix: row i is level i's coded columns."""
        # k=-1 puts the ones on the subdiagonal: row 0 is zero, row i is e_{i-1}
        m = np.eye(self.p, self.p - 1, k=-1)
        if self.coding == "effect":
            m[0, :] = -1.0
        elif self.coding == "weighted_effect":
            pr = np.asarray(self.probs)
            m[0, :] = -pr[1:] / pr[0]
        return m

    def sample(self, n: int, rng: RngStream, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Level indices in {0, ..., p-1} as an int64 vector (an int64 view of out, when passed).

        A uniform draw u lands on the number of inner thresholds
        cumsum(probs)[:-1] at or below it. That is
        min(searchsorted(cumsum(probs), u, "right"), p - 1) exactly, zero
        probability levels included, and a float cumsum that tops out a hair
        below 1 cannot produce the out-of-range index p, because the last
        threshold is never counted. Counting costs O(n * (p - 1)) against the
        binary search's O(n log p), but each pass is one branch-free vector
        compare: on a 2-vCPU Xeon VM (numpy 2.4.6), uniforms given, it takes
        0.015 against 0.13 ms at 3 levels and 10k draws, and breaks even near
        150 levels at 10k draws and near 280 at 100k.

        The uniforms are drawn into the memory the levels are returned in. The
        count is kept apart, in the smallest type that holds p - 1, and widened
        into them once every threshold is counted, so the only other memory is
        the count and one threshold's mask: 20 KB for 10k draws below 257 levels.
        """
        u = rng.generator().random(_check_n(n), out=out)
        count = np.zeros(u.size, np.min_scalar_type(self.p - 1))
        for c in np.cumsum(np.asarray(self.probs))[:-1]:
            count += (u >= c).view(np.uint8)  # 0/1 bytes, added without numpy's cast buffer
        np.copyto(u.view(np.int64), count)
        return u.view(np.int64)

    def support(self) -> tuple[np.ndarray, np.ndarray]:
        return np.arange(self.p), np.asarray(self.probs)


CovariateSpec = Union[Bernoulli, UniformContinuous, Normal, Gamma, Cauchy, Categorical]
