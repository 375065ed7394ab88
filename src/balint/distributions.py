"""Covariate distributions: sampling, exact means, and exponential moments.

Each distribution is a frozen spec object that can sample itself. A
continuous one also reports its mean and evaluates its moment generating
function where one exists. The MGF is what the log-link intercept solver
consumes; where E[exp(tX)] is infinite (Cauchy everywhere except t=0, and
gamma outside t < rate) it raises MgfDomainError, which the solver reports as
a balancing intercept that does not exist. A finite one (Bernoulli,
categorical) reports only its support, its values and their probabilities;
its term's mean and exponential moment are sums over those points
(intercept.Term.points). Every parameter must be a finite number
(check_real): a bool, a string or None is refused, not converted.

Randomness is addressed, never ambient: every sampling entry point takes an
RngStream, a small immutable descriptor (master seed plus derivation path)
that maps to a numpy generator as a pure function. Two calls with equal
descriptors produce bitwise-identical draws regardless of process, thread, or
call order, which is what makes the replication harness's outputs independent
of worker count.

sample(n, rng, out=None, scratch=None) writes into out when one is passed,
a float64 array of length n, and returns it (a categorical returns its level
indices as an int64 view of it). The bits are the same either way: each spec
draws numpy's standard variate and applies the scale and shift that numpy's
own sampler applies, in place. rng may also be a block of streams
(RngStream.rows), one per row of a (rows, n) out: each row's standard
variates come from that row's stream, and the shift and scale then run once
over the whole block, to the bits each row would get alone. scratch, shaped
like out, is memory the spec may overwrite (a categorical counts its levels
there), so that a draw allocates nothing of size n.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Callable, Optional, Union

import numpy as np

from .errors import MgfDomainError, SpecError, UndefinedMomentError

__all__ = [
    "RngStream",
    "RngRows",
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
    The seed and every path entry are checked when it is built, as rows()
    and RngRows.child check theirs: a float raises TypeError, as numpy's
    SeedSequence does, and a value outside [0, 2^64) SpecError. The path is
    kept as a tuple, so a descriptor built from a list hashes and extends.
    """

    master_seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        # a float raises TypeError, as SeedSequence does
        if not 0 <= operator.index(self.master_seed) < _U64:
            raise SpecError("master_seed must be an unsigned 64-bit integer")
        object.__setattr__(self, "path", tuple(self.path))
        for i in self.path:
            _entry_words(i)

    def child(self, index: int) -> "RngStream":
        return RngStream(self.master_seed, self.path + (index,))

    def generator(self) -> np.random.Generator:
        """default_rng(SeedSequence(master_seed, spawn_key=path)), seeded from its entropy words.

        The words are the uint32 array SeedSequence.get_assembled_entropy
        builds: the seed's 32-bit words, least significant first (0 is one
        word), zero-padded to the pool size of 4 words when the path is
        nonempty, then each path entry's words. A SeedSequence made from
        that array mixes the same words into the same state, and skips
        numpy's coercion of the seed and the spawn key: on a 2-vCPU Xeon VM
        (numpy 2.4.6) the SeedSequence takes about 4 us instead of 11 us,
        and a generator about 12 us instead of 16 us.
        """
        if not self.path:
            return _generator(_u32_words(self.master_seed))
        return _generator(_path_words(self.master_seed, self.path))

    def rows(self, indices) -> "RngRows":
        """The streams child(k) for k in indices, as one block whose rows share this stream's words.

        The seed and path are split into words once, for every row; each
        row adds only its own index. A replicate's streams are made this
        way, three of them at about 9 us each, against about 14 us for a
        generator reached through child() (2-vCPU Xeon VM, numpy 2.4.6).
        """
        rows = tuple(_entry_words(k) for k in indices)
        return RngRows(tuple(_path_words(self.master_seed, self.path)), rows, ())


@dataclass(frozen=True)
class RngRows:
    """A block of streams: row r is the stream whose entropy words are words + rows[r] + suffix.

    Made by RngStream.rows; child(i) appends one index to every row's path,
    as RngStream.child does, and generators() returns each row's generator,
    in row order, the one RngStream(...).generator() gives for that path.
    """

    words: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]
    suffix: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.rows)

    def child(self, index: int) -> "RngRows":
        return RngRows(self.words, self.rows, self.suffix + _entry_words(index))

    def generators(self) -> list[np.random.Generator]:
        head, tail = self.words, self.suffix
        return [_generator(head + row + tail) for row in self.rows]


Streams = Union[RngStream, RngRows]


def _generator(words) -> np.random.Generator:
    """The generator numpy seeds from these assembled entropy words, by its own SeedSequence."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(np.array(words, dtype=np.uint32))))


def _path_words(master_seed: int, path: tuple[int, ...]) -> list[int]:
    """The entropy words of a stream below master_seed: the seed's, padded to the pool, then the path's."""
    words = _u32_words(master_seed)
    words += [0] * (_POOL_WORDS - len(words))
    for i in path:
        words += _u32_words(i)
    return words


def _entry_words(index: int) -> tuple[int, ...]:
    """A path entry's words, checked: TypeError for a float, as SeedSequence raises, SpecError out of range.

    RngStream, RngStream.rows and RngRows.child check every entry here.
    """
    if not 0 <= operator.index(index) < _U64:
        raise SpecError("stream path entries must be unsigned 64-bit integers")
    return tuple(_u32_words(index))


def _u32_words(value: int) -> list[int]:
    """An unsigned 64-bit integer's 32-bit words, least significant first, as numpy splits it."""
    value = operator.index(value)  # a float raises TypeError, as SeedSequence does
    high = value >> 32
    return [value & 0xFFFFFFFF, high] if high else [value & 0xFFFFFFFF]


def _check_finite(spec) -> None:
    for f in fields(spec):
        check_real(getattr(spec, f.name), f"{spec.kind} {f.name}")


def check_int(value, name: str, least: int, error: type[SpecError] = SpecError) -> int:
    """value as operator.index gives it, refused by an error naming it where that fails or it is below least.

    A float or a string is refused, not truncated or parsed; numpy integers are taken.
    """
    try:
        value = operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise error(f"{name} must be at least {least}, got {value}")
    return value


def is_real(value) -> bool:
    """Whether value is a real number: an int, a float or a numpy scalar of either, and not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_real(value, name: str, error: type[SpecError] = SpecError) -> float:
    """float(value), refused by an error naming it where value is not a real number or not finite.

    A bool, a string, None or an array is refused, not converted; numpy scalars are taken.
    """
    if not is_real(value):
        raise error(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise error(f"{name} must be finite, got {value}")
    return float(value)


def check_choice(value, choices, what: str, error: type[SpecError] = SpecError):
    """value, refused by an error naming what it is where it is not one of choices."""
    if value not in choices:
        raise error(f"unknown {what} '{value}' (expected one of {sorted(choices)})")
    return value


def draw_rows(n: int, rng: Streams, out: Optional[np.ndarray], draw: Callable) -> np.ndarray:
    """out, or a fresh float64 array, with each row drawn by draw(generator, row) from its own stream.

    rng is one stream and out has n elements, or rng is an RngRows and out
    (rows, n) of them, row r from rng's r-th generator.
    """
    n = check_int(n, "sample size", 1)
    if isinstance(rng, RngRows):
        generators, shape = rng.generators(), (len(rng), n)
    else:
        generators, shape = [rng.generator()], (n,)
    if out is None:
        out = np.empty(shape)
    for g, row in zip(generators, out.reshape(len(generators), n)):
        draw(g, row)
    return out


def scratch_view(buf: Optional[np.ndarray], dtype, shape: tuple[int, ...], offset: int = 0) -> np.ndarray:
    """An array of dtype and shape in the bytes of buf from offset on, or a fresh one where buf is None."""
    return np.empty(shape, dtype) if buf is None else np.ndarray(shape, dtype, buf, offset)


@dataclass(frozen=True)
class Bernoulli:
    p: float
    kind = "bernoulli"

    def __post_init__(self) -> None:
        _check_finite(self)
        if not 0.0 <= self.p <= 1.0:
            raise SpecError(f"bernoulli probability must lie in [0, 1], got {self.p}")

    def sample(self, n: int, rng: Streams, out=None, scratch=None) -> np.ndarray:
        # uniform draws are in [0, 1), so p=1 yields all ones and p=0 all zeros
        u = draw_rows(n, rng, out, lambda g, row: g.random(row.size, out=row))
        return np.less(u, self.p, out=u)

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

    def sample(self, n: int, rng: Streams, out=None, scratch=None) -> np.ndarray:
        # numpy's uniform(a, b) is a + (b - a) * u, u from the same stream
        u = draw_rows(n, rng, out, lambda g, row: g.random(row.size, out=row))
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

    def sample(self, n: int, rng: Streams, out=None, scratch=None) -> np.ndarray:
        # numpy's normal(mu, sigma) is mu + sigma * z, z from the same stream
        z = draw_rows(n, rng, out, lambda g, row: g.standard_normal(row.size, out=row))
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

    def sample(self, n: int, rng: Streams, out=None, scratch=None) -> np.ndarray:
        # numpy's gamma(shape, scale) is scale * g, g from the same stream
        g = draw_rows(n, rng, out, lambda g, row: g.standard_gamma(self.shape, row.size, out=row))
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

    def sample(self, n: int, rng: Streams, out=None, scratch=None) -> np.ndarray:
        # standard_cauchy takes no out, so each row's draws are copied in
        z = draw_rows(n, rng, out, lambda g, row: np.copyto(row, g.standard_cauchy(row.size)))
        z *= self.scale
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
        if np.ndim(self.probs) != 1 or not len(self.probs):
            raise SpecError("categorical: probs must be a nonempty vector")
        if not all(map(is_real, self.probs)):
            raise SpecError(f"categorical: probs must be numbers, got {self.probs!r}")
        pr = np.asarray(self.probs, dtype=float)
        # written so that a NaN fails each test
        if not np.all((0.0 <= pr) & (pr <= 1.0)):
            raise SpecError(f"categorical: probs must lie in [0, 1], got {pr.tolist()}")
        if not abs(float(pr.sum()) - 1.0) <= 1e-12:
            raise SpecError("categorical: probabilities must sum to 1 within 1e-12")
        check_choice(self.coding, CODINGS, "coding scheme")
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

    def sample(self, n: int, rng: Streams, out=None, scratch=None) -> np.ndarray:
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
        the count and one threshold's mask, both in scratch when it is passed
        (20 KB for 10k draws below 257 levels otherwise).
        """
        u = draw_rows(n, rng, out, lambda g, row: g.random(row.size, out=row))
        count = scratch_view(scratch, np.min_scalar_type(self.p - 1), u.shape)
        mask = scratch_view(scratch, np.bool_, u.shape, count.nbytes)
        ones = mask.view(np.uint8)  # 0/1 bytes, added without numpy's cast buffer
        count.fill(0)
        for c in self._thresholds:
            np.greater_equal(u, c, out=mask)
            count += ones
        np.copyto(u.view(np.int64), count)
        return u.view(np.int64)

    @cached_property
    def _thresholds(self) -> tuple[float, ...]:
        """The inner thresholds cumsum(probs)[:-1] that sample counts, built once per spec."""
        return tuple(np.cumsum(np.asarray(self.probs))[:-1].tolist())

    def support(self) -> tuple[np.ndarray, np.ndarray]:
        return np.arange(self.p), np.asarray(self.probs)


CovariateSpec = Union[Bernoulli, UniformContinuous, Normal, Gamma, Cauchy, Categorical]
