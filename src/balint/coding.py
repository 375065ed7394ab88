"""Categorical coding schemes.

A p-level categorical enters the linear predictor through p-1 encoded columns.
The three schemes here differ only in the row assigned to level 0: all zeros
(reference cell), all -1 (effect), or -pi_j/pi_0 (weighted effect, whose
defining property is that the probability-weighted rows sum to the zero
vector). Level 0 is always the reference level; configs map labels to indices
explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import SpecError

__all__ = [
    "ReferenceCell",
    "Effect",
    "WeightedEffect",
    "CodingScheme",
    "coding_by_name",
]


def _check_probs(probs: np.ndarray, where: str) -> np.ndarray:
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1 or probs.size < 1:
        raise SpecError(f"{where}: probs must be a nonempty vector")
    # written so that a NaN fails each test
    if not np.all((0.0 <= probs) & (probs <= 1.0)):
        raise SpecError(f"{where}: probs must lie in [0, 1], got {probs.tolist()}")
    if not abs(float(probs.sum()) - 1.0) <= 1e-12:
        raise SpecError(f"{where}: probabilities must sum to 1 within 1e-12")
    return probs


@dataclass(frozen=True)
class ReferenceCell:
    name = "reference_cell"

    def rows(self, p: int, probs: Sequence[float] | None = None) -> np.ndarray:
        _check_levels(p)
        # k=-1 puts the ones on the subdiagonal: row 0 is zero, row i is e_{i-1}.
        return np.eye(p, p - 1, k=-1)


@dataclass(frozen=True)
class Effect:
    name = "effect"

    def rows(self, p: int, probs: Sequence[float] | None = None) -> np.ndarray:
        _check_levels(p)
        m = np.eye(p, p - 1, k=-1)
        m[0, :] = -1.0
        return m


@dataclass(frozen=True)
class WeightedEffect:
    name = "weighted_effect"

    def rows(self, p: int, probs: Sequence[float] | None = None) -> np.ndarray:
        _check_levels(p)
        if probs is None:
            raise SpecError("weighted effect coding requires level probabilities")
        pr = _check_probs(np.asarray(probs, dtype=float), "weighted effect coding")
        if pr.size != p:
            raise SpecError("weighted effect coding: probs length must equal level count")
        if pr[0] == 0.0:
            raise SpecError("weighted effect coding requires a reference level with nonzero probability")
        m = np.eye(p, p - 1, k=-1)
        m[0, :] = -pr[1:] / pr[0]
        return m


CodingScheme = Union[ReferenceCell, Effect, WeightedEffect]

_SCHEMES = {s.name: s() for s in (ReferenceCell, Effect, WeightedEffect)}


def coding_by_name(name: str) -> CodingScheme:
    try:
        return _SCHEMES[name]
    except KeyError:
        raise SpecError(
            f"unknown coding scheme '{name}' (expected one of {sorted(_SCHEMES)})"
        ) from None


def _check_levels(p: int) -> None:
    if p < 1:
        raise SpecError("a categorical needs at least one level")
