"""Optimal frame-length selection for DFSA with an M-packet-capable reader.

The frame length maximizing channel usage efficiency is n / (M!)^(1/M); the
functions here apply that criterion to a known population, or to the
estimated remaining population between interrogation rounds: the MAP
estimate minus the tags identified, at least M+1 by the estimator's bound.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Iterable

from .prob_model import MprOrder, require_count


@dataclass(frozen=True)
class FramePlan:
    """Next-frame sizing: integer slot count plus the continuous optimum it rounds."""

    length: int
    raw_optimum: float


@functools.lru_cache(maxsize=64)
def _length_scale(M: int) -> tuple[float, int, int]:
    """(M!)^(-1/M), built once per M, and its exact ratio of integers."""
    scale = math.exp(-math.lgamma(M + 1) / M)
    return (scale, *scale.as_integer_ratio())


def _rounded_length(n: int, num: int, den: int) -> int:
    """n * num / den rounded half-up in exact integers, and floored at 1."""
    return (2 * n * num + den) // (2 * den) or 1


def optimal_frame_length(n: int, mpr: MprOrder) -> FramePlan:
    """Efficiency-maximizing frame length for n contending tags.

    Rounded half-up in exact integers, so at M = 1 the length is n itself,
    and floored at 1 (a degenerate probe frame when n = 0). ValueError for
    an n too large to convert to a float.
    """
    require_count("tag count", n, 0)
    # a Python int keeps the integer rounding exact for a numpy count as well
    n = operator.index(n)
    scale, num, den = _length_scale(mpr.M)
    try:
        raw = n * scale
    except OverflowError:
        raise ValueError("tag count is too large to convert to a float") from None
    return FramePlan(length=_rounded_length(n, num, den), raw_optimum=raw)


def optimal_frame_lengths(counts: Iterable[int], mpr: MprOrder) -> tuple[list[int], list[float]]:
    """The lengths and raw optima of ``optimal_frame_length`` for many tag
    counts in one pass, each an integer >= 0 that is not checked here;
    OverflowError for a count too large to convert to a float."""
    counts = list(map(operator.index, counts))
    scale, num, den = _length_scale(mpr.M)
    return ([_rounded_length(n, num, den) for n in counts],
            [n * scale for n in counts])


def next_frame_length(estimate: int, identified: int, mpr: MprOrder) -> FramePlan:
    """Optimal length for the ``estimate - identified`` tags left; ValueError if negative."""
    return optimal_frame_length(estimate - identified, mpr)
