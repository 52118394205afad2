"""Optimal frame-length selection for DFSA with an M-packet-capable reader.

The frame length maximizing channel usage efficiency is n / (M!)^(1/M); the
functions here apply that criterion to a known population, or to the
estimated remaining population between interrogation rounds: the MAP
estimate minus the tags identified, at least M+1 by the estimator's bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .prob_model import MprOrder, require_count


@dataclass(frozen=True)
class FramePlan:
    """Next-frame sizing: integer slot count plus the continuous optimum it rounds."""

    length: int
    raw_optimum: float


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def optimal_frame_length(n: int, mpr: MprOrder) -> FramePlan:
    """Efficiency-maximizing frame length for n contending tags.

    Rounded half-up to an integer, floored at 1 (a degenerate probe frame
    when n = 0). ValueError for an n too large to convert to a float.
    """
    require_count("tag count", n, 0)
    try:
        raw = n * math.exp(-math.lgamma(mpr.M + 1) / mpr.M)
    except OverflowError:
        raise ValueError("tag count is too large to convert to a float") from None
    return FramePlan(length=max(1, _round_half_up(raw)), raw_optimum=raw)


def next_frame_length(estimate: int, identified: int, mpr: MprOrder) -> FramePlan:
    """Optimal length for the ``estimate - identified`` tags left; ValueError if negative."""
    return optimal_frame_length(estimate - identified, mpr)
