"""Optimal frame-length selection for DFSA with an M-packet-capable reader.

The frame length maximizing channel usage efficiency is n / (M!)^(1/M); the
functions here apply that criterion to a known population, or to the
estimated remaining population between interrogation rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .prob_model import MprOrder


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
    when n = 0).
    """
    if n < 0:
        raise ValueError(f"tag count must be >= 0, got {n}")
    raw = n * math.exp(-math.lgamma(mpr.M + 1) / mpr.M)
    return FramePlan(length=max(1, _round_half_up(raw)), raw_optimum=raw)


def next_frame_length(
    estimate: int, identified: int, mpr: MprOrder, collisions: int = 0
) -> FramePlan:
    """Frame length for the next round given this round's estimate and tally.

    Remaining population is estimate minus tags already identified. If that
    is zero but the frame still had collisions, each collided slot provably
    held at least M+1 tags, so (M+1) * collisions is the smallest population
    consistent with the observation.
    """
    remaining = max(estimate - identified, 0)
    if remaining == 0 and collisions > 0:
        remaining = (mpr.M + 1) * collisions
    return optimal_frame_length(remaining, mpr)

