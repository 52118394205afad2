"""Discrete-slot simulation of framed-slotted-ALOHA tag interrogation.

Each frame, every unidentified tag picks one of the L slots uniformly at
random. A slot with 1..M tags decodes (all of its tags are identified and
leave contention); a slot with more than M collides and its tags retry next
frame. FSA keeps the frame length fixed; after a collided frame, DFSA sizes
the next one for the MAP estimate minus the tags identified
(``next_frame_length``). Interrogation ends at the first frame with no
collided slot, when every tag has been identified; a run that reaches
``FRAME_SAFETY_CAP`` frames first raises ``NonTerminationError``.

A run's record is each frame's ``FrameObservation`` and the total slot
count; DFSA's estimate is used to size the next frame and is not kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .estimator import FrameObservation, map_estimate
from .frame_optimizer import next_frame_length
from .prob_model import MprOrder, require_count

#: frames after which a run is declared non-terminating (configuration bug)
FRAME_SAFETY_CAP = 100_000


class NonTerminationError(RuntimeError):
    """Raised when an interrogation exceeds the frame safety cap."""


class Variant(str, Enum):
    FSA = "fsa"
    DFSA = "dfsa"


@dataclass(frozen=True)
class ProtocolConfig:
    n: int
    mpr: MprOrder
    initial_frame_length: int
    variant: Variant = Variant.DFSA

    def __post_init__(self) -> None:
        require_count("tag count", self.n, 0)
        require_count("initial frame length", self.initial_frame_length, 1)


@dataclass(frozen=True)
class InterrogationResult:
    """Each frame's tallies, in order; the tags left after a frame are n
    minus the running sum of ``identified``."""

    frames: list[FrameObservation]
    total_slots: int


def run_frame(
    tags_remaining: int, frame_length: int, mpr: MprOrder, rng: np.random.Generator
) -> FrameObservation:
    """Simulate one frame: uniform slot choice per tag, threshold-M slot resolution."""
    if tags_remaining < 0:
        raise ValueError(f"tag count must be >= 0, got {tags_remaining}")
    if frame_length < 1:
        raise ValueError(f"frame length must be >= 1, got {frame_length}")
    slots = rng.integers(0, frame_length, size=tags_remaining)
    counts = np.bincount(slots, minlength=frame_length)
    empty = int(np.count_nonzero(counts == 0))
    success_mask = (counts >= 1) & (counts <= mpr.M)
    success = int(np.count_nonzero(success_mask))
    identified = int(counts[success_mask].sum())
    collided = frame_length - empty - success
    return FrameObservation(
        L=frame_length, E=empty, S=success, C=collided, identified=identified
    )


def run_interrogation(
    config: ProtocolConfig, rng: np.random.Generator | None = None
) -> InterrogationResult:
    """Interrogate until a frame has no collisions; returns the full trajectory.

    Without ``rng`` the run draws from ``np.random.default_rng(0)``.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    tags = config.n
    frame_length = config.initial_frame_length
    frames: list[FrameObservation] = []
    total_slots = 0

    while True:
        obs = run_frame(tags, frame_length, config.mpr, rng)
        tags -= obs.identified
        total_slots += frame_length
        frames.append(obs)

        if config.variant is Variant.DFSA and obs.C > 0:
            n_hat = map_estimate(obs, config.mpr).n_hat
            frame_length = next_frame_length(n_hat, obs.identified, config.mpr).length

        if obs.C == 0:
            return InterrogationResult(frames=frames, total_slots=total_slots)
        if len(frames) >= FRAME_SAFETY_CAP:
            raise NonTerminationError(
                f"interrogation exceeded {FRAME_SAFETY_CAP} frames "
                f"(n={config.n}, M={config.mpr.M}, L0={config.initial_frame_length}, "
                f"variant={config.variant.value})"
            )
