"""Discrete-slot simulation of framed-slotted-ALOHA tag interrogation.

Each frame, every unidentified tag picks one of the L slots uniformly at
random. A slot with 1..M tags decodes (all of its tags are identified and
leave contention); a slot with more than M collides and its tags retry next
frame. FSA keeps the frame length fixed; DFSA re-sizes each frame from a MAP
estimate of the remaining population. Interrogation ends at the first frame
with no collided slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .estimator import FrameObservation, MapEstimate, map_estimate
from .frame_optimizer import next_frame_length
from .prob_model import MprOrder

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
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"tag count must be >= 0, got {self.n}")
        if self.initial_frame_length < 1:
            raise ValueError(
                f"initial frame length must be >= 1, got {self.initial_frame_length}"
            )


@dataclass(frozen=True)
class FrameRecord:
    frame_index: int
    frame_length: int
    observation: FrameObservation
    estimate: Optional[MapEstimate]  # absent for FSA and for clean final frames
    tags_remaining_after: int


@dataclass(frozen=True)
class InterrogationResult:
    frames: list[FrameRecord]
    total_slots: int
    total_identified: int
    terminated: bool


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
    config: ProtocolConfig, rng: Optional[np.random.Generator] = None
) -> InterrogationResult:
    """Interrogate until a frame has no collisions; returns the full trajectory."""
    if rng is None:
        rng = np.random.default_rng(config.rng_seed)
    tags = config.n
    frame_length = config.initial_frame_length
    frames: list[FrameRecord] = []
    total_slots = 0
    total_identified = 0

    while True:
        obs = run_frame(tags, frame_length, config.mpr, rng)
        tags -= obs.identified
        total_slots += frame_length
        total_identified += obs.identified

        estimate: Optional[MapEstimate] = None
        if config.variant is Variant.DFSA and obs.C > 0:
            estimate = map_estimate(obs, config.mpr)

        frames.append(
            FrameRecord(
                frame_index=len(frames) + 1,
                frame_length=frame_length,
                observation=obs,
                estimate=estimate,
                tags_remaining_after=tags,
            )
        )

        if obs.C == 0:
            return InterrogationResult(
                frames=frames,
                total_slots=total_slots,
                total_identified=total_identified,
                terminated=True,
            )
        if len(frames) >= FRAME_SAFETY_CAP:
            raise NonTerminationError(
                f"interrogation exceeded {FRAME_SAFETY_CAP} frames "
                f"(n={config.n}, M={config.mpr.M}, L0={config.initial_frame_length}, "
                f"variant={config.variant.value})"
            )
        if config.variant is Variant.DFSA:
            assert estimate is not None
            frame_length = next_frame_length(
                estimate.n_hat, obs.identified, config.mpr, collisions=obs.C
            ).length
