"""Discrete-slot simulation of framed-slotted-ALOHA tag interrogation.

Each frame, every unidentified tag picks one of the L slots uniformly at
random. A slot with 1..M tags decodes (all of its tags are identified and
leave contention); a slot with more than M collides and its tags retry next
frame. FSA keeps the frame length fixed; after a collided frame, DFSA sizes
the next one for the MAP estimate minus the tags identified
(``next_frame_length``). Interrogation ends at the first frame with no
collided slot, when every tag has been identified; a run that reaches
``FRAME_SAFETY_CAP`` frames first raises ``NonTerminationError``.

A run's record is each frame's tallies, a tuple of ints, and the total slot
count; a checked ``FrameObservation`` is built only where one is read. DFSA
sizes the next frame from the tallies alone, through ``tally_mode``, and
does not keep the estimate.

A frame's tallies are read off one histogram of slot occupancy. DFSA draws
each frame's slot choices on their own. FSA, whose frame length never
changes, draws them ahead in blocks: ``Generator.integers`` maps the bit
stream into [0, L) one value at a time, so each frame gets exactly the values
one draw per frame would give. The first block draws n + min(n, 2^14)
values. Once the values left fall short of a frame, the next draw is the
frame's tags plus min(2^14, the previous block's size), joined after
them. So the generator ends further along its stream than one draw per
frame would leave it, by fewer than n + 2^14 values: by n after a run of
one frame of n <= 2^14 tags. A run with no tags draws nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import mul

import numpy as np

from .estimator import INT64_MAX, FrameObservation, tally_mode
from .frame_optimizer import next_frame_length
from .prob_model import MprOrder, require_count

#: frames after which a run is declared non-terminating (configuration bug)
FRAME_SAFETY_CAP = 100_000

#: the most slot choices an FSA run draws ahead of its frames in one call;
#: on the 20-trial FSA half of the paper grid (seed 1) a run draws 16,023,699
#: values in 3,014 calls for 14,792,488 slot choices
_DRAW_AHEAD = 2 ** 14


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
        if not isinstance(self.mpr, MprOrder):
            raise ValueError(f"mpr must be an MprOrder, got {self.mpr!r}")
        require_count("initial frame length", self.initial_frame_length, 1)
        if self.initial_frame_length > INT64_MAX:
            raise ValueError(
                f"initial frame length must be < 2**63, got {self.initial_frame_length}"
            )
        if not isinstance(self.variant, Variant):
            raise ValueError(f"variant must be a Variant member, got {self.variant!r}")


#: one frame's tallies, in ``FrameObservation`` field order: (L, E, S, C, identified)
Tally = tuple[int, int, int, int, int]


@dataclass(frozen=True)
class InterrogationResult:
    """Each frame's tallies, in order; the tags left after a frame are n
    minus the running sum of ``identified``."""

    tallies: list[Tally]
    total_slots: int

    @property
    def frames(self) -> list[FrameObservation]:
        """Each frame's checked ``FrameObservation``, built on each request."""
        return [FrameObservation(*tally) for tally in self.tallies]


def _tally(slots: np.ndarray, frame_length: int, M: int) -> Tally:
    """The tallies of the frame in which each tag chose the slot in ``slots``;
    a slot with 1..M tags decodes. ``occupancy[c]`` is the number of slots
    with c tags."""
    occupancy = np.bincount(np.bincount(slots, minlength=frame_length)).tolist()
    decoded = occupancy[1 : M + 1]
    empty, success = occupancy[0], sum(decoded)
    # at M = 1 each decoded slot holds one tag
    identified = success if M == 1 else sum(map(mul, decoded, range(1, M + 1)))
    return frame_length, empty, success, frame_length - empty - success, identified


def run_frame(
    tags_remaining: int, frame_length: int, mpr: MprOrder, rng: np.random.Generator
) -> FrameObservation:
    """Simulate one frame: uniform slot choice per tag, threshold-M slot resolution."""
    require_count("tag count", tags_remaining, 0)
    require_count("frame length", frame_length, 1)
    slots = rng.integers(0, frame_length, size=tags_remaining)
    return FrameObservation(*_tally(slots, frame_length, mpr.M))


def run_interrogation(config: ProtocolConfig, rng: np.random.Generator) -> InterrogationResult:
    """Interrogate until a frame has no collisions, drawing every slot choice
    from ``rng``; returns the full trajectory.

    The frames are the ones a loop of ``run_frame`` calls on ``rng`` would
    give. FSA draws slot choices ahead in blocks, so after an FSA run ``rng``
    is not in the state that one draw per frame would leave.
    """
    tags = config.n
    mpr = config.mpr
    M = mpr.M
    dfsa = config.variant is Variant.DFSA
    # a Python int, so every tally is one and no slot total wraps
    frame_length = int(config.initial_frame_length)
    # only FSA's frame length is known ahead; DFSA draws each frame's own.
    # FSA's first draw runs ahead by the first frame's tags, and each later
    # one by the previous block's size, both up to the cap, so a short run
    # draws few values it never uses
    ahead = 0 if dfsa else _DRAW_AHEAD
    drawn, used = np.empty(0, dtype=np.int64), 0
    tallies: list[Tally] = []
    total_slots = 0

    while True:
        if used + tags > drawn.size:
            fresh = rng.integers(0, frame_length, size=tags + min(ahead, drawn.size or tags))
            if used < drawn.size:
                fresh = np.concatenate((drawn[used:], fresh))
            drawn, used = fresh, 0
        tally = _tally(drawn[used : used + tags], frame_length, M)
        tallies.append(tally)
        _, _, _, collided, identified = tally
        used += tags
        tags -= identified
        total_slots += frame_length

        if collided == 0:
            return InterrogationResult(tallies=tallies, total_slots=total_slots)
        if dfsa:
            frame_length = next_frame_length(tally_mode(tally, M), identified, mpr)
        if len(tallies) >= FRAME_SAFETY_CAP:
            raise NonTerminationError(
                f"interrogation exceeded {FRAME_SAFETY_CAP} frames "
                f"(n={config.n}, M={M}, L0={config.initial_frame_length}, "
                f"variant={config.variant.value})"
            )
