"""MAP estimation of the contending tag population from one frame's slot tallies.

Given the counts of empty (E), successful (S) and collided (C) slots in an
L-slot frame, the posterior over the population size k is a trinomial in the
per-slot outcome probabilities of X ~ Poisson(x), x = k/L:

    log P(k | E,S,C) = E log P(X=0) + S log P(1<=X<=M) + C log P(X>M) + const

The leading multinomial coefficient does not depend on k, so it is dropped;
the argmax is unchanged. The three log-probabilities come from
``prob_model.log_slot_probabilities``, the one kernel behind every slot
probability in the package: a log-sum-exp for the successful class, and for
the collided class a tail series below x = M+1 and a log-complement above
it. Nothing in it cancels or overflows, for any M.

Candidates run from the smallest population consistent with the observation,
k_min (the decoded tags plus M+1 per collided slot), to the cap
k_max = 10 * L * M. An all-collided frame (C = L) has a likelihood
P(X>M)^L that rises strictly in k, so no finite mode exists; its estimate is
k_max itself, with no scan. Any other frame is scanned upward from k_min,
stopping once the posterior has fallen below the running maximum for a fixed
window of consecutive candidates (the posterior is unimodal in every regime
exercised by the tests, which guard the scan against a brute-force oracle
over the whole range [0, k_max]).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .prob_model import MprOrder, log_slot_probabilities

#: candidates the posterior must stay below the running max before the scan stops
DEFAULT_STOP_WINDOW = 50

_SCAN_CHUNK = 256


@dataclass(frozen=True)
class FrameObservation:
    """Slot tallies of one interrogation frame.

    ``identified`` is the total number of tags decoded across the S
    successful slots; it feeds next-frame sizing but not the posterior.
    """

    L: int
    E: int
    S: int
    C: int
    identified: int

    def __post_init__(self) -> None:
        if self.L < 1:
            raise ValueError(f"frame length must be >= 1, got {self.L}")
        if min(self.E, self.S, self.C) < 0:
            raise ValueError("slot tallies must be non-negative")
        if self.E + self.S + self.C != self.L:
            raise ValueError(
                f"tallies E+S+C = {self.E + self.S + self.C} != frame length {self.L}"
            )
        if (self.identified == 0) != (self.S == 0):
            raise ValueError("identified tags and success slots must vanish together")
        if self.identified < self.S:
            raise ValueError("each successful slot holds at least one tag")


@dataclass(frozen=True)
class MapEstimate:
    """Result of the posterior maximization, with the search bounds used."""

    n_hat: int
    k_min: int
    k_max: int
    log_posterior_at_mode: float


def _log_posterior_array(ks: np.ndarray, obs: FrameObservation, M: int) -> np.ndarray:
    log_e, log_s, log_c = log_slot_probabilities(np.asarray(ks) / obs.L, M)
    # a class with no slots contributes nothing, even where its probability is 0
    out = obs.E * log_e
    if obs.S > 0:
        out = out + obs.S * log_s
    if obs.C > 0:
        out = out + obs.C * log_c
    return out


def log_posterior(k: int, obs: FrameObservation, mpr: MprOrder) -> float:
    """Log of the (coefficient-free) posterior at population k; -inf where impossible."""
    if k < 0:
        raise ValueError(f"candidate population must be >= 0, got {k}")
    return float(_log_posterior_array(np.array([k]), obs, mpr.M)[0])


def search_lower_bound(obs: FrameObservation, mpr: MprOrder) -> int:
    """Smallest population consistent with the tallies: identified tags plus M+1 per collision."""
    return max(obs.identified, obs.S) + (mpr.M + 1) * obs.C


def map_estimate(obs: FrameObservation, mpr: MprOrder) -> MapEstimate:
    """Integer argmax of the posterior over [k_min, 10*L*M].

    An all-collided frame has a posterior rising strictly in k, so its
    argmax is the cap itself. Otherwise k is scanned upward from the
    consistency lower bound until the posterior has been strictly below the
    running maximum for DEFAULT_STOP_WINDOW consecutive candidates, or the
    cap is reached. Ties break toward the smaller k.
    """
    if obs.identified > obs.S * mpr.M:
        raise ValueError(
            f"{obs.identified} tags cannot fit in {obs.S} slots at MPR order {mpr.M}"
        )
    k_min = search_lower_bound(obs, mpr)
    k_max = 10 * obs.L * mpr.M
    if obs.C == obs.L:
        return MapEstimate(k_max, k_min, k_max, log_posterior(k_max, obs, mpr))

    best_k = k_min
    best_val = -math.inf
    below = 0
    k = k_min
    while k <= k_max:
        ks = np.arange(k, min(k + _SCAN_CHUNK, k_max + 1))
        vals = _log_posterior_array(ks, obs, mpr.M)
        for kk, v in zip(ks.tolist(), vals.tolist()):
            if v > best_val:
                best_val = v
                best_k = kk
                below = 0
            elif v < best_val:
                below += 1
                if below >= DEFAULT_STOP_WINDOW:
                    return MapEstimate(int(best_k), k_min, k_max, best_val)
            else:
                below = 0
        k += _SCAN_CHUNK
    return MapEstimate(int(best_k), k_min, k_max, best_val)


def posterior_curve(
    obs: FrameObservation, mpr: MprOrder, k_range: Iterable[int]
) -> list[tuple[int, float]]:
    """Posterior over k_range, normalized to sum to 1 (plot data for the MAP curve).

    Exponentiation is max-shifted for stability; deterministic for a given
    range regardless of evaluation order.
    """
    ks = np.asarray(list(k_range), dtype=int)
    if ks.size == 0:
        raise ValueError("k_range must be non-empty")
    if np.any(ks < 0):
        raise ValueError("candidate populations must be >= 0")
    logp = _log_posterior_array(ks, obs, mpr.M)
    peak = float(np.max(logp))
    if peak == -math.inf:
        raise ValueError("posterior vanishes on the whole range")
    weights = np.exp(logp - peak)
    probs = weights / weights.sum()
    return list(zip(ks.tolist(), probs.tolist()))
