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
k_max itself, and ``MapEstimate.saturated`` says so.

Any other frame is searched by windows, which is exact because the log
posterior is concave in k. This is proved, term by term in x = k/L (the map
k -> x is linear):

- E log P(X=0) = -E x is linear.
- log P(X>M) is the log of the Gamma(M+1, 1) distribution function at x
  (the (M+1)-th arrival of a unit-rate Poisson process comes before x). The
  Gamma density is log-concave, and so is its distribution function.
- log P(1<=X<=M) = -x + log g(x), g(x) = sum_{j=1..M} x^j/j!. Collecting
  powers, 2 (g g'' - g'^2) = sum_s x^(s-2)/s! sum_i C(s,i) ((2i-s)^2 - s),
  the inner sum over 1 <= i, s-i <= M. Over all of i = 0..s it is zero (a
  Binomial(s, 1/2) has variance s/4). The kept i form a band |2i-s| <= b
  about s/2, and a term is negative exactly when |2i-s| < sqrt(s): if
  b < sqrt(s) every kept term is <= 0, and otherwise every dropped term is
  positive, so the kept terms sum to minus a positive number. Either way
  g g'' <= g'^2, so log g is concave.

A test also checks the computed posterior's second differences in k, over
L in [1, 2048] and M in [1, 8], since the search sees rounded values.

The search evaluates a window of 64 candidates from k_min in one kernel
call and takes its first argmax, so ties go to the smaller k. An argmax
with a candidate after it in the window is final: a concave sequence that
has stopped rising never rises again. An argmax on the window's last
candidate restarts the window there, 4 times wider, until the window
reaches k_max.

The search result is memoized per process in a bounded
``functools.lru_cache`` keyed on (L, E, S, C, M, k_min, k_max); ``identified``
enters the key only through k_min, and k_max follows from L and M.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .prob_model import MprOrder, log_slot_probabilities, require_count

#: candidates in the first window of the mode search, and the factor by
#: which each later window is wider
_FIRST_WINDOW = 64
_WINDOW_GROWTH = 4

#: (L, E, S, C, M, k_min) keys whose posterior mode a process remembers
_MEMO_SIZE = 4096


@dataclass(frozen=True)
class FrameObservation:
    """Slot tallies of one interrogation frame, the record a simulated run keeps.

    ``identified`` is the total number of tags decoded across the S
    successful slots; it feeds next-frame sizing but not the posterior.
    Building one checks every rule that does not need M: integer (not bool)
    tallies, L >= 1 and the rest >= 0, E + S + C = L, and S <= identified,
    with both zero together. The estimator adds identified <= S*M.
    """

    L: int
    E: int
    S: int
    C: int
    identified: int

    def __post_init__(self) -> None:
        require_count("frame length", self.L, 1)
        require_count("empty slots", self.E, 0)
        require_count("successful slots", self.S, 0)
        require_count("collided slots", self.C, 0)
        require_count("identified tags", self.identified, 0)
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

    @property
    def saturated(self) -> bool:
        """True when the estimate is the search cap itself: the frame is
        consistent with any larger population (every all-collided frame)."""
        return self.n_hat == self.k_max


def _log_posterior_array(ks: np.ndarray, L: int, E: int, S: int, C: int, M: int) -> np.ndarray:
    log_e, log_s, log_c = log_slot_probabilities(ks / L, M)
    # a class with no slots contributes nothing, even where its probability is 0
    out = E * log_e
    if S > 0:
        out = out + S * log_s
    if C > 0:
        out = out + C * log_c
    return out


def _require_valid_tallies(obs: FrameObservation, mpr: MprOrder) -> None:
    """Raise ValueError unless the decoded tags fit in the S slots at MPR order M.

    ``FrameObservation`` checks every rule that does not need M.
    """
    if obs.identified > obs.S * mpr.M:
        raise ValueError(
            f"{obs.identified} tags cannot fit in {obs.S} slots at MPR order {mpr.M}"
        )


def search_lower_bound(obs: FrameObservation, mpr: MprOrder) -> int:
    """Smallest population consistent with the tallies: identified tags plus M+1 per collision.

    Vogt's lower bound at M = 1. Next-frame sizing relies on it.
    """
    return obs.identified + (mpr.M + 1) * obs.C


def _first_argmax_of_concave(
    evaluate: Callable[[np.ndarray], np.ndarray], lo: int, hi: int
) -> int:
    """First argmax over [lo, hi] of a function concave on the integers.

    ``evaluate`` maps an array of candidates to their values; it is called
    once per window (see the module docstring).
    """
    width = _FIRST_WINDOW
    while True:
        ks = np.arange(lo, min(lo + width, hi + 1))
        values = evaluate(ks)
        i = int(values.argmax())
        if i < ks.size - 1 or lo + i == hi:
            return lo + i
        lo, width = lo + i, width * _WINDOW_GROWTH


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _posterior_mode(L: int, E: int, S: int, C: int, M: int, k_min: int, k_max: int) -> int:
    """First argmax over [k_min, k_max], memoized per process."""
    # P(X > M)^L rises strictly in k when every slot collided: the argmax is the cap
    if C == L:
        return k_max
    return _first_argmax_of_concave(
        lambda ks: _log_posterior_array(ks, L, E, S, C, M), k_min, k_max
    )


def map_estimate(obs: FrameObservation, mpr: MprOrder) -> MapEstimate:
    """Integer argmax of the posterior over [k_min, 10*L*M]; ties go to the smaller k.

    An all-collided frame gives the cap itself, and the estimate is
    ``saturated``. Results are memoized per process, keyed on the tallies,
    M and k_min.
    """
    _require_valid_tallies(obs, mpr)
    k_min = search_lower_bound(obs, mpr)
    k_max = 10 * obs.L * mpr.M
    n_hat = _posterior_mode(obs.L, obs.E, obs.S, obs.C, mpr.M, k_min, k_max)
    return MapEstimate(n_hat, k_min, k_max)


def population_estimate(obs: FrameObservation, mpr: MprOrder) -> int:
    """Tags that replied in the frame: exact without a collision, else the MAP estimate.

    A frame with no collided slot decoded every tag that replied, so its
    count is ``identified``; any other frame needs ``map_estimate``.
    """
    if obs.C == 0:
        _require_valid_tallies(obs, mpr)
        return obs.identified
    return map_estimate(obs, mpr).n_hat


def posterior_curve(
    obs: FrameObservation, mpr: MprOrder, k_range: range
) -> list[tuple[int, float]]:
    """Posterior over k_range, normalized to sum to 1 (plot data for the MAP curve).

    ``k_range`` must be a non-empty ``range`` of candidates >= 0, in either
    direction. Exponentiation is max-shifted for stability.
    """
    _require_valid_tallies(obs, mpr)
    if not isinstance(k_range, range) or not k_range or min(k_range[0], k_range[-1]) < 0:
        raise ValueError("k_range must be a non-empty range of candidates >= 0")
    ks = np.arange(k_range.start, k_range.stop, k_range.step)
    logp = _log_posterior_array(ks, obs.L, obs.E, obs.S, obs.C, mpr.M)
    peak = float(np.max(logp))
    if peak == -math.inf:
        raise ValueError("posterior vanishes on the whole range")
    weights = np.exp(logp - peak)
    probs = weights / weights.sum()
    return list(zip(ks.tolist(), probs.tolist()))
