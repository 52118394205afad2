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

The search evaluates a window of 64 candidates from k_min, cut at k_max,
and takes its first argmax, so ties go to the smaller k. An argmax with a
candidate after it in the window is final: a concave sequence that has
stopped rising never rises again. An argmax on the window's last candidate
below k_max restarts the window there, 4 times wider.

This rule lives in one generator, ``_window_search``, and two drivers step
it. ``map_estimate`` evaluates one frame's windows one kernel call each.
``population_estimates`` steps the searches of many frames of one M in
lockstep: each round evaluates the windows of every frame still unresolved
together, over a 2-D array of candidates. Each kernel value depends on its
own load only, so both give the same answers bit for bit.

Answers are remembered per process in one bounded memo that ``map_estimate``
and ``population_estimates`` share: at most 4,096 keys (L, E, S, C, M, k_min),
the least recently used evicted first. ``identified`` enters the key only
through k_min, and k_max follows from L and M. An all-collided frame needs
no search and is not stored.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Generator, Iterable, Optional

import numpy as np

from .prob_model import MprOrder, log_slot_probabilities, require_count

#: candidates in the first window of the mode search, and the factor by
#: which each later window is wider
_FIRST_WINDOW = 64
_WINDOW_GROWTH = 4

#: the lockstep search splits a window round into kernel calls of at most
#: this many candidates, but never splits one frame's window, which can be
#: as long as the one-frame search's (the kernel blocks its own memory)
_BATCH_ENTRIES = 2**16

#: what a posterior mode depends on: (L, E, S, C, M, k_min); k_max = 10 L M
_MemoKey = tuple[int, int, int, int, int, int]

#: keys whose posterior mode a process remembers, and the modes, least
#: recently used first
_MEMO_SIZE = 4096
_memo: OrderedDict[_MemoKey, int] = OrderedDict()


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


def _window_search(lo: int, hi: int) -> Generator[tuple[int, int], int, int]:
    """The window rule of the mode search over [lo, hi] (see the module docstring).

    Yields each window as (first candidate, size) and is sent the offset of
    the window's first argmax; returns the first argmax over [lo, hi] of a
    function concave on the integers.
    """
    width = _FIRST_WINDOW
    while True:
        size = min(width, hi - lo + 1)
        i = yield lo, size
        if i < size - 1 or lo + i == hi:
            return lo + i
        lo, width = lo + i, width * _WINDOW_GROWTH


def _mode_without_search(key: _MemoKey) -> Optional[int]:
    """The posterior mode where no search is needed, else None: the cap for
    an all-collided frame, or the memo's answer."""
    L, E, S, C, M, k_min = key
    # P(X > M)^L rises strictly in k when every slot collided: the argmax is the cap
    if C == L:
        return 10 * L * M
    mode = _memo.get(key)
    if mode is not None:
        _memo.move_to_end(key)
    return mode


def _remember(key: _MemoKey, mode: int) -> None:
    _memo[key] = mode
    if len(_memo) > _MEMO_SIZE:
        _memo.popitem(last=False)


def _search(key: _MemoKey) -> int:
    """First argmax over [k_min, 10*L*M] of the key's posterior, remembered."""
    L, E, S, C, M, k_min = key
    search = _window_search(k_min, 10 * L * M)
    lo, size = next(search)
    try:
        while True:
            values = _log_posterior_array(np.arange(lo, lo + size), L, E, S, C, M)
            lo, size = search.send(int(values.argmax()))
    except StopIteration as done:
        mode = done.value
    _remember(key, mode)
    return mode


def _search_rows(keys: list[_MemoKey]) -> list[int]:
    """``_search`` of many keys of one M, stepped in lockstep: each round
    evaluates the windows of every key still unresolved together.

    A round pads each window to the round's widest with -inf, and makes one
    kernel call per group of keys whose windows fill ``_BATCH_ENTRIES``
    candidates. Every key has a collided slot, so its candidates are at least
    M+1, where every log-probability is finite. A class with no slots then
    adds a zero, and each row's values are exactly ``_log_posterior_array``'s.
    """
    L, E, S, C, Ms, k_min = np.array(keys).T
    M = int(Ms[0])
    modes = [0] * len(keys)
    # (row, its search, its window) for every key still unresolved, in key order
    live = []
    for row, (lo, hi) in enumerate(zip(k_min.tolist(), (10 * L * M).tolist())):
        search = _window_search(lo, hi)
        live.append((row, search, next(search)))
    while live:
        rows = np.array([row for row, _, _ in live])
        lo, size = np.array([window for _, _, window in live]).T
        offsets = np.arange(size.max())
        step = max(1, _BATCH_ENTRIES // offsets.size)
        i = np.empty(rows.size, dtype=np.int64)
        for start in range(0, rows.size, step):
            part = slice(start, start + step)
            r = rows[part, None]
            log_e, log_s, log_c = log_slot_probabilities((lo[part, None] + offsets) / L[r], M)
            values = E[r] * log_e + S[r] * log_s + C[r] * log_c
            values[offsets >= size[part, None]] = -np.inf
            i[part] = values.argmax(axis=1)
        unresolved = []
        for (row, search, _), offset in zip(live, i.tolist()):
            try:
                unresolved.append((row, search, search.send(offset)))
            except StopIteration as done:
                modes[row] = done.value
        live = unresolved
    for key, mode in zip(keys, modes):
        _remember(key, mode)
    return modes


def map_estimate(obs: FrameObservation, mpr: MprOrder) -> MapEstimate:
    """Integer argmax of the posterior over [k_min, 10*L*M]; ties go to the smaller k.

    An all-collided frame gives the cap itself, and the estimate is
    ``saturated``. Answers are remembered in the memo that
    ``population_estimates`` shares, keyed on the tallies, M and k_min.
    """
    _require_valid_tallies(obs, mpr)
    k_min = search_lower_bound(obs, mpr)
    key = (obs.L, obs.E, obs.S, obs.C, mpr.M, k_min)
    n_hat = _mode_without_search(key)
    if n_hat is None:
        n_hat = _search(key)
    return MapEstimate(n_hat, k_min, 10 * obs.L * mpr.M)


def population_estimates(frames: Iterable[FrameObservation], mpr: MprOrder) -> list[int]:
    """Tags that replied in each frame: exact without a collision, else the MAP estimate.

    A frame with no collided slot decoded every tag that replied, so its
    count is ``identified``; any other frame's is ``map_estimate(obs,
    mpr).n_hat``. Frames with the same key share one answer, remembered
    answers are reused, and the rest are searched together.
    """
    frames = list(frames)
    keys = []
    for obs in frames:
        _require_valid_tallies(obs, mpr)
        if obs.C == 0:
            keys.append(None)
        else:
            keys.append((obs.L, obs.E, obs.S, obs.C, mpr.M, search_lower_bound(obs, mpr)))
    modes = {key: _mode_without_search(key) for key in dict.fromkeys(keys) if key is not None}
    misses = [key for key, mode in modes.items() if mode is None]
    if misses:
        modes.update(zip(misses, _search_rows(misses)))
    return [obs.identified if key is None else modes[key] for obs, key in zip(frames, keys)]


def population_estimate(obs: FrameObservation, mpr: MprOrder) -> int:
    """``population_estimates`` of one frame."""
    return population_estimates([obs], mpr)[0]


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
