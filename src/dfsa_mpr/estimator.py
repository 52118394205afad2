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

Any other frame is searched in rounds, which relies on the log posterior
being concave in k. This is proved, term by term in x = k/L (the map
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

The search sees rounded values, so it is exact only where the rounded
posterior is still concave near its mode. That is checked up to L = 4,096
and M = 8 by property tests (second differences up to L = 2,048), and the
answers matched a high-precision mode on a sample up to L = 10^6. From about
L = 10^7 the rounding error of f(k), O(eps L), outgrows the differences
between neighbouring candidates, and known answers miss the mode.

The search runs windows, then probe rounds, then a last window, and no
round evaluates more than 256 candidates for one frame. The first window
holds 64 candidates from k_min, cut at k_max, and gives its first argmax,
so ties go to the smaller k. An argmax with a candidate after it in the
window is final: a concave sequence that has stopped rising never rises
again. An argmax on the window's last candidate below k_max starts the
second window there, of 256 candidates.

Past the 256-candidate window the posterior rises into its last candidate
a, so the mode lies in [a, k_max]. The search brackets it in [a, b], and b
is proved once the mode is known to be at most b. The first b is a + 3 D,
with D the distance at which the window's first differences, falling on at
the rate they fall over its last 64 candidates, would reach zero; it is
k_max, and so proved, where they do not fall or where a + 3 D passes
k_max. While the bracket holds 256 candidates or more, a round evaluates
32 probe pairs (p, p+1), at the points that cut [a, b] into 33 equal
parts, and one more at p = b while b is not proved. The differences
of a concave sequence never increase, so the mode is the first k with
f(k+1) <= f(k): the first pair that stops rising sets b = p, now proved,
and a becomes one past the probe before it. If every pair rises, a becomes
one past the last probe, and b becomes k_max. Each round narrows the
bracket about 33-fold, and one window over the last bracket, of at most
255 candidates and one past b while b is not proved, gives its first
argmax, unless it still rises into b + 1: then the search goes on over
[b + 1, k_max]. A tie inside a pair turns it down, so ties still go to the
smaller k, and D only decides how many rounds a search takes, never its
answer. Many narrow rounds beat few wide ones because a kernel call costs
about as much before its first candidate as several hundred candidates do.
Of the 949 searches of the ``estimate_analyze`` corpus (seeds 1-3) that
reach this phase, 816 took five kernel calls, 128 four and 5 six from the
bracket [a, k_max]; from [a, a + 3 D], 100 take three, 741 four and 108
five.

Every candidate is held in int64, so a frame that needs a search and whose
k_max exceeds 2^63 - 1 raises ValueError before any kernel call. A
candidate costs O(M): the kernel itself refuses an M past
``prob_model.KERNEL_M_MAX`` before any O(M) work, and a ``posterior_curve``
whose candidates times M pass ``prob_model``'s curve budget raises
ValueError before any kernel call.

This rule lives in one generator, ``_window_search``, which yields each
round's candidates and is sent their values, and two drivers step it.
``map_estimate`` evaluates one frame's rounds one kernel call each.
``population_estimates`` steps the searches of many frames of one M in
lockstep, in chunks of at most 1,024 frames: each round of a chunk
evaluates the candidates of every frame still unresolved in one kernel
call, over a 2-D array. Each kernel value depends on its own load only, so
both give the same answers bit for bit. Both return ``MapEstimate``
records, with k_min, k_max and ``saturated``, so no caller computes the
bounds, and ``population_estimates`` counts a collision-free frame exactly.

Answers are remembered per process in one memo that ``map_estimate`` and
``population_estimates`` share: up to 16,384 keys (L, E, S, C, M, k_min,
k_max), and emptied when full. ``identified`` enters the key only through
k_min, and k_max follows from L and M. An all-collided frame needs no
search and is not stored.

Kernel rows are kept too, for the searches of a DFSA run alone
(``map_estimate(..., keep_rows=True)``, as ``protocol`` calls it), since a
run searches frames of the same length again and again while a batch of
unrelated frames rarely does. Each (L, M) keeps one run: the rows log p_s
and log p_c over consecutive candidates (log p_e is -k/L and is not kept).
Each of a search's two windows from k_min that lies inside the run is
sliced from it with no kernel call. One that overlaps or touches the run
evaluates, in one kernel call, only the candidates the run lacks, plus a
margin of 16 candidates on each side where it extends the run, and joins
them to it. Any other evaluates the window plus the margin on both sides,
and that becomes the run of its (L, M) in place of the old one, since the
next frames of that length search nearby. No margin reaches below M + 1,
where a search window with C >= 1 starts at the least. The second window
starts on the first one's last candidate, so it never misses the run, and
its kernel call holds at most 255 + 16 candidates. Probe rounds and the
last window call the kernel as before. The runs hold at most 2^18
candidates in all, 16 bytes each (4 MiB), and are all emptied when full,
like the memo. A served value is the kernel's own, bit for bit: each kernel
value depends on its own load only, a load k/L is the same float64 in any
array, and the posterior is summed in the same order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Generator, Iterable, Iterator, Optional

import numpy as np

from .prob_model import (
    MprOrder,
    curve_chunks,
    log_slot_probabilities,
    require_count,
    require_curve_budget,
)

#: candidates in the two windows of the mode search, the second of them
#: also the most candidates any round evaluates, and the probe pairs of a
#: round that brackets a far mode
_WINDOWS = (64, 256)
_PROBE_PAIRS = 32

#: the offsets of a probe pair (p, p + 1) from its probe p
_PAIR = np.array([0, 1])

#: the first probe bracket of a far mode reaches ``_REACH`` times the distance
#: at which the 256-candidate window's first differences, falling at their
#: rate over its last ``_SPAN`` candidates, reach zero. Kernel calls on the
#: ``estimate_analyze`` corpus at seeds 1-3, the DFSA and FSA halves of the
#: 20-trial paper grid and 3,003 frames with C >= 3L/4 (L 16..4,096, M 1..8)
#: were 11,837, 1,605, 92 and 10,987 with the bracket [a, k_max]; 11,030,
#: 1,517, 90 and 10,246 at reach 2; 11,019, 1,525, 87 and 9,896 at 3; and
#: 11,091, 1,543, 88 and 9,948 at 4. At reach 3, spans of 32 to 128 made
#: 11,012 to 11,022 corpus calls, and the whole window's 254 made 94 FSA calls
_SPAN = 64
_REACH = 3.0

#: the largest int64, which numpy holds candidates and slots in: it bounds
#: the search cap here and the initial frame length in ``protocol``
_INT64_MAX = 2**63 - 1

#: keys that one lockstep search steps together, so that no round holds
#: more than this many rows of at most ``_WINDOWS[-1]`` candidates
_BATCH_ROWS = 1024

#: what a posterior mode depends on, with its search bounds: (L, E, S, C, M, k_min, k_max)
_MemoKey = tuple[int, int, int, int, int, int, int]

#: the most keys whose posterior mode a process remembers; a full memo is
#: emptied before it takes the next key
_MEMO_SIZE = 2**14
_memo: dict[_MemoKey, int] = {}

#: the most candidates whose kernel rows the runs hold together, 16 bytes
#: each, so 4 MiB; full runs are all emptied before they take more. The DFSA
#: half of the paper grid (seed 1, its cells in one process) holds at most
#: 126,611 candidates at 20 trials, 235,722 at 100 and 262,129 at 500, and
#: empties the runs 0, 0 and 1 times; its kernel calls fall from 2,941, 11,008
#: and 34,454 with runs of 2^16 and no margin to 1,605, 3,454 and 7,658. At
#: 2^17, 100 trials take 4,940 calls, and at 2^19 as many as at 2^18
_RUN_SIZE = 2**18

#: the candidates a window that misses or extends its run also evaluates on
#: each side it extends, since the next frames of that length search nearby
_RUN_MARGIN = 16


class _Runs(dict):
    """(L, M) -> (k0, log p_s, log p_c), the kernel's rows over the
    consecutive candidates k0, k0 + 1, ...; ``size`` counts the candidates
    held."""

    size = 0

    def clear(self) -> None:
        super().clear()
        self.size = 0


_runs = _Runs()


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
        # numpy counts become Python ints, so no sum or cap of them wraps at 2**63
        if not (type(self.L) is type(self.E) is type(self.S) is type(self.C)
                is type(self.identified) is int):
            for name in ("L", "E", "S", "C", "identified"):
                object.__setattr__(self, name, int(getattr(self, name)))
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


def _log_posterior_array(
    ks: np.ndarray, L: int, E: int, S: int, C: int, M: int, rows: tuple = ()
) -> np.ndarray:
    """The log posterior at candidates ks, from the kernel's ``rows`` at ks
    when they are given."""
    log_e, log_s, log_c = rows or log_slot_probabilities(ks / L, M)
    # a class with no slots contributes nothing, even where its probability is 0
    out = E * log_e
    if S > 0:
        out += S * log_s
    if C > 0:
        out += C * log_c
    return out


def _window_rows(ks: np.ndarray, L: int, M: int) -> tuple[np.ndarray, ...]:
    """The kernel's rows (log p_e, log p_s, log p_c) at the consecutive
    candidates ``ks`` of a frame of L slots, served from the run of (L, M)
    where ks lies inside it. Otherwise the kernel evaluates the candidates
    that the run lacks, plus ``_RUN_MARGIN`` on each side that ks extends,
    and joins them to it, if ks overlaps or touches the run; or it evaluates
    ks plus the margin on both sides and keeps that as the run in place of
    the old one. No margin reaches below M + 1 or makes a run alone pass
    ``_RUN_SIZE``. Runs that a window would overfill are all emptied first."""
    lo, n = int(ks[0]), ks.size
    hi = lo + n
    # the margins' ends; no search window starts below M + 1 (C >= 1)
    low, high = min(lo, max(lo - _RUN_MARGIN, M + 1)), hi + _RUN_MARGIN
    run = _runs.get((L, M))
    if run is not None:
        k0, log_s, log_c = run
        held, i = log_s.size, lo - k0
        if 0 <= i <= held - n:
            # log p_e = -k/L, bit for bit: IEEE division is symmetric in sign
            return ks / -L, log_s[i:i + n], log_c[i:i + n]
        # the joined run's ends: a margin on each side that ks extends
        start = low if lo < k0 else k0
        stop = high if hi > k0 + held else k0 + held
        if lo <= k0 + held and hi >= k0 and _runs.size - held + stop - start <= _RUN_SIZE:
            lacking = np.concatenate((np.arange(start, k0), np.arange(k0 + held, stop)))
            _, new_s, new_c = log_slot_probabilities(lacking / L, M)
            left = k0 - start
            log_s = np.concatenate((new_s[:left], log_s, new_s[left:]))
            log_c = np.concatenate((new_c[:left], log_c, new_c[left:]))
            _runs[L, M] = (start, log_s, log_c)
            _runs.size += stop - start - held
            i = lo - start
            return ks / -L, log_s[i:i + n], log_c[i:i + n]
        _runs.size -= held
    if high - low > _RUN_SIZE:
        low, high = lo, hi
    if _runs.size + high - low > _RUN_SIZE:
        _runs.clear()
    _, log_s, log_c = log_slot_probabilities(np.arange(low, high) / L, M)
    # copies, so that a run holds no row of log p_e
    log_s, log_c = log_s.copy(), log_c.copy()
    _runs[L, M] = (low, log_s, log_c)
    _runs.size += high - low
    i = lo - low
    return ks / -L, log_s[i:i + n], log_c[i:i + n]


def _frame_key(obs: FrameObservation, mpr: MprOrder) -> _MemoKey:
    """The frame's key, where its search bounds are computed: k_min, the
    identified tags plus M+1 per collision (Vogt's lower bound at M = 1, which
    next-frame sizing relies on), and k_max = 10*L*M. Raises ValueError unless
    the decoded tags fit in the S slots at MPR order M (``FrameObservation``
    checks every other rule)."""
    M = mpr.M
    if obs.identified > obs.S * M:
        raise ValueError(f"{obs.identified} tags cannot fit in {obs.S} slots at MPR order {M}")
    return (obs.L, obs.E, obs.S, obs.C, M, obs.identified + (M + 1) * obs.C, 10 * obs.L * M)


def _window_search(lo: int, hi: int) -> Generator[np.ndarray, np.ndarray, int]:
    """The rule of the mode search over [lo, hi] (see the module docstring).

    Yields each round's candidates and is sent their values; returns the
    first argmax over [lo, hi] of a function concave on the integers.
    Raises ValueError if hi does not fit in int64.
    """
    if hi > _INT64_MAX:
        raise ValueError(f"the search cap 10*L*M = {hi} exceeds 2**63 - 1")
    for width in _WINDOWS:
        size = min(width, hi - lo + 1)
        values = yield np.arange(lo, lo + size)
        i = int(values.argmax())
        if i < size - 1 or lo + i == hi:
            return lo + i
        lo += i
    # the values rise into lo, so the mode lies in [lo, hi]; no probe pair has
    # shown that it lies in [lo, top] while top < hi
    top = _bracket_top(values, lo, hi)
    while True:
        while top - lo + 1 >= _WINDOWS[-1]:
            # probe pairs at the 32 points that cut [lo, top] into 33 equal
            # parts (j (top - lo) // 33, without overflow), and at top itself
            # while top < hi; narrow to the first pair that stops rising
            j = np.arange(1, _PROBE_PAIRS + 1 + (top < hi))
            step, rest = divmod(top - lo, _PROBE_PAIRS + 1)
            probes = lo + j * step + j * rest // (_PROBE_PAIRS + 1)
            values = yield (probes[:, None] + _PAIR).ravel()
            down = values[1::2] <= values[::2]
            i = int(down.argmax())
            if down[i]:
                lo, hi = (lo if i == 0 else int(probes[i - 1]) + 1), int(probes[i])
            else:
                lo = int(probes[-1]) + 1
            top = hi
        # a window over [lo, top], and one past top while top < hi: a window
        # that still rises into top + 1 leaves the mode in [top + 1, hi]
        mode = lo + int((yield np.arange(lo, top + 1 + (top < hi))).argmax())
        if mode <= top:
            return mode
        lo, top = mode, hi


def _bracket_top(window: np.ndarray, lo: int, hi: int) -> int:
    """The top of the first bracket [lo, top] of the probe phase, given the
    values of a window that rise into its last candidate lo: lo plus
    ``_REACH`` times the distance at which its first differences, falling as
    they fall over its last ``_SPAN`` candidates, would reach zero. It is hi
    where the differences do not fall, or where that top would pass hi."""
    rise = window[-1] - window[-2]
    fall = window[-_SPAN - 1] - window[-_SPAN - 2] - rise
    reach = _REACH * _SPAN * rise
    if fall > 0 and reach < fall * (hi - lo):
        return lo + math.ceil(reach / fall)
    return hi


def _mode_without_search(key: _MemoKey) -> Optional[int]:
    """The posterior mode where no search is needed, else None: the cap for
    an all-collided frame, or the memo's answer."""
    L, E, S, C, M, k_min, k_max = key
    # P(X > M)^L rises strictly in k when every slot collided: the argmax is the cap
    if C == L:
        return k_max
    return _memo.get(key)


def _remember(key: _MemoKey, mode: int) -> None:
    if len(_memo) >= _MEMO_SIZE:
        _memo.clear()
    _memo[key] = mode


def _search_rows(keys: list[_MemoKey]) -> list[int]:
    """The searches of at most ``_BATCH_ROWS`` keys of one M in lockstep: each
    round evaluates every unresolved key's candidates in one kernel call.

    A round fills one int64 block with each key's candidates, padded to the
    round's widest with its last candidate, and each search is sent its own
    values only. Every key has a collided slot, so its candidates are at
    least M+1, where every log-probability is finite. A class with no slots
    then adds a zero, and each row's values are exactly
    ``_log_posterior_array``'s.
    """
    M = keys[0][4]
    modes = [0] * len(keys)
    # (row, its search, its candidates) for every key still unresolved, in
    # key order; the caps are Python ints, checked before any numpy array
    live = []
    for row, (*_, k_min, k_max) in enumerate(keys):
        search = _window_search(k_min, k_max)
        live.append((row, search, next(search)))
    L, E, S, C = np.array([key[:4] for key in keys]).T
    while live:
        width = max(ks.size for _, _, ks in live)
        block = np.empty((len(live), width), dtype=np.int64)
        for i, (_, _, ks) in enumerate(live):
            block[i, :ks.size] = ks
            if ks.size < width:
                block[i, ks.size:] = ks[-1]
        r = np.array([[row] for row, _, _ in live])
        log_e, log_s, log_c = log_slot_probabilities(block / L[r], M)
        values = E[r] * log_e + S[r] * log_s + C[r] * log_c
        unresolved = []
        for (row, search, ks), row_values in zip(live, values):
            try:
                unresolved.append((row, search, search.send(row_values[: ks.size])))
            except StopIteration as done:
                modes[row] = done.value
        live = unresolved
    for key, mode in zip(keys, modes):
        _remember(key, mode)
    return modes


def map_estimate(obs: FrameObservation, mpr: MprOrder, *, keep_rows: bool = False) -> MapEstimate:
    """Integer argmax of the posterior over [k_min, 10*L*M]; ties go to the smaller k.

    An all-collided frame gives the cap itself, and the estimate is
    ``saturated``. Answers are remembered in the memo that
    ``population_estimates`` shares, keyed on the tallies, M and k_min. With
    ``keep_rows``, windows are served from and kept in the kernel rows of
    (L, M), which pays where lengths repeat, as in a DFSA run.
    Any other frame whose cap 10*L*M exceeds 2**63 - 1 raises ValueError,
    and so does the kernel at an M past ``KERNEL_M_MAX``.
    """
    key = _frame_key(obs, mpr)
    L, E, S, C, M, k_min, k_max = key
    n_hat = _mode_without_search(key)
    if n_hat is None:
        search = _window_search(k_min, k_max)
        ks = next(search)
        try:
            if keep_rows:
                for _ in _WINDOWS:  # the windows of consecutive candidates from k_min
                    ks = search.send(_log_posterior_array(ks, L, E, S, C, M, _window_rows(ks, L, M)))
            while True:
                ks = search.send(_log_posterior_array(ks, L, E, S, C, M))
        except StopIteration as done:
            n_hat = done.value
        _remember(key, n_hat)
    return MapEstimate(n_hat, k_min, k_max)


def population_estimates(frames: Iterable[FrameObservation], mpr: MprOrder) -> list[MapEstimate]:
    """Each frame's estimate of the tags that replied: exact without a collision, else MAP.

    A frame with no collided slot decoded every tag that replied, so its
    estimate is ``MapEstimate(identified, identified, 10*L*M)``, which is
    never ``saturated``; any other frame's is ``map_estimate(obs, mpr)``.
    Frames with the same key share one answer, remembered answers are
    reused, and the rest are searched together. A frame that needs a search
    and whose cap 10*L*M exceeds 2**63 - 1 raises ValueError, and so does
    the kernel when a search is at an M past ``KERNEL_M_MAX``.
    """
    keys = [_frame_key(obs, mpr) for obs in frames]
    modes = {}
    for key in dict.fromkeys(keys):
        L, E, S, C, M, k_min, k_max = key
        # without collisions, k_min is identified itself
        modes[key] = _mode_without_search(key) if C else k_min
    misses = [key for key, mode in modes.items() if mode is None]
    for start in range(0, len(misses), _BATCH_ROWS):
        chunk = misses[start:start + _BATCH_ROWS]
        modes.update(zip(chunk, _search_rows(chunk)))
    return [MapEstimate(modes[key], *key[5:]) for key in keys]


def posterior_curve(
    obs: FrameObservation, mpr: MprOrder, k_range: range
) -> Iterator[tuple[int, float]]:
    """Posterior over k_range, normalized to sum to 1 (plot data for the MAP
    curve), as an iterator of (k, probability) in the range's order.

    ``k_range`` must be a non-empty ``range`` of candidates >= 0, in either
    direction, within ``prob_model``'s budget of candidates times M; the
    kernel refuses an M past ``KERNEL_M_MAX``. Every check, and all kernel
    work, is done in the call: the kernel fills one float64 array of log
    posteriors one chunk of candidates at a time, and the array is
    max-shifted, exponentiated and summed in place. The pairs are then built
    one chunk at a time as they are read.
    """
    _frame_key(obs, mpr)  # checks the decoded tags against M
    if not isinstance(k_range, range) or not k_range or min(k_range[0], k_range[-1]) < 0:
        raise ValueError("k_range must be a non-empty range of candidates >= 0")
    # len() of a range fails past sys.maxsize
    candidates = (k_range[-1] - k_range[0]) // k_range.step + 1
    require_curve_budget("a posterior curve", candidates, mpr.M)
    # the log posteriors, made the unnormalized weights in place below
    weights = np.empty(candidates)
    start = 0
    for ks in curve_chunks(k_range):
        weights[start:start + len(ks)] = _log_posterior_array(
            np.arange(ks.start, ks.stop, ks.step), obs.L, obs.E, obs.S, obs.C, mpr.M
        )
        start += len(ks)
    peak = float(np.max(weights))
    if peak == -math.inf:
        raise ValueError("posterior vanishes on the whole range")
    weights -= peak
    np.exp(weights, out=weights)
    return _curve_points(k_range, weights, weights.sum())


def _curve_points(
    k_range: range, weights: np.ndarray, total: float
) -> Iterator[tuple[int, float]]:
    """(k, weight / total) over k_range, one chunk of Python objects at a time."""
    start = 0
    for ks in curve_chunks(k_range):
        yield from zip(ks, (weights[start:start + len(ks)] / total).tolist())
        start += len(ks)
