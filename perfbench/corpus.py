"""Seeded corpus of distinct frame observations and an independent MAP oracle.

The corpus is drawn by this benchmark's own occupancy sampler (uniform slot
choice per tag, then a bincount), not by ``dfsa_mpr.protocol``, so the
estimator is measured on inputs the simulator did not shape. Every
observation has a distinct (L, E, S, C, M) key: a memo on the estimator sees
no repeats here.

The oracle evaluates the same trinomial posterior at every candidate of a
range, with its own evaluation (Horner-form sums and a split of the collision
tail at x = M+1), and shares no code with ``dfsa_mpr.estimator``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

L_MIN, L_MAX = 16, 4096
M_MAX = 8
#: share of the corpus that is all-collided frames (E = S = 0, C = L)
ALL_COLLIDED_SHARE = 0.03
#: load range, as a multiple of the efficiency-optimal load (M!)^(1/M)
LOAD_MIN, LOAD_MAX = 0.1, 4.0
#: redraws inside a stratum before an observation is drawn outside the strata
_ATTEMPTS_PER_STRATUM = 20


@dataclass(frozen=True)
class Observation:
    L: int
    E: int
    S: int
    C: int
    identified: int
    M: int

    @property
    def key(self) -> tuple[int, int, int, int, int]:
        return (self.L, self.E, self.S, self.C, self.M)

    @property
    def all_collided(self) -> bool:
        return self.C == self.L


def _log_uniform_length(u: float, l_max: int) -> int:
    return min(l_max, int(L_MIN * (l_max / L_MIN) ** u))


def _occupancy(rng: np.random.Generator, n: int, L: int, M: int) -> Observation:
    counts = np.bincount(rng.integers(0, L, size=n), minlength=L)
    success = (counts >= 1) & (counts <= M)
    E = int(np.count_nonzero(counts == 0))
    S = int(np.count_nonzero(success))
    return Observation(L, E, S, L - E - S, int(counts[success].sum()), M)


def sample_corpus(seed: int, size: int, l_max: int = L_MAX) -> list[Observation]:
    """``size`` distinct observations: L log-uniform in [16, l_max], M in 1..8.

    About 3% are all-collided frames; the rest come from the occupancy
    sampler at loads from 0.1x to 4x the optimal load. The estimator's cost
    grows with L (and with L*M on all-collided frames), so these are drawn
    stratified: the seed moves every input, but the cost distribution, and
    with it the tail percentiles, stays the same from one seed to the next.
    """
    rng = np.random.default_rng(seed)
    seen: set[tuple[int, int, int, int, int]] = set()
    corpus: list[Observation] = []

    def take(stratified: Callable[[], Observation], free: Callable[[], Observation]) -> None:
        # a narrow stratum (small frames at light load, say) has few distinct
        # outcomes; once they are taken, draw outside the strata
        attempt = 0
        while True:
            obs = stratified() if attempt < _ATTEMPTS_PER_STRATUM else free()
            attempt += 1
            if obs.key not in seen:
                seen.add(obs.key)
                corpus.append(obs)
                return

    # an all-collided frame scans every candidate up to 10*L*M, so its cost
    # is set by the product L*M. The products sit at the midpoints of equal
    # log-uniform strata of [16, 8*l_max] (the largest strata carry most of
    # the cost, so a random point inside them would move the total from seed
    # to seed); the seed picks how each product splits into (L, M).
    def all_collided(u: float) -> Observation:
        product = L_MIN * (M_MAX * l_max / L_MIN) ** u
        M = int(rng.integers(max(1, math.ceil(product / l_max)),
                             min(M_MAX, math.floor(product / L_MIN)) + 1))
        L = min(l_max, max(L_MIN, round(product / M)))
        return Observation(L, 0, 0, L, 0, M)

    n_collided = round(ALL_COLLIDED_SHARE * size)
    for i in range(n_collided):
        take(lambda: all_collided((i + 0.5) / n_collided), lambda: all_collided(rng.random()))

    # the rest are stratified jointly: an equal share per M, and for each M a
    # grid over (log L, log load) with one observation per cell
    def natural(M: int, u_length: float, u_load: float) -> Observation:
        L = _log_uniform_length(u_length, l_max)
        factor = LOAD_MIN * (LOAD_MAX / LOAD_MIN) ** u_load
        obs = _occupancy(rng, max(1, round(factor * math.factorial(M) ** (1.0 / M) * L)), L, M)
        # all-collided frames come only from the set above: this key is taken
        return corpus[0] if obs.all_collided else obs

    n_natural = size - n_collided
    for M in range(1, M_MAX + 1):
        count = n_natural // M_MAX + (M <= n_natural % M_MAX)
        rows = math.ceil(math.sqrt(count))
        cols = math.ceil(count / rows) if count else 0
        for cell in rng.permutation(rows * cols)[:count]:
            row, col = divmod(int(cell), cols)
            take(lambda: natural(M, (row + rng.random()) / rows, (col + rng.random()) / cols),
                 lambda: natural(M, rng.random(), rng.random()))

    order = rng.permutation(len(corpus))
    return [corpus[i] for i in order]


def consistency_bound(obs: Observation) -> int:
    """Smallest population the tallies allow: the decoded tags plus M+1 per collision."""
    return max(obs.identified, obs.S) + (obs.M + 1) * obs.C


#: series terms past x^(M+1)/(M+1)! summed for the collision tail; with
#: x <= M+1 the omitted remainder is below 1e-17 of the sum for every M
_TAIL_TERMS = 40


def _horner(x: np.ndarray, first: int, last: int) -> np.ndarray:
    """1 + x/(first+1) (1 + x/(first+2) (... (1 + x/last)))."""
    acc = np.ones_like(x)
    for j in range(last, first, -1):
        acc *= x
        acc *= 1.0 / j
        acc += 1.0
    return acc


def oracle_log_posterior(obs: Observation, k_lo: int, k_hi: int) -> np.ndarray:
    """Coefficient-free log posterior at every k in [k_lo, k_hi].

    log P(k) = -k + S log sum_{j=1..M} x^j/j! + C log sum_{j>M} x^j/j!,
    with x = k/L, each sum in Horner form. The collision tail is the series
    x^(M+1)/(M+1)! (1 + x/(M+2) (1 + ...)) where x <= M+1, and
    e^x (1 - e^-x T_M(x)) above that, T_M being the order-M Taylor sum of e^x.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return _oracle_log_posterior(obs, k_lo, k_hi)


def _oracle_log_posterior(obs: Observation, k_lo: int, k_hi: int) -> np.ndarray:
    ks = np.arange(k_lo, k_hi + 1, dtype=float)
    x = ks / obs.L
    log_x = np.log(x)
    M = obs.M
    out = -ks
    if obs.S:
        # sum_{j=1..M} x^j/j! = x (1 + x/2 (1 + ... (1 + x/M)))
        out = out + obs.S * (log_x + np.log(_horner(x, 1, M)))
    if obs.C:
        tail = np.empty_like(x)
        low = x <= M + 1
        xl = x[low]
        tail[low] = (
            (M + 1) * log_x[low]
            - math.lgamma(M + 2)
            + np.log(_horner(xl, M + 1, M + 1 + _TAIL_TERMS))
        )
        xh = x[~low]
        below = np.exp(np.log(_horner(xh, 0, M)) - xh)
        tail[~low] = xh + np.log1p(-below)
        out = out + obs.C * tail
    return out


def oracle_mismatch(obs: Observation, n_hat: int, k_min: int, k_max: int) -> bool:
    """True when n_hat is not a brute-force argmax of the posterior over [k_min, k_max].

    A candidate whose posterior equals the maximum to within floating-point
    rounding counts as an argmax, so a near-tie between neighbours is not a
    mismatch.
    """
    values = oracle_log_posterior(obs, k_min, k_max)
    best = float(values.max())
    at_estimate = float(values[n_hat - k_min])
    return best - at_estimate > 1e-9 * (1.0 + abs(best))
