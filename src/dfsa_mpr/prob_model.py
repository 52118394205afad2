"""Slot-occupancy statistics for framed slotted ALOHA with a multi-packet reader.

Closed forms (Poisson approximation) for the probability that a slot of an
L-slot frame is empty, successful, or collided when n tags each pick one slot
uniformly at random and the reader can decode up to M simultaneous replies.
All three come from one vectorized log-domain kernel,
``log_slot_probabilities``, which the estimator evaluates over whole ranges
of candidate populations; ``channel_efficiency`` is its successful term.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np
from numpy.typing import ArrayLike


def require_count(name: str, value, least: int) -> None:
    """Raise ValueError unless ``value`` is an integer (not a bool) >= ``least``."""
    # an exact int skips the slower Integral ABC check
    if type(value) is not int and (
        isinstance(value, bool) or not isinstance(value, numbers.Integral)
    ):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


#: the largest M the kernel is run at: a load costs about 40 ns per unit of
#: M on a 2-vCPU host (the 10-slot frame's search at 10^5 took 2.3 s for 584
#: loads, and 2.5 s for 615 with kept rows; 2.6 s for 529 loads since its
#: first probe bracket is predicted), and a search evaluates at most 1,566
#: loads: its two windows, 320, and the margins of kept rows, 31; a window of
#: 256 past a predicted bracket that the mode lies beyond; 11 probe rounds of
#: 64, which narrow any bracket below 2^63 to fewer than 256 candidates; and
#: a last window of 255. So at 10^5 a search takes at most about 6 s (at 10^6
#: that frame took 27 s)
KERNEL_M_MAX = 10**5

#: the most loads times M that one curve or table asks of the kernel
#: (``estimator.posterior_curve``, ``harness.efficiency_curve`` and
#: ``harness.optimal_length_table``). At M = 1 on a 2-vCPU host, a curve at
#: this budget took 1.1 s at a peak of 108 MB from ``posterior_curve``, read
#: to its end, and 10.7 s at 1.03 GB from ``efficiency_curve``, which returns
#: the whole text; through the CLI, which streams the lines,
#: ``estimate --curve-out`` took 9.3-10.5 s at 109 MB and
#: ``analyze --efficiency-curve`` 10.3-10.4 s at 36 MB
_CURVE_BUDGET = 10**7

#: the candidates, lengths or tag counts of a curve or table that become
#: Python objects at a time (``curve_chunks``), so a curve at the budget holds
#: one chunk of rows, not all of them
_CURVE_CHUNK = 2**14


def require_curve_budget(what: str, loads: int, M: int) -> None:
    """Raise ValueError, before anything is allocated, if ``loads`` kernel
    loads at MPR order M pass ``_CURVE_BUDGET``; ``what`` names the request."""
    if loads * M > _CURVE_BUDGET:
        raise ValueError(
            f"{what} of {loads} candidates at MPR order {M} exceeds"
            f" the budget of {_CURVE_BUDGET} candidates times M"
        )


def curve_chunks(values: Sequence) -> Iterator[Sequence]:
    """Consecutive slices of ``_CURVE_CHUNK`` items of ``values``; a slice of
    a range is a range, in the same direction and step."""
    for start in range(0, len(values), _CURVE_CHUNK):
        yield values[start:start + _CURVE_CHUNK]


@dataclass(frozen=True)
class MprOrder:
    """Reader reception capability: up to M simultaneous tag replies decode."""

    M: int

    def __post_init__(self) -> None:
        require_count("MPR order", self.M, 1)
        object.__setattr__(self, "M", int(self.M))  # a numpy M would wrap 10*L*M


#: the collision-tail series stops once a term at x = M+1, its worst case,
#: falls below this fraction of the first (for M up to 10^6 the remainder is
#: then under 2^-53 of the sum)
_TAIL_TOLERANCE = 2.0 ** -60

#: (M + 1) x candidates per block, and at least 2, since a lone candidate is
#: evaluated as a pair. The successful term holds M rows per candidate and the
#: tail series O((M + 1)^(1/2)), so memory stays small for any M
_BLOCK_ENTRIES = 2 ** 13

#: shift for an all -inf column (x = 0), so that it sums to -inf, not nan
_FLOAT_MIN = np.finfo(float).min


@dataclass(frozen=True)
class _KernelConstants:
    """Everything in the kernel that depends on M alone, built once per M."""

    M: int
    #: column j = 1..M and log j! of the successful term
    j: np.ndarray
    log_factorials: np.ndarray
    #: column i = 1..n and weights d_i of the collided tail series
    tail_powers: np.ndarray
    tail_weights: np.ndarray
    #: log (M+1)!
    log_first_tail: float


@functools.lru_cache(maxsize=64)
def _kernel_constants(M: int) -> _KernelConstants:
    """The per-M constants. The tail series is as long as it must be at its
    worst case x = M+1, not at the largest load of a call, so a value at x
    does not depend on the other loads in the same call.
    """
    weights, weight = [], 1.0
    while weight > _TAIL_TOLERANCE:
        weight *= (M + 1) / (M + 2 + len(weights))
        weights.append(weight)
    return _KernelConstants(
        M=M,
        j=np.arange(1.0, M + 1)[:, None],
        log_factorials=np.array([math.lgamma(i + 1) for i in range(1, M + 1)])[:, None],
        tail_powers=np.arange(1.0, len(weights) + 1)[:, None],
        tail_weights=np.array(weights),
        log_first_tail=math.lgamma(M + 2),
    )


def _log_collided_series(
    x: np.ndarray, log_x: np.ndarray, k: _KernelConstants, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """log P(X > M) for x < M+1, given log x, into ``out`` and returned:
    x^(M+1)/(M+1)! (1 + x/(M+2) + ...) e^-x.

    With u = x/(M+1) < 1 the bracket is sum_i d_i u^i, where
    d_i = prod_{l=1..i} (M+1)/(M+1+l) is its value at x = M+1: every d_i
    lies in (0, 1], so nothing cancels, overflows or underflows.
    """
    if x.size == 1:  # as a pair, for the reason given in _log_slot_block
        pair = _log_collided_series(np.repeat(x, 2), np.repeat(log_x, 2), k)
        if out is None:
            return pair[:1]
        out[:] = pair[:1]
        return out
    M = k.M
    log_u = x / (M + 1)
    powers = k.tail_powers * np.log(log_u, out=log_u)
    np.exp(powers, out=powers)
    series = np.einsum("i,ij->j", k.tail_weights, powers)
    # ((M+1) log x - log (M+1)!) + log1p(series) - x, in that order, in place
    out = np.multiply(log_x, M + 1, out=out)
    out -= k.log_first_tail
    out += np.log1p(series, out=series)
    out -= x
    return out


def _log_complement(
    log_e: np.ndarray, log_s: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """log(1 - P(X <= M)) into ``out`` and returned, for x >= M+1: there the
    Poisson median (>= x - ln 2) exceeds M, so P(X <= M) < 1/2 and log1p(-P)
    is the accurate form."""
    out = np.logaddexp(log_e, log_s, out=out)
    np.exp(out, out=out)
    np.negative(out, out=out)
    return np.log1p(out, out=out)


def _log_slot_block(x: np.ndarray, k: _KernelConstants, out: np.ndarray) -> None:
    """Fill the rows of ``out`` with log p_e, log p_s, log p_c at loads ``x``."""
    if x.size == 1:
        # numpy adds up the rows of a lone column in another order than
        # those of a wider block; a pair keeps each value a function of its x
        pair = np.empty((3, 2))
        _log_slot_block(np.repeat(x, 2), k, pair)
        out[:] = pair[:, :1]
        return
    log_e, log_s, log_c = out
    np.negative(x, out=log_e)
    log_x = np.log(x)
    if k.M == 1:
        # the log-sum-exp of one row j = 1 is 1.0 log x - 0.0 = log x, shifted
        # by itself to exp(0) = 1, whose log 0.0 adds nothing: -x + log x
        np.add(log_e, log_x, out=log_s)
    else:
        terms = k.j * log_x
        terms -= k.log_factorials
        shift = np.maximum.reduce(terms, axis=0)
        np.maximum(shift, _FLOAT_MIN, out=shift)
        terms -= shift
        np.add(log_e, shift, out=log_s)
        total = np.add.reduce(np.exp(terms, out=terms), axis=0)
        log_s += np.log(total, out=total)
    if np.maximum.reduce(x) < k.M + 1:
        _log_collided_series(x, log_x, k, log_c)
    elif np.minimum.reduce(x) >= k.M + 1:
        _log_complement(log_e, log_s, log_c)
    else:
        low = x < k.M + 1
        high = ~low
        log_c[high] = _log_complement(log_e[high], log_s[high])
        log_c[low] = _log_collided_series(x[low], log_x[low], k)


def log_slot_probabilities(
    x: ArrayLike, M: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(log p_e, log p_s, log p_c) of a slot at Poisson load x, elementwise.

    With X ~ Poisson(x): empty is X = 0, successful is 1 <= X <= M, collided
    is X > M. The successful term is a log-sum-exp of j log x - log j! over
    j = 1..M, which at M = 1 is -x + log x itself. The collided term is the
    tail series where x < M+1, and log(1 - P(X <= M)) above that. log x is
    taken once per block of loads and serves both terms. Every term stays
    finite for any M; x = 0 gives (0, -inf, -inf). Each value depends on its
    own x only. An M past ``KERNEL_M_MAX`` raises ValueError before any O(M)
    work.
    """
    if M > KERNEL_M_MAX:
        raise ValueError(
            f"MPR order {M} exceeds {KERNEL_M_MAX}, the largest at which"
            " slot probabilities are evaluated"
        )
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    constants = _kernel_constants(M)
    out = np.empty((3, flat.size))
    block = max(2, _BLOCK_ENTRIES // (M + 1))
    with np.errstate(divide="ignore"):
        if flat.size > block:
            for start in range(0, flat.size, block):
                stop = start + block
                _log_slot_block(flat[start:stop], constants, out[:, start:stop])
        elif flat.size:
            _log_slot_block(flat, constants, out)
    return tuple(out.reshape((3,) + x.shape))


def channel_efficiency(x: ArrayLike, M: int) -> np.ndarray:
    """Expected successful slots over L at Poisson load x = n/L >= 0, elementwise: p_s."""
    require_count("MPR order", M, 1)
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x) & (x >= 0)):
        raise ValueError("load x must be finite and >= 0")
    return np.exp(log_slot_probabilities(x, M)[1])
