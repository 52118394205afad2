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


@dataclass(frozen=True)
class MprOrder:
    """Reader reception capability: up to M simultaneous tag replies decode."""

    M: int

    def __post_init__(self) -> None:
        require_count("MPR order", self.M, 1)


#: the collision-tail series stops once a term at x = M+1, its worst case,
#: falls below this fraction of the first (for M up to 10^6 the remainder is
#: then under 2^-53 of the sum)
_TAIL_TOLERANCE = 2.0 ** -60

#: (M + 1) x candidates per block. The successful term holds M rows per
#: candidate and the tail series O((M + 1)^(1/2)), so memory stays small for any M
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


def _log_collided_series(x: np.ndarray, k: _KernelConstants) -> np.ndarray:
    """log P(X > M) for x < M+1: x^(M+1)/(M+1)! (1 + x/(M+2) + ...) e^-x.

    With u = x/(M+1) < 1 the bracket is sum_i d_i u^i, where
    d_i = prod_{l=1..i} (M+1)/(M+1+l) is its value at x = M+1: every d_i
    lies in (0, 1], so nothing cancels, overflows or underflows.
    """
    if x.size == 1:  # as a pair, for the reason given in _log_slot_block
        return _log_collided_series(np.repeat(x, 2), k)[:1]
    M = k.M
    powers = k.tail_powers * np.log(x / (M + 1))
    np.exp(powers, out=powers)
    series = np.einsum("i,ij->j", k.tail_weights, powers)
    return (M + 1) * np.log(x) - k.log_first_tail + np.log1p(series) - x


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
    terms = k.j * np.log(x) - k.log_factorials
    shift = np.maximum(terms.max(axis=0), _FLOAT_MIN)
    terms -= shift
    np.add(log_e, shift, out=log_s)
    log_s += np.log(np.exp(terms, out=terms).sum(axis=0))
    low = x < k.M + 1
    if low.all():
        log_c[:] = _log_collided_series(x, k)
        return
    high = ~low
    # at x >= M+1 the Poisson median (>= x - ln 2) exceeds M, so
    # P(X <= M) < 1/2 and log1p(-P) is the accurate form of log(1 - P)
    log_c[high] = np.log1p(-np.exp(np.logaddexp(log_e[high], log_s[high])))
    if low.any():
        log_c[low] = _log_collided_series(x[low], k)


def log_slot_probabilities(
    x: ArrayLike, M: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(log p_e, log p_s, log p_c) of a slot at Poisson load x, elementwise.

    With X ~ Poisson(x): empty is X = 0, successful is 1 <= X <= M, collided
    is X > M. The successful term is a log-sum-exp of j log x - log j! over
    j = 1..M. The collided term is the tail series where x < M+1, and
    log(1 - P(X <= M)) above that. Every term stays finite for any M;
    x = 0 gives (0, -inf, -inf). Each value depends on its own x only.
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    constants = _kernel_constants(M)
    out = np.empty((3, flat.size))
    block = max(1, _BLOCK_ENTRIES // (M + 1))
    with np.errstate(divide="ignore"):
        for start in range(0, flat.size, block):
            stop = start + block
            _log_slot_block(flat[start:stop], constants, out[:, start:stop])
    return tuple(out.reshape((3,) + x.shape))


def channel_efficiency(x: ArrayLike, M: int) -> np.ndarray:
    """Expected successful slots over L at Poisson load x = n/L, elementwise: p_s."""
    return np.exp(log_slot_probabilities(x, M)[1])
