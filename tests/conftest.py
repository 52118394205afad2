"""Shared oracles and fixtures for the tests.

The oracles are deliberately independent of the library's evaluation path:
scalar math, direct formulas, the exact binomial occupancy and the full
trinomial including the multinomial coefficient.
"""

import math

import pytest

from dfsa_mpr import estimator, prob_model


@pytest.fixture
def kernel_orders(monkeypatch):
    """Empties the estimator's memo and kept kernel rows, then records the M
    of every request for the kernel's per-M constants, the first O(M) work
    of a kernel call."""
    estimator._memo.clear()
    estimator._runs.clear()
    orders = []
    constants = prob_model._kernel_constants

    def spy(M):
        orders.append(M)
        return constants(M)

    monkeypatch.setattr(prob_model, "_kernel_constants", spy)
    return orders


def same_bits(rows, expected):
    """True when each array of ``rows`` has the bytes of its peer in ``expected``."""
    return all(a.tobytes() == b.tobytes() for a, b in zip(rows, expected, strict=True))


def binomial_occupancy(j, n, L):
    """Probability that exactly j of the n tags land in a given one of L slots.

    Evaluated in log domain so binomial coefficients stay finite for n up
    to ~1e6.
    """
    if j < 0 or j > n:
        raise ValueError(f"occupancy {j} outside [0, {n}]")
    if L == 1:
        return 1.0 if j == n else 0.0
    log_p = (
        math.lgamma(n + 1)
        - math.lgamma(j + 1)
        - math.lgamma(n - j + 1)
        - j * math.log(L)
        + (n - j) * math.log1p(-1.0 / L)
    )
    return math.exp(log_p)


def verify_stationarity(n, mpr):
    """Residual of the efficiency derivative at the claimed optimum.

    Evaluates sum_m rho^m/m! * (rho - m) * exp(-rho)/L at L = n/(M!)^(1/M);
    an exact optimum gives 0 up to rounding.
    """
    if n < 1:
        raise ValueError(f"tag count must be >= 1, got {n}")
    L = n / math.factorial(mpr.M) ** (1.0 / mpr.M)
    rho = n / L
    term = 1.0
    total = 0.0
    for m in range(1, mpr.M + 1):
        term *= rho / m
        total += term * (rho - m)
    return total * math.exp(-rho) / L


def trinomial_log_posterior(k, L, E, S, C, M, include_constant=True):
    x = k / L
    T = sum(x**j / math.factorial(j) for j in range(M + 1))
    log_p = (E + S) * (-x)
    if S:
        if T - 1.0 <= 0.0:
            return -math.inf
        log_p += S * math.log(T - 1.0)
    if C:
        # log P(X > M): once P(X <= M) = T exp(-x) is below 1/2, log1p keeps
        # the digits that exp(x) - T would round away near an all-collided cap
        below = T * math.exp(-x)
        if below < 0.5:
            log_p += C * math.log1p(-below)
        else:
            tail = math.exp(x) - T
            if tail <= 0.0:
                return -math.inf
            log_p += C * (math.log(tail) - x)
    if include_constant:
        log_p += (
            math.lgamma(L + 1)
            - math.lgamma(E + 1)
            - math.lgamma(S + 1)
            - math.lgamma(C + 1)
        )
    return log_p


def brute_force_map(L, E, S, C, M, k_max=500, include_constant=True, k_min=0):
    """Exhaustive argmax over k in [k_min, k_max], first maximum wins."""
    best_k, best_v = k_min, -math.inf
    for k in range(k_min, k_max + 1):
        v = trinomial_log_posterior(k, L, E, S, C, M, include_constant)
        if v > best_v:
            best_k, best_v = k, v
    return best_k
