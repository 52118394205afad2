"""Shared oracles for the tests.

Deliberately independent of the library's evaluation path: scalar math,
direct formulas, the exact binomial occupancy and the full trinomial
including the multinomial coefficient.
"""

import math


def binomial_occupancy(j, load):
    """Probability that exactly j of the n tags land in a given slot.

    Evaluated in log domain so binomial coefficients stay finite for n up
    to ~1e6.
    """
    n, L = load.n, load.L
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
    log_p = (E + S + C) * (-x)
    if S:
        if T - 1.0 <= 0.0:
            return -math.inf
        log_p += S * math.log(T - 1.0)
    if C:
        tail = math.exp(x) - T
        if tail <= 0.0:
            return -math.inf
        log_p += C * math.log(tail)
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
