import math

import numpy as np
import pytest

from conftest import verify_stationarity
from dfsa_mpr.frame_optimizer import (
    next_frame_length,
    optimal_frame_length,
    optimal_frame_lengths,
)
from dfsa_mpr.harness import optimal_length_lines
from dfsa_mpr.prob_model import MprOrder, channel_efficiency


def _length_and_raw(n, M):
    """The length and raw optimum that ``optimal_frame_lengths`` gives for n alone."""
    (length,), (raw,) = optimal_frame_lengths([n], MprOrder(M))
    assert length == optimal_frame_length(n, MprOrder(M))
    return length, raw


def test_single_packet_reduces_to_population():
    length, raw = _length_and_raw(100, 1)
    assert raw == 100.0
    assert length == 100


def test_optimal_length_m2():
    length, raw = _length_and_raw(100, 2)
    assert raw == pytest.approx(100 / math.sqrt(2), rel=1e-14)
    assert length == 71


def test_optimal_length_m4():
    length, raw = _length_and_raw(100, 4)
    assert raw == pytest.approx(100 / 24 ** 0.25, rel=1e-14)
    assert length == 45


@pytest.mark.parametrize(
    "n, M, length",
    [
        (2**53 + 1, 1, 2**53 + 1),
        (10**30, 1, 10**30),
        (np.int64(2**62), 1, 2**62),
        (np.int64(5000), 2, 3536),
    ],
)
def test_length_is_exact_beyond_float_precision_and_for_numpy_counts(n, M, length):
    # a float n * scale rounds the large counts, and int64 products overflow;
    # the length must do neither
    assert optimal_frame_length(n, MprOrder(M)) == length


def test_zero_population_degenerate_probe():
    length, raw = _length_and_raw(0, 3)
    assert length == 1
    assert raw == 0.0


def test_negative_population_rejected():
    with pytest.raises(ValueError):
        optimal_frame_length(-1, MprOrder(1))


@pytest.mark.parametrize("n", [2.5, True])
def test_non_integer_population_rejected(n):
    with pytest.raises(ValueError, match="tag count must be an integer"):
        optimal_frame_length(n, MprOrder(1))


@pytest.mark.parametrize("M", [1, 4])
def test_population_too_large_for_a_float_rejected(M):
    # the table's raw optimum is a float; the length alone is an exact int
    with pytest.raises(ValueError, match="too large to convert to a float"):
        optimal_length_lines([5, 10**400], [M])
    assert optimal_frame_length(10**400, MprOrder(M)) == _uncached_length(10**400, M)


@pytest.mark.parametrize("M", [1, 2, 3, 4])
def test_m1_reduction_exact(M):
    # raw optimum is the population scaled by (M!)^(-1/M): exactly n at M = 1
    for n in (1, 37, 1000):
        _, raw = _length_and_raw(n, M)
        assert raw * math.factorial(M) ** (1 / M) == pytest.approx(n, rel=1e-14)
        if M == 1:
            assert raw == float(n)


def test_next_frame_plain_difference_m1():
    assert next_frame_length(200, 50, MprOrder(1)) == 150


def test_next_frame_m4():
    assert next_frame_length(200, 50, MprOrder(4)) == 68


def test_next_frame_never_below_one_slot():
    assert next_frame_length(5, 5, MprOrder(1)) == 1
    assert next_frame_length(0, 0, MprOrder(3)) == 1


def test_next_frame_rejects_estimate_below_identified():
    with pytest.raises(ValueError):
        next_frame_length(3, 5, MprOrder(1))


@pytest.mark.parametrize("M", [1, 2, 3, 4])
def test_stationarity_residual_vanishes(M):
    assert abs(verify_stationarity(1000, MprOrder(M))) < 1e-9


@pytest.mark.parametrize("n", [50, 100])
@pytest.mark.parametrize("M", [1, 2, 3, 4])
def test_rounded_optimum_beats_every_integer_length(n, M):
    length = optimal_frame_length(n, MprOrder(M))
    u_star = channel_efficiency(n / length, M)
    assert np.all(u_star >= channel_efficiency(n / np.arange(1, 4 * n + 1), M))


def test_optimal_length_monotone_in_population():
    for M in (1, 2, 3, 4):
        lengths = [optimal_frame_length(n, MprOrder(M)) for n in range(0, 2001, 25)]
        assert lengths == sorted(lengths)


def test_optimal_length_monotone_in_mpr_order():
    for n in (10, 100, 1000):
        lengths = [optimal_frame_length(n, MprOrder(M)) for M in range(1, 9)]
        assert lengths == sorted(lengths, reverse=True)


def _uncached_scale(M):
    """(M!)^(-1/M), built anew."""
    return math.exp(-math.lgamma(M + 1) / M)


def _uncached_length(n, M):
    """The length by the formula, its constants built anew."""
    num, den = _uncached_scale(M).as_integer_ratio()
    return max(1, (2 * n * num + den) // (2 * den))


@pytest.mark.parametrize("M", [*range(1, 9), 100])
@pytest.mark.parametrize("n", [0, 1, 7, 500, 10**6, 10**30])
def test_per_order_constants_give_the_formulas_plan(n, M):
    # the scale and its ratio are kept per M; the plan must not move a bit
    length = optimal_frame_length(n, MprOrder(M))
    assert _length_and_raw(n, M) == (_uncached_length(n, M), n * _uncached_scale(M))
    assert type(length) is int
    assert next_frame_length(n + 3, 3, MprOrder(M)) == length


@pytest.mark.parametrize("M", [*range(1, 9), 100])
def test_many_counts_give_each_counts_plan(M):
    counts = [0, 1, 7, 500, 10**6, 10**30, np.int64(2**62), np.int64(3)]
    lengths, raws = optimal_frame_lengths(counts, MprOrder(M))
    assert lengths == [optimal_frame_length(n, MprOrder(M)) for n in counts]
    assert raws == [int(n) * _uncached_scale(M) for n in counts]
    assert all(type(length) is int for length in lengths)
    assert optimal_frame_lengths(range(0), MprOrder(M)) == ([], [])
    with pytest.raises(OverflowError):
        optimal_frame_lengths([5, 10**400], MprOrder(M))
