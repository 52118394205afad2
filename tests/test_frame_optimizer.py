import math

import numpy as np
import pytest

from conftest import verify_stationarity
from dfsa_mpr.frame_optimizer import next_frame_length, optimal_frame_length
from dfsa_mpr.prob_model import MprOrder, channel_efficiency


def test_single_packet_reduces_to_population():
    plan = optimal_frame_length(100, MprOrder(1))
    assert plan.raw_optimum == 100.0
    assert plan.length == 100


def test_optimal_length_m2():
    plan = optimal_frame_length(100, MprOrder(2))
    assert plan.raw_optimum == pytest.approx(100 / math.sqrt(2), rel=1e-14)
    assert plan.length == 71


def test_optimal_length_m4():
    plan = optimal_frame_length(100, MprOrder(4))
    assert plan.raw_optimum == pytest.approx(100 / 24 ** 0.25, rel=1e-14)
    assert plan.length == 45


def test_zero_population_degenerate_probe():
    plan = optimal_frame_length(0, MprOrder(3))
    assert plan.length == 1
    assert plan.raw_optimum == 0.0


def test_negative_population_rejected():
    with pytest.raises(ValueError):
        optimal_frame_length(-1, MprOrder(1))


@pytest.mark.parametrize("n", [2.5, True])
def test_non_integer_population_rejected(n):
    with pytest.raises(ValueError, match="tag count must be an integer"):
        optimal_frame_length(n, MprOrder(1))


@pytest.mark.parametrize("M", [1, 2, 3, 4])
def test_m1_reduction_exact(M):
    # raw optimum is the population scaled by (M!)^(-1/M): exactly n at M = 1
    for n in (1, 37, 1000):
        raw = optimal_frame_length(n, MprOrder(M)).raw_optimum
        assert raw * math.factorial(M) ** (1 / M) == pytest.approx(n, rel=1e-14)
        if M == 1:
            assert raw == float(n)


def test_next_frame_plain_difference_m1():
    assert next_frame_length(200, 50, MprOrder(1)).length == 150


def test_next_frame_m4():
    assert next_frame_length(200, 50, MprOrder(4)).length == 68


def test_next_frame_never_below_one_slot():
    assert next_frame_length(5, 5, MprOrder(1)).length == 1
    assert next_frame_length(0, 0, MprOrder(3)).length == 1


def test_next_frame_rejects_estimate_below_identified():
    with pytest.raises(ValueError):
        next_frame_length(3, 5, MprOrder(1))


@pytest.mark.parametrize("M", [1, 2, 3, 4])
def test_stationarity_residual_vanishes(M):
    assert abs(verify_stationarity(1000, MprOrder(M))) < 1e-9


@pytest.mark.parametrize("n", [50, 100])
@pytest.mark.parametrize("M", [1, 2, 3, 4])
def test_rounded_optimum_beats_every_integer_length(n, M):
    length = optimal_frame_length(n, MprOrder(M)).length
    u_star = channel_efficiency(n / length, M)
    assert np.all(u_star >= channel_efficiency(n / np.arange(1, 4 * n + 1), M))


def test_optimal_length_monotone_in_population():
    for M in (1, 2, 3, 4):
        lengths = [optimal_frame_length(n, MprOrder(M)).length for n in range(0, 2001, 25)]
        assert lengths == sorted(lengths)


def test_optimal_length_monotone_in_mpr_order():
    for n in (10, 100, 1000):
        lengths = [optimal_frame_length(n, MprOrder(M)).length for M in range(1, 9)]
        assert lengths == sorted(lengths, reverse=True)
