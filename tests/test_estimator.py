import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_map, trinomial_log_posterior
from dfsa_mpr.estimator import (
    FrameObservation,
    log_posterior,
    map_estimate,
    posterior_curve,
    search_lower_bound,
)
from dfsa_mpr.prob_model import MprOrder

# the worked example frame: 10 slots, 1 empty, 3 successful, 6 collided
EXAMPLE = FrameObservation(L=10, E=1, S=3, C=6, identified=3)


class TestObservationInvariants:
    def test_tallies_must_cover_frame(self):
        with pytest.raises(ValueError):
            FrameObservation(L=10, E=1, S=3, C=5, identified=3)

    def test_identified_requires_success(self):
        with pytest.raises(ValueError):
            FrameObservation(L=4, E=4, S=0, C=0, identified=1)
        with pytest.raises(ValueError):
            FrameObservation(L=4, E=3, S=1, C=0, identified=0)

    def test_identified_below_success_count(self):
        with pytest.raises(ValueError):
            FrameObservation(L=4, E=1, S=2, C=1, identified=1)

    def test_identified_above_mpr_capacity(self):
        obs = FrameObservation(L=4, E=1, S=2, C=1, identified=5)
        with pytest.raises(ValueError):
            map_estimate(obs, MprOrder(2))


class TestLogPosterior:
    def test_empty_frame_empty_population(self):
        obs = FrameObservation(L=8, E=8, S=0, C=0, identified=0)
        assert log_posterior(0, obs, MprOrder(1)) == 0.0

    def test_zero_tags_cannot_succeed(self):
        obs = FrameObservation(L=8, E=7, S=1, C=0, identified=1)
        assert log_posterior(0, obs, MprOrder(1)) == -math.inf

    def test_zero_tags_cannot_collide(self):
        obs = FrameObservation(L=8, E=7, S=0, C=1, identified=0)
        assert log_posterior(0, obs, MprOrder(2)) == -math.inf

    def test_negative_candidate_rejected(self):
        with pytest.raises(ValueError):
            log_posterior(-1, EXAMPLE, MprOrder(1))

    def test_frozen_high_precision_value(self):
        # mpmath (40 dps): -12 + 3 log(0.2... ) terms at k=12, M=1
        assert log_posterior(12, EXAMPLE, MprOrder(1)) == pytest.approx(
            -10.7724368786660451, rel=1e-13
        )

    def test_matches_oracle_without_constant(self):
        for M in (1, 2, 3):
            for k in (5, 15, 21, 40, 120):
                assert log_posterior(k, EXAMPLE, MprOrder(M)) == pytest.approx(
                    trinomial_log_posterior(
                        k, 10, 1, 3, 6, M, include_constant=False
                    ),
                    rel=1e-10,
                )

    def test_m1_closed_form(self):
        # T_1(x) - 1 = x, so the success factor collapses to k/L
        obs = FrameObservation(L=16, E=10, S=4, C=2, identified=4)
        for k in (7, 13, 29, 64):
            x = k / 16
            expected = -k + 4 * math.log(x) + 2 * math.log(math.exp(x) - 1 - x)
            assert log_posterior(k, obs, MprOrder(1)) == pytest.approx(
                expected, rel=1e-12
            )


class TestMapEstimate:
    def test_nothing_observed(self):
        obs = FrameObservation(L=12, E=12, S=0, C=0, identified=0)
        assert map_estimate(obs, MprOrder(1)).n_hat == 0

    def test_example_frame_against_brute_force(self):
        for M in (1, 2, 3):
            est = map_estimate(EXAMPLE, MprOrder(M))
            assert est.n_hat == brute_force_map(10, 1, 3, 6, M)

    def test_example_frame_frozen_peaks(self):
        # peaks located by the exhaustive oracle; shift right as M grows
        peaks = [map_estimate(EXAMPLE, MprOrder(M)).n_hat for M in (1, 2, 3)]
        assert peaks == [21, 30, 39]
        assert peaks == sorted(peaks)

    def test_constant_factor_never_moves_argmax(self):
        cases = [
            (10, 1, 3, 6, 2),
            (10, 5, 3, 2, 1),
            (16, 2, 8, 6, 3),
            (8, 0, 4, 4, 1),
        ]
        for L, E, S, C, M in cases:
            with_const = brute_force_map(L, E, S, C, M, include_constant=True)
            without = brute_force_map(L, E, S, C, M, include_constant=False)
            assert with_const == without

    def test_consistency_lower_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            L = int(rng.integers(4, 40))
            E = int(rng.integers(0, L + 1))
            S = int(rng.integers(0, L - E + 1))
            C = L - E - S
            M = int(rng.integers(1, 5))
            identified = int(rng.integers(S, S * M + 1)) if S else 0
            obs = FrameObservation(L=L, E=E, S=S, C=C, identified=identified)
            est = map_estimate(obs, MprOrder(M))
            assert est.n_hat >= identified + (M + 1) * C
            assert est.k_min <= est.n_hat <= est.k_max

    @pytest.mark.parametrize("L", [1, 2, 10, 128, 2000])
    @pytest.mark.parametrize("M", range(1, 9))
    def test_all_collided_frame_returns_the_cap(self, L, M):
        # P(X > M)^L rises strictly in k, so the argmax is the cap itself
        obs = FrameObservation(L=L, E=0, S=0, C=L, identified=0)
        est = map_estimate(obs, MprOrder(M))
        assert est.n_hat == est.k_max == 10 * L * M
        assert est.log_posterior_at_mode == log_posterior(est.k_max, obs, MprOrder(M))
        assert log_posterior(est.k_max - 1, obs, MprOrder(M)) < est.log_posterior_at_mode

    @pytest.mark.parametrize("M", [170, 171, 400])
    def test_large_mpr_order_finds_a_finite_mode(self, M):
        est = map_estimate(EXAMPLE, MprOrder(M))
        assert est.k_min < est.n_hat < est.k_max
        assert math.isfinite(est.log_posterior_at_mode)
        for k in (est.n_hat - 1, est.n_hat + 1):
            assert log_posterior(k, EXAMPLE, MprOrder(M)) < est.log_posterior_at_mode

    def test_monotone_response_to_collisions(self):
        # moving mass from empty to collided slots never lowers the estimate
        prev = -1
        for C in range(1, 10):
            obs = FrameObservation(L=12, E=9 - C, S=3, C=C, identified=3)
            n_hat = map_estimate(obs, MprOrder(2)).n_hat
            assert n_hat >= prev
            prev = n_hat


@st.composite
def frames_with_a_free_slot(draw):
    """(L, E, S, C, M) with L in [1, 64], M in [1, 8] and at least one slot not collided."""
    L = draw(st.integers(1, 64))
    C = draw(st.integers(0, L - 1))
    S = draw(st.integers(0, L - C))
    return L, L - S - C, S, C, draw(st.integers(1, 8))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(frames_with_a_free_slot())
def test_map_estimate_equals_brute_force_over_the_whole_cap(frame):
    L, E, S, C, M = frame
    est = map_estimate(FrameObservation(L=L, E=E, S=S, C=C, identified=S), MprOrder(M))
    assert est.k_max == 10 * L * M
    assert est.n_hat == brute_force_map(L, E, S, C, M, k_max=est.k_max)


class TestPosteriorCurve:
    def test_single_point_is_certain(self):
        curve = posterior_curve(EXAMPLE, MprOrder(1), [21])
        assert curve == [(21, 1.0)]

    def test_normalization(self):
        curve = posterior_curve(EXAMPLE, MprOrder(2), range(9, 200))
        assert sum(p for _, p in curve) == pytest.approx(1.0, abs=1e-9)

    def test_argmax_agrees_with_map_estimate(self):
        est = map_estimate(EXAMPLE, MprOrder(1))
        curve = posterior_curve(EXAMPLE, MprOrder(1), range(9, 101))
        k_peak = max(curve, key=lambda kp: kp[1])[0]
        assert k_peak == est.n_hat

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            posterior_curve(EXAMPLE, MprOrder(1), [])


def test_search_lower_bound_counts_collision_minimum():
    assert search_lower_bound(EXAMPLE, MprOrder(1)) == 3 + 2 * 6
    assert search_lower_bound(EXAMPLE, MprOrder(3)) == 3 + 4 * 6
