import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_map, trinomial_log_posterior
from dfsa_mpr import estimator
from dfsa_mpr.estimator import (
    FrameObservation,
    _log_posterior_array,
    _window_search,
    map_estimate,
    population_estimate,
    population_estimates,
    posterior_curve,
    search_lower_bound,
)
from dfsa_mpr.harness import _trial_rng
from dfsa_mpr.prob_model import MprOrder
from dfsa_mpr.protocol import run_frame

# the worked example frame: 10 slots, 1 empty, 3 successful, 6 collided
EXAMPLE = FrameObservation(L=10, E=1, S=3, C=6, identified=3)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Empties the memo, then records the number of loads of each kernel call
    the estimator makes."""
    estimator._memo.clear()
    calls = []
    kernel = estimator.log_slot_probabilities

    def counted(x, M):
        calls.append(np.size(x))
        return kernel(x, M)

    monkeypatch.setattr(estimator, "log_slot_probabilities", counted)
    return calls


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
        with pytest.raises(ValueError):
            posterior_curve(obs, MprOrder(2), range(5, 20))

    @pytest.mark.parametrize(
        "tallies",
        [
            dict(L=4.5, E=1.5, S=1, C=2, identified=1),
            dict(L=4.0, E=1, S=1, C=2, identified=1),
            dict(L=4, E=1, S=True, C=2, identified=1),
        ],
        ids=["L=4.5", "L=4.0", "S=True"],
    )
    def test_non_integer_tallies_rejected_by_the_estimator(self, tallies):
        with pytest.raises(ValueError, match="must be an integer"):
            FrameObservation(**tallies)

    def test_numpy_integer_tallies_accepted(self):
        obs = FrameObservation(*(np.int64(v) for v in (10, 1, 3, 6, 3)))
        assert obs == EXAMPLE
        assert map_estimate(obs, MprOrder(1)) == map_estimate(EXAMPLE, MprOrder(1))


class TestLogPosterior:
    def test_empty_frame_empty_population(self):
        assert _log_posterior_array(np.array([0]), 8, 8, 0, 0, 1)[0] == 0.0

    def test_zero_tags_cannot_succeed(self):
        assert _log_posterior_array(np.array([0]), 8, 7, 1, 0, 1)[0] == -math.inf

    def test_zero_tags_cannot_collide(self):
        assert _log_posterior_array(np.array([0]), 8, 7, 0, 1, 2)[0] == -math.inf

    def test_negative_candidate_rejected(self):
        with pytest.raises(ValueError):
            posterior_curve(EXAMPLE, MprOrder(1), range(-1, 22))

    def test_frozen_high_precision_value(self):
        # mpmath (40 dps): -12 + 3 log(0.2... ) terms at k=12, M=1
        assert _log_posterior_array(np.array([12]), 10, 1, 3, 6, 1)[0] == pytest.approx(
            -10.7724368786660451, rel=1e-13
        )

    def test_matches_oracle_without_constant(self):
        ks = [5, 15, 21, 40, 120]
        for M in (1, 2, 3):
            got = _log_posterior_array(np.array(ks), 10, 1, 3, 6, M)
            for k, value in zip(ks, got):
                assert value == pytest.approx(
                    trinomial_log_posterior(k, 10, 1, 3, 6, M, include_constant=False),
                    rel=1e-10,
                )

    def test_m1_closed_form(self):
        # T_1(x) - 1 = x, so the success factor collapses to k/L
        ks = [7, 13, 29, 64]
        for k, value in zip(ks, _log_posterior_array(np.array(ks), 16, 10, 4, 2, 1)):
            x = k / 16
            expected = -k + 4 * math.log(x) + 2 * math.log(math.exp(x) - 1 - x)
            assert value == pytest.approx(expected, rel=1e-12)


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
        assert est.saturated
        below, at_cap = _log_posterior_array(np.array([est.k_max - 1, est.n_hat]), L, 0, 0, L, M)
        assert below < at_cap

    def test_all_collided_frame_skips_the_kernel(self, kernel_calls):
        obs = FrameObservation(L=10, E=0, S=0, C=10, identified=0)
        est = map_estimate(obs, MprOrder(3))
        assert (est.n_hat, kernel_calls) == (300, [])
        assert population_estimates([obs, obs], MprOrder(3)) == [300, 300]
        assert kernel_calls == []

    def test_all_collided_frame_at_a_huge_mpr_order_returns_the_cap(self):
        # the kernel's per-M constants for M = 10**8 would take about a minute
        est = map_estimate(FrameObservation(L=10, E=0, S=0, C=10, identified=0), MprOrder(10**8))
        assert est.n_hat == est.k_max == 10**10
        assert est.saturated

    @pytest.mark.parametrize("M", [170, 171, 400])
    def test_large_mpr_order_finds_a_finite_mode(self, M):
        est = map_estimate(EXAMPLE, MprOrder(M))
        assert est.k_min < est.n_hat < est.k_max
        below, mode, above = _log_posterior_array(
            np.array([est.n_hat - 1, est.n_hat, est.n_hat + 1]), 10, 1, 3, 6, M
        )
        assert math.isfinite(mode)
        assert below < mode and above < mode

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


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(frames_with_a_free_slot(), st.data())
def test_map_estimate_with_more_tags_identified_than_slots(frame, data):
    # more decoded tags raise the lower end of the search; the estimate is
    # the brute-force argmax over [k_min, 10 L M] with k_min computed here
    L, E, S, C, M = frame
    identified = data.draw(st.integers(S, S * M))
    est = map_estimate(FrameObservation(L, E, S, C, identified), MprOrder(M))
    k_min = max(identified, S) + (M + 1) * C
    assert (est.k_min, est.k_max) == (k_min, 10 * L * M)
    assert est.n_hat == brute_force_map(L, E, S, C, M, k_max=10 * L * M, k_min=k_min)


@pytest.mark.parametrize(
    "L, E, S, C, M",
    [(32, 3, 0, 29, 2), (64, 19, 28, 17, 8), (48, 0, 8, 40, 8), (64, 2, 0, 62, 8), (64, 0, 1, 63, 8)],
)
def test_modes_beyond_the_first_window_match_brute_force(L, E, S, C, M):
    # the mode lies 70 to 496 candidates above k_min, so the window must grow
    est = map_estimate(FrameObservation(L, E, S, C, S), MprOrder(M))
    assert est.n_hat - est.k_min > 64
    assert est.n_hat == brute_force_map(L, E, S, C, M, k_max=est.k_max)


@st.composite
def frames_and_windows(draw):
    """A frame with L in [1, 2048] and M in [1, 8], and a start k in [1, 10 L M]."""
    L = draw(st.integers(1, 2048))
    C = draw(st.integers(0, L))
    S = draw(st.integers(0, L - C))
    M = draw(st.integers(1, 8))
    return L, L - S - C, S, C, M, draw(st.integers(1, 10 * L * M))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(frames_and_windows())
def test_log_posterior_is_concave_in_k(frame):
    # the window search is exact only for a concave posterior; this checks
    # the rounded values it sees, over 64 consecutive candidates from k
    L, E, S, C, M, k = frame
    values = _log_posterior_array(np.arange(k, k + 64), L, E, S, C, M)
    second = values[2:] - 2 * values[1:-1] + values[:-2]
    scale = np.maximum(np.abs(values[2:]), np.maximum(np.abs(values[1:-1]), np.abs(values[:-2])))
    assert np.all(second <= 1e-12 * scale)


def _step_window_search(evaluate, lo, hi):
    """Steps ``_window_search`` over [lo, hi], evaluating each window's
    candidates; returns the mode and the window sizes."""
    search = _window_search(lo, hi)
    start, size = next(search)
    sizes = []
    try:
        while True:
            sizes.append(size)
            values = evaluate(np.arange(start, start + size))
            start, size = search.send(int(values.argmax()))
    except StopIteration as done:
        return done.value, sizes


class TestWindowSearch:
    def test_tie_across_the_first_window_edge_returns_the_smaller_k(self):
        # candidates lo+63 (last of the first window) and lo+64 tie at the top
        lo = 10
        mode, sizes = _step_window_search(lambda ks: -np.abs(ks - (lo + 63.5)), lo, 10**6)
        assert (mode, sizes) == (lo + 63, [64, 256])

    def test_plateau_returns_its_first_candidate(self):
        assert _step_window_search(lambda ks: np.zeros(ks.shape), 5, 10**6) == (5, [64])

    def test_rising_function_stops_at_the_upper_end(self):
        # the third window is cut to the 683 candidates left below the cap
        assert _step_window_search(lambda ks: ks.astype(float), 0, 1000) == (1000, [64, 256, 683])

    def test_lockstep_rounds_are_cut_at_the_caps_of_the_rows_left(self, kernel_calls):
        # the first frame peaks in its first window; the second's third window
        # is cut to the 806 candidates left below its cap 10 L M = 1320
        mpr = MprOrder(2)
        frames = [EXAMPLE, FrameObservation(L=66, E=0, S=1, C=65, identified=2)]
        n_hats = []
        for obs, loads in zip(frames, ([64], [64, 256, 806])):
            del kernel_calls[:]
            n_hats.append(map_estimate(obs, mpr).n_hat)
            assert kernel_calls == loads
        assert n_hats == [30, 520]
        estimator._memo.clear()
        del kernel_calls[:]
        assert population_estimates(frames, mpr) == n_hats
        assert kernel_calls == [2 * 64, 256, 806]


class TestMemo:
    OBS = FrameObservation(L=64, E=19, S=28, C=17, identified=40)

    def test_bounded(self, monkeypatch):
        assert 0 < estimator._MEMO_SIZE < 10**6
        # with room for 3, the least recently used key (identified = 29) goes first
        monkeypatch.setattr(estimator, "_MEMO_SIZE", 3)
        estimator._memo.clear()
        frames = [FrameObservation(64, 19, 28, 17, identified) for identified in (28, 29, 30, 31)]
        for obs in frames[:3]:
            map_estimate(obs, MprOrder(3))
        map_estimate(frames[0], MprOrder(3))
        population_estimates(frames[3:], MprOrder(3))
        assert len(estimator._memo) == 3
        assert [key[-1] - 68 for key in estimator._memo] == [30, 28, 31]

    def test_repeated_key_is_a_hit(self, kernel_calls):
        first = map_estimate(self.OBS, MprOrder(3))
        searched = len(kernel_calls)
        assert searched > 0
        assert map_estimate(self.OBS, MprOrder(3)) == first
        assert population_estimates([self.OBS] * 3, MprOrder(3)) == [first.n_hat] * 3
        assert len(kernel_calls) == searched

    def test_frames_differing_only_in_identified_do_not_share_an_answer(self, kernel_calls):
        # the mode is 130: k_min = 152 and 118 straddle it, so a key without
        # k_min would answer one of them wrongly
        frames = [FrameObservation(64, 19, 28, 17, identified) for identified in (84, 28, 50, 84)]

        def one_by_one():
            return [map_estimate(obs, MprOrder(3)).n_hat for obs in frames]

        def batched():
            return population_estimates(frames, MprOrder(3))

        for estimate in (one_by_one, batched):
            estimator._memo.clear()
            n_hats = estimate()
            assert len(estimator._memo) == 3
            assert n_hats == [152, 130, 130, 152]
            searched = len(kernel_calls)
            assert one_by_one() == batched() == n_hats
            assert len(kernel_calls) == searched
        for obs, n_hat in zip(frames, n_hats):
            k_min = obs.identified + 4 * 17
            assert n_hat == brute_force_map(64, 19, 28, 17, 3, k_max=1920, k_min=k_min)
            values = _log_posterior_array(np.arange(k_min, 1921), 64, 19, 28, 17, 3)
            assert values[n_hat - k_min] == values.max()

    def test_cold_cache_equals_warm_cache(self):
        rng = np.random.default_rng(11)
        frames = []
        for _ in range(40):
            L = int(rng.integers(1, 200))
            C = int(rng.integers(0, L + 1))
            S = int(rng.integers(0, L - C + 1))
            M = int(rng.integers(1, 6))
            identified = int(rng.integers(S, S * M + 1))
            frames.append((FrameObservation(L, L - S - C, S, C, identified), MprOrder(M)))
        cold = []
        for obs, mpr in frames:
            estimator._memo.clear()
            cold.append(map_estimate(obs, mpr))
        warm = [map_estimate(obs, mpr) for obs, mpr in frames * 2]
        assert warm == cold * 2


class TestPosteriorCurve:
    def test_single_point_is_certain(self):
        curve = posterior_curve(EXAMPLE, MprOrder(1), range(21, 22))
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
        for k_range in (range(0), range(21, 21)):
            with pytest.raises(ValueError, match="non-empty range"):
                posterior_curve(EXAMPLE, MprOrder(1), k_range)

    @pytest.mark.parametrize("k_range", [[20.7, 21.2], [21, 21], [True], [21, True]])
    def test_non_integer_or_repeated_candidates_rejected(self, k_range):
        # only a range is taken, and a range holds distinct integers
        with pytest.raises(ValueError, match="non-empty range"):
            posterior_curve(EXAMPLE, MprOrder(1), k_range)

    def test_distinct_integers_in_any_order(self):
        forward = dict(posterior_curve(EXAMPLE, MprOrder(1), range(20, 23)))
        reversed_ = posterior_curve(EXAMPLE, MprOrder(1), range(22, 19, -1))
        assert [k for k, _ in reversed_] == [22, 21, 20]
        assert dict(reversed_) == pytest.approx(forward, rel=1e-15)
        with pytest.raises(ValueError, match="non-empty range"):
            posterior_curve(EXAMPLE, MprOrder(1), range(22, -2, -1))


class TestPopulationEstimate:
    def test_collision_free_frame_is_counted_exactly(self):
        clean = FrameObservation(L=10, E=0, S=10, C=0, identified=10)
        assert map_estimate(clean, MprOrder(2)).n_hat == 14
        assert population_estimate(clean, MprOrder(2)) == 10

    @pytest.mark.parametrize("M", [1, 2, 4])
    def test_collided_frame_takes_the_map_estimate(self, M):
        assert population_estimate(EXAMPLE, MprOrder(M)) == map_estimate(EXAMPLE, MprOrder(M)).n_hat

    def test_collision_free_frame_is_checked(self):
        with pytest.raises(ValueError):
            population_estimate(FrameObservation(L=10, E=6, S=4, C=0, identified=9), MprOrder(2))
        with pytest.raises(ValueError):
            population_estimates(
                [EXAMPLE, FrameObservation(L=10, E=6, S=4, C=0, identified=9)], MprOrder(2)
            )

    def test_batch_makes_one_kernel_call_per_window_round(self, kernel_calls):
        # the first frames of 50 trials of the FSA cell n=1000, M=1, L0=128
        mpr = MprOrder(1)
        frames = [
            run_frame(1000, 128, mpr, _trial_rng(1, ("fsa", 1000, 1, 128), trial))
            for trial in range(50)
        ]
        searched = [obs for obs in frames if 0 < obs.C < obs.L]
        assert len(set(searched)) > 1
        windows = []
        for obs in searched:
            estimator._memo.clear()
            del kernel_calls[:]
            map_estimate(obs, mpr)
            windows.append(len(kernel_calls))
        estimator._memo.clear()
        del kernel_calls[:]
        n_hats = population_estimates(frames, mpr)
        assert len(kernel_calls) == max(windows) > 1
        # a DFSA run has already estimated its first frame: the batch searches nothing
        estimator._memo.clear()
        for obs in frames:
            map_estimate(obs, mpr)
        del kernel_calls[:]
        assert population_estimates(frames, mpr) == n_hats
        assert kernel_calls == []


#: brute force runs where the search cap 10 L M is at most this
_BRUTE_FORCE_CAP = 4096


@st.composite
def frame_batches(draw):
    """An M in [1, 8] and a batch of frames with L in [1, 2048], among them
    frames with C = 0 and C = L, frames that differ only in identified, and
    repeated frames."""
    M = draw(st.integers(1, 8))
    # half of the lengths are short enough for brute force
    lengths = st.one_of(st.integers(1, _BRUTE_FORCE_CAP // (10 * M)), st.integers(1, 2048))

    def frame(collided):
        L = draw(lengths)
        C = collided(L)
        S = draw(st.integers(0, L - C))
        return FrameObservation(L, L - S - C, S, C, draw(st.integers(S, S * M)))

    frames = [frame(lambda L: draw(st.integers(0, L))) for _ in range(draw(st.integers(1, 6)))]
    frames += [frame(lambda L: 0), frame(lambda L: L)]
    frames += [replace(obs, identified=draw(st.integers(obs.S, obs.S * M))) for obs in frames if obs.S]
    frames += draw(st.lists(st.sampled_from(frames), max_size=4))
    return M, draw(st.permutations(frames))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(frame_batches())
def test_population_estimates_equal_map_estimate_and_brute_force(batch):
    M, frames = batch
    mpr = MprOrder(M)
    expected = []
    for obs in frames:
        estimator._memo.clear()
        expected.append(obs.identified if obs.C == 0 else map_estimate(obs, mpr).n_hat)
    # a cold memo, one that some frames' own estimates filled, and a warm one
    estimator._memo.clear()
    assert population_estimates(frames, mpr) == expected
    estimator._memo.clear()
    for obs in frames[::2]:
        map_estimate(obs, mpr)
    assert population_estimates(frames, mpr) == expected
    assert population_estimates(iter(frames), mpr) == expected
    for obs, n_hat in zip(frames, expected):
        k_max = 10 * obs.L * M
        if obs.C > 0 and k_max <= _BRUTE_FORCE_CAP:
            k_min = search_lower_bound(obs, mpr)
            assert n_hat == brute_force_map(obs.L, obs.E, obs.S, obs.C, M, k_max=k_max, k_min=k_min)


def test_search_lower_bound_counts_collision_minimum():
    assert search_lower_bound(EXAMPLE, MprOrder(1)) == 3 + 2 * 6
    assert search_lower_bound(EXAMPLE, MprOrder(3)) == 3 + 4 * 6
