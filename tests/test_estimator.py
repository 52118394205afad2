import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_map, same_bits, trinomial_log_posterior
from dfsa_mpr import estimator, prob_model
from dfsa_mpr.estimator import (
    FrameObservation,
    MapEstimate,
    _log_posterior_array,
    _window_search,
    map_estimate,
    population_estimates,
    posterior_curve,
    tally_mode,
)
from dfsa_mpr.harness import _run_cell, _trial_rng
from dfsa_mpr.prob_model import MprOrder, log_slot_probabilities
from dfsa_mpr.protocol import _tally, run_frame

# the worked example frame: 10 slots, 1 empty, 3 successful, 6 collided
EXAMPLE = FrameObservation(L=10, E=1, S=3, C=6, identified=3)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Empties the memo and the kept kernel rows, then records the loads of
    each kernel call the estimator makes."""
    estimator._memo.clear()
    estimator._runs.clear()
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
        assert map_estimate(EXAMPLE, MprOrder(np.int64(2))) == map_estimate(EXAMPLE, MprOrder(2))
        # counts are held as Python ints, so the cap 10 L M does not wrap at 2**63
        L = 10**18
        for M in (2, np.int64(2)):
            for tallies in ((L, 0, 0, L, 0), (np.int64(L), 0, 0, np.int64(L), 0)):
                obs = FrameObservation(*tallies)
                [estimate] = population_estimates([obs], MprOrder(M))
                assert estimate == map_estimate(obs, MprOrder(M))
                assert estimate.n_hat == estimate.k_max == 2 * 10**19
                assert type(estimate.n_hat) is int
        # and a cap past int64 is refused as it is for Python ints
        obs = FrameObservation(*map(np.int64, (L, 1, 3, L - 4, 3)))
        with pytest.raises(ValueError, match="exceeds 2"):
            map_estimate(obs, MprOrder(2))
        with pytest.raises(ValueError, match="exceeds 2"):
            population_estimates([obs], MprOrder(np.int64(2)))


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
        assert population_estimates([obs, obs], MprOrder(3)) == [est, est]
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
    """Steps ``_window_search`` over [lo, hi], sending each round the values
    of its candidates; returns the mode and the number of candidates per round."""
    search = _window_search(lo, hi)
    ks = next(search)
    sizes = []
    try:
        while True:
            sizes.append(ks.size)
            ks = search.send(evaluate(ks))
    except StopIteration as done:
        return done.value, sizes


#: (L, E, S, C, M, mode) of frames whose modes lie past the second window
_FAR_MODES = [(300, 0, 1, 299, 2, 2933), (400, 1, 1, 398, 1, 2946), (4096, 0, 1, 4095, 8, 95393)]


class TestWindowSearch:
    def test_tie_across_the_first_window_edge_returns_the_smaller_k(self):
        # candidates lo+63 (last of the first window) and lo+64 tie at the top
        lo = 10
        mode, sizes = _step_window_search(lambda ks: -np.abs(ks - (lo + 63.5)), lo, 10**6)
        assert (mode, sizes) == (lo + 63, [64, 256])

    def test_plateau_returns_its_first_candidate(self):
        assert _step_window_search(lambda ks: np.zeros(ks.shape), 5, 10**6) == (5, [64])

    def test_rising_function_stops_at_the_upper_end(self):
        # one probe round narrows [318, 1000] to its last 21 candidates
        assert _step_window_search(lambda ks: ks.astype(float), 0, 1000) == (1000, [64, 256, 64, 21])

    def test_rising_to_a_far_cap_evaluates_at_most_256_a_round(self):
        # no pair turns down, so three probe rounds narrow [318, 10**6] to its
        # last 28 candidates, and one window ends at the cap
        mode, sizes = _step_window_search(lambda ks: ks.astype(float), 0, 10**6)
        assert (mode, sizes) == (10**6, [64, 256, 64, 64, 64, 28])

    @pytest.mark.parametrize("size, sizes", [(255, [64, 256, 255]), (256, [64, 256, 64, 8])])
    def test_a_bracket_of_256_candidates_takes_a_probe_round(self, size, sizes):
        # a rising search leaves its second window at 318, so its bracket is
        # [318, 318 + size - 1]; a probe round's last pair rises into the
        # last 8 candidates (``_rounds`` checks where the pairs sit)
        hi = 318 + size - 1
        assert _step_window_search(lambda ks: ks.astype(float), 0, hi) == (hi, sizes)

    # a search over [0, 8000] rises out of its second window into 318; its
    # probe round's pairs start at the 32 points that cut [318, 8000] into 33
    # equal parts, 232 or 233 apart, so one window follows it
    _HI = 8000
    _PROBES = 318 + np.arange(1, 33) * (_HI - 318) // 33

    def _rounds(self, peak):
        rounds = []

        def evaluate(ks):
            rounds.append(ks)
            return -np.abs(ks - peak)

        mode = _step_window_search(evaluate, 0, self._HI)[0]
        assert [ks.size for ks in rounds[:3]] == [64, 256, 64] and len(rounds) == 4
        assert rounds[2][::2].tolist() == self._PROBES.tolist()
        assert rounds[2][1::2].tolist() == (self._PROBES + 1).tolist()
        return mode, rounds[-1]

    @pytest.mark.parametrize("pair", [0, 15, 31])
    def test_tie_on_a_probe_pair_returns_its_first_candidate(self, pair):
        # f(p) = f(p+1) at the top: the pair turns down, and the last window
        # runs from one past the previous probe (or from 318) to p
        p = int(self._PROBES[pair])
        mode, last = self._rounds(p + 0.5)
        assert mode == p
        assert (last[0], last[-1]) == (self._PROBES[pair - 1] + 1 if pair else 318, p)

    def test_mode_one_past_the_last_probe(self):
        # no pair turns down, and the last window starts at the mode
        peak = int(self._PROBES[-1]) + 1
        mode, last = self._rounds(peak)
        assert mode == peak
        assert (last[0], last[-1]) == (peak, self._HI)

    # a search over [0, 10**6] of a concave integer sequence f, f(0) = 0 and
    # f(k + 1) - f(k) = d(k), rises out of its second window into 318
    _FAR = 10**6

    def _search(self, d, hi=_FAR):
        """The search of f over [0, hi]: its mode, its rounds' (first, last)
        candidates, and the first argmax of f over [0, hi]."""
        f = np.concatenate(([0], np.cumsum(d))).astype(float)
        rounds = []

        def evaluate(ks):
            rounds.append((int(ks[0]), int(ks[-1])))
            return f[ks]

        mode = _step_window_search(evaluate, 0, hi)[0]
        assert rounds[:2] == [(0, 63), (63, 318)]
        return mode, rounds[2:], int(f[:hi + 1].argmax())

    @pytest.mark.parametrize("peak, rounds", [
        # a bracket [318, 567] under 256 candidates: one window and one past its top
        (400, [(318, 568)]),
        # a probe round over [318, 5367] with a pair on 5367 itself
        (2000, [(471, 5368), (1849, 2001)]),
        (30000, [(3016, 89368), (27384, 29920), (29920, 30001)]),
        # a top past the cap leaves the bracket [318, 10**6]
        (500000, [(30611, 969707), (485930, 514388), (499728, 500590), (499979, 500006)]),
    ])
    def test_linearly_falling_differences_bracket_the_mode(self, peak, rounds):
        # d(k) = peak - k: the window's differences predict the mode exactly,
        # and the bracket [318, 318 + 3 (peak - 317)] holds it
        k = np.arange(self._FAR)
        mode, got, first = self._search(peak - k)
        assert mode == first == peak
        assert got == rounds

    def test_differences_that_fall_slower_than_linearly_resume_probing(self):
        # d(k) = ceil(10^6 / (k + 1)) - 100 falls like 1/k and first reaches 0
        # at 9999, far past the bracket [318, 1056] its window predicts: the
        # pair on 1056 still rises, so the probe rounds go on over [1057, 10^6]
        k = np.arange(self._FAR)
        mode, rounds, first = self._search(-(-10**6 // (k + 1)) - 100)
        assert mode == first == 9999
        assert rounds[0] == (340, 1057)
        assert rounds[1:] == [(31328, 969730), (1974, 30411), (9340, 10203), (9980, 10007)]

    @pytest.mark.parametrize("peak, top, last", [(330, 357, (318, 358)), (2000, 5367, (5215, 5367))])
    def test_a_tie_on_the_bracket_top_returns_the_top(self, peak, top, last):
        # d falls as peak - k over the windows, which brackets the mode in
        # [318, top]; d stays 1 up to top, is 0 there and -1 past it, so
        # f(top) = f(top + 1) is the top. Its pair turns down, or the window
        # over the bracket and one past it returns its first argmax
        d = np.maximum(peak - np.arange(self._FAR), 1)
        d[top], d[top + 1:] = 0, -1
        mode, rounds, first = self._search(d)
        assert mode == first == top
        assert rounds[-1] == last

    @pytest.mark.parametrize("peak, mode, hi, rounds", [
        # the pair on the bracket top 5367 still rises
        (2000, 50000, 50000, [(471, 5368), (6720, 48648), (48688, 49960), (49960, 50000)]),
        # the window over the bracket [318, 357] still rises into 358
        (330, 50000, 50000, [(318, 358), (1862, 48496), (48541, 49955), (49955, 50000)]),
        (330, 1000, 10**6, [(318, 358), (30650, 969708), (1275, 29733), (385, 1248), (998, 1024)]),
    ])
    def test_a_mode_past_the_bracket_top(self, peak, mode, hi, rounds):
        # d falls as peak - k over the windows, then stays 1 up to the mode,
        # or to the cap hi, far past the bracket: the search goes on past it
        d = np.maximum(peak - np.arange(hi), 1)
        d[mode:] = -1
        assert self._search(d, hi) == (mode, rounds, mode)

    @pytest.mark.parametrize("L, E, S, C, M, identified, n_hat, loads", [
        # near-saturated frames, whose differences fall slower than linearly:
        # the pair on the first bracket top still rises, so the probe rounds
        # go on past it, and in the last frame the mode is the cap
        (4096, 1, 2, 4093, 8, 2, 87578, [64, 256, 66, 64, 64, 235]),
        (1000, 3, 10, 987, 4, 10, 11070, [64, 256, 66, 64, 64, 26]),
        (4096, 0, 1, 4095, 1, 1, 40960, [64, 256, 66, 64, 64, 18]),
    ])
    def test_far_modes_at_large_frames_are_the_first_argmax(
        self, kernel_calls, L, E, S, C, M, identified, n_hat, loads
    ):
        obs = FrameObservation(L, E, S, C, identified)
        est = map_estimate(obs, MprOrder(M))
        assert (est.n_hat, kernel_calls) == (n_hat, loads)
        values = _log_posterior_array(np.arange(est.k_min, est.k_max + 1), L, E, S, C, M)
        assert est.n_hat == est.k_min + int(values.argmax())

    def test_lockstep_rounds_are_cut_at_the_caps_of_the_rows_left(self, kernel_calls):
        # the first frame peaks in its first window; the second rises out of
        # its second window into 515, whose differences bracket the mode in
        # [515, 528] (its cap 10 L M is 1320), and one window over it and
        # one past 528 ends the search
        mpr = MprOrder(2)
        frames = [EXAMPLE, FrameObservation(L=66, E=0, S=1, C=65, identified=2)]
        estimates = []
        for obs, loads in zip(frames, ([64], [64, 256, 15])):
            del kernel_calls[:]
            estimates.append(map_estimate(obs, mpr))
            assert kernel_calls == loads
        assert [e.n_hat for e in estimates] == [30, 520]
        estimator._memo.clear()
        estimator._runs.clear()
        del kernel_calls[:]
        # the batch searches each frame in turn, keeping rows: each first
        # window with 16 candidates on each side, then the candidates of the
        # second window that the run lacks and 16 past it, then the last window
        assert population_estimates(frames, mpr) == estimates
        assert kernel_calls == [16 + 64 + 16, 16 + 64 + 16, 255, 15]

    @pytest.mark.parametrize("L, E, S, C, M, n_hat", _FAR_MODES)
    def test_far_modes_are_found_by_probe_rounds(self, kernel_calls, L, E, S, C, M, n_hat):
        # the window regrowth would evaluate up to 65,536 candidates at once
        obs, mpr = FrameObservation(L, E, S, C, S), MprOrder(M)
        assert map_estimate(obs, mpr).n_hat == n_hat
        loads = list(kernel_calls)
        # the first probe round holds a pair on its unproved bracket top
        assert loads[:3] == [64, 256, 66] and max(loads) <= 256
        estimator._memo.clear()
        estimator._runs.clear()
        del kernel_calls[:]
        assert [e.n_hat for e in population_estimates([obs], mpr)] == [n_hat]
        # a batch keeps rows: its two windows gain their margins of 16
        assert kernel_calls == [16 + 64 + 16, 255] + loads[2:]

    def test_large_mpr_order_is_bounded_by_the_probe_rounds(self, kernel_calls):
        # the window regrowth evaluated [64, 256, 1024, 4096, 16384], each
        # candidate at O(M) cost
        assert map_estimate(FrameObservation(10, 1, 3, 6, 3), MprOrder(3000)).n_hat == 25773
        assert kernel_calls == [64, 256, 66, 64, 15]

    @pytest.mark.parametrize("L", [10**18, 2**63 - 1])
    def test_a_search_cap_past_int64_is_refused(self, kernel_calls, L):
        # 10 L M > 2**63 - 1, the largest candidate an int64 array holds
        obs, mpr = FrameObservation(L, 1, 3, L - 4, 3), MprOrder(2)
        with pytest.raises(ValueError, match="exceeds 2"):
            map_estimate(obs, mpr)
        with pytest.raises(ValueError, match="exceeds 2"):
            population_estimates([EXAMPLE, obs], mpr)
        assert kernel_calls == [] and not estimator._memo

    def test_a_search_past_the_largest_kernel_order_is_refused(
        self, monkeypatch, kernel_calls, kernel_orders
    ):
        with pytest.raises(ValueError, match="MPR order 100000000 exceeds 100000,"):
            map_estimate(EXAMPLE, MprOrder(10**8))
        assert 10**8 not in kernel_orders and not estimator._memo
        monkeypatch.setattr(prob_model, "KERNEL_M_MAX", 3)
        assert map_estimate(EXAMPLE, MprOrder(3)).n_hat == 39
        estimator._memo.clear()
        estimator._runs.clear()
        del kernel_calls[:]
        with pytest.raises(ValueError, match="MPR order 4 exceeds 3,"):
            map_estimate(EXAMPLE, MprOrder(4))
        with pytest.raises(ValueError, match="MPR order 4 exceeds 3,"):
            population_estimates([EXAMPLE], MprOrder(4))
        assert 4 not in kernel_orders and not estimator._memo
        del kernel_calls[:]
        # frames that need no search are not bounded
        frames = [FrameObservation(10, 0, 0, 10, 0), FrameObservation(10, 7, 3, 0, 3)]
        assert [e.n_hat for e in population_estimates(frames, MprOrder(4))] == [400, 3]
        assert kernel_calls == []

    def test_frames_that_need_no_search_answer_past_int64(self):
        L, mpr = 10**18, MprOrder(2)
        assert map_estimate(FrameObservation(L, 0, 0, L, 0), mpr).n_hat == 20 * L
        assert population_estimates([FrameObservation(L, L - 3, 3, 0, 5)], mpr)[0].n_hat == 5


class TestMemo:
    OBS = FrameObservation(L=64, E=19, S=28, C=17, identified=40)

    def test_bounded(self, monkeypatch, kernel_calls):
        assert 0 < estimator._MEMO_SIZE < 10**6
        # with room for 3, three keys fill the memo and the fourth empties it
        monkeypatch.setattr(estimator, "_MEMO_SIZE", 3)
        frames = [FrameObservation(64, 19, 28, 17, identified) for identified in (28, 29, 30, 31)]
        for obs in frames[:3]:
            map_estimate(obs, MprOrder(3))
        assert [key[5] - 68 for key in estimator._memo] == [28, 29, 30]
        searched = len(kernel_calls)
        map_estimate(frames[0], MprOrder(3))
        assert len(kernel_calls) == searched
        population_estimates(frames[3:], MprOrder(3))
        assert len(kernel_calls) > searched
        assert [key[5] - 68 for key in estimator._memo] == [31]

    def test_repeated_key_is_a_hit(self, kernel_calls):
        first = map_estimate(self.OBS, MprOrder(3))
        searched = len(kernel_calls)
        assert searched > 0
        assert map_estimate(self.OBS, MprOrder(3)) == first
        assert population_estimates([self.OBS] * 3, MprOrder(3)) == [first] * 3
        assert len(kernel_calls) == searched

    def test_frames_differing_only_in_identified_do_not_share_an_answer(self, kernel_calls):
        # the mode is 130: k_min = 152 and 118 straddle it, so a key without
        # k_min would answer one of them wrongly
        frames = [FrameObservation(64, 19, 28, 17, identified) for identified in (84, 28, 50, 84)]

        def one_by_one():
            return [map_estimate(obs, MprOrder(3)) for obs in frames]

        def batched():
            return population_estimates(frames, MprOrder(3))

        for estimate in (one_by_one, batched):
            estimator._memo.clear()
            estimator._runs.clear()
            estimates = estimate()
            n_hats = [e.n_hat for e in estimates]
            assert len(estimator._memo) == 3
            assert n_hats == [152, 130, 130, 152]
            searched = len(kernel_calls)
            assert one_by_one() == batched() == estimates
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
            estimator._runs.clear()
            cold.append(map_estimate(obs, mpr))
        warm = [map_estimate(obs, mpr) for obs, mpr in frames * 2]
        assert warm == cold * 2


_window_rows = estimator._window_rows


def _checked_window_rows(ks, L, M):
    """``_window_rows``, checked bit for bit against a kernel call at the
    same candidates, with the runs checked after it."""
    rows = _window_rows(ks, L, M)
    assert same_bits(rows, log_slot_probabilities(ks / L, M))
    held = 0
    for (L, M), (k0, log_s, log_c) in estimator._runs.items():
        held += log_s.size
        # a run owns its rows, and holds no row of log p_e
        assert log_s.base is None and log_c.base is None
        assert same_bits((log_s, log_c), log_slot_probabilities(
            np.arange(k0, k0 + log_s.size) / L, M)[1:])
    assert estimator._runs.size == held <= estimator._RUN_SIZE
    return rows


@st.composite
def windows_on_shared_lengths(draw):
    """Up to 12 windows of consecutive candidates on at most three (L, M),
    L <= 512 and M in 1..4, as (L, M, lo, size). A window starts anywhere in
    [0, 600], or next to an earlier window on its (L, M): inside it,
    overlapping it, touching it or just missing it."""
    keys = draw(st.lists(st.tuples(st.integers(1, 512), st.integers(1, 4)),
                         min_size=1, max_size=3, unique=True))
    windows = []
    for _ in range(draw(st.integers(1, 12))):
        L, M = draw(st.sampled_from(keys))
        size = draw(st.integers(1, 64) | st.sampled_from([255, 256]))
        near = [lo + shift for L_, M_, lo, n in windows if (L_, M_) == (L, M)
                for shift in (-size - 1, -size, 1 - size, 0, 1, n - 1, n, n + 1)]
        lo = draw(st.integers(0, 600) | st.sampled_from(near or [0]))
        windows.append((L, M, max(lo, 0), size))
    return windows


class TestRuns:
    def test_windows_are_served_joined_or_kept(self, kernel_calls):
        def rows(lo, size):
            del kernel_calls[:]
            _checked_window_rows(np.arange(lo, lo + size), 10, 2)
            k0, log_s, _ = estimator._runs[10, 2]
            return kernel_calls, (k0, log_s.size)

        assert estimator._RUN_MARGIN == 16
        # a first sighting: the window and 16 candidates on each side
        assert rows(40, 64) == ([16 + 64 + 16], (24, 96))
        # inside the run: no kernel call
        assert rows(50, 40) == ([], (24, 96))
        # overlapping or touching it: only the candidates it lacks, and 16
        # more on each side that the window extends
        assert rows(100, 30) == ([10 + 16], (24, 122))
        assert rows(146, 4) == ([4 + 16], (24, 142))
        # no margin below M + 1 = 3, and none left of a window that starts below it
        assert rows(8, 16) == ([16 + 5], (3, 163))
        assert rows(0, 170) == ([3 + 4 + 16], (0, 186))
        # missing it: the window and its margins, a new run in its place
        assert rows(203, 8) == ([16 + 8 + 16], (187, 40))
        assert estimator._runs.size == 40

    def test_the_left_margin_stops_at_m_plus_1(self, kernel_calls):
        def first_sighting(L, M, lo, size):
            estimator._runs.clear()
            del kernel_calls[:]
            _checked_window_rows(np.arange(lo, lo + size), L, M)
            k0, log_s, _ = estimator._runs[L, M]
            return kernel_calls, (k0, log_s.size)

        # the smallest candidate a search window starts on is M + 1, at C = 1
        assert first_sighting(10, 2, 10, 8) == ([7 + 8 + 16], (3, 31))
        assert first_sighting(10, 4, 5, 8) == ([8 + 16], (5, 24))
        assert first_sighting(10, 4, 2, 8) == ([8 + 16], (2, 24))
        assert first_sighting(10, 4, 21, 8) == ([16 + 8 + 16], (5, 40))

    def test_full_runs_are_emptied(self, monkeypatch):
        assert estimator._WINDOWS[-1] < estimator._RUN_SIZE < 10**6
        # with room for 384 candidates: a run of 64 + 32 on L = 10 and one of
        # 256 + 32 on L = 11 fill the runs, and the next window on a new
        # length empties them
        monkeypatch.setattr(estimator, "_RUN_SIZE", 384)
        estimator._runs.clear()

        def window(L, lo, size):
            return _checked_window_rows(np.arange(lo, lo + size), L, 2)

        window(10, 20, 64)
        window(11, 20, 256)
        assert estimator._runs.size == 384 and set(estimator._runs) == {(10, 2), (11, 2)}
        window(12, 20, 64)
        assert (set(estimator._runs), estimator._runs.size) == ({(12, 2)}, 96)
        # a join that would overfill the runs replaces its run instead
        window(13, 20, 256)
        assert estimator._runs.size == 384
        window(12, 100, 64)
        assert estimator._runs.size == 384 and estimator._runs[12, 2][0] == 84
        # margins that would make one run pass the cap are left out
        window(14, 20, 380)
        assert (set(estimator._runs), estimator._runs.size) == ({(14, 2)}, 380)
        assert estimator._runs[14, 2][0] == 20

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(windows_on_shared_lengths(), st.integers(estimator._WINDOWS[-1], 1024))
    def test_served_rows_are_the_kernels_and_the_runs_stay_bounded(self, windows, cap):
        with mock.patch.object(estimator, "_RUN_SIZE", cap):
            estimator._runs.clear()
            for L, M, lo, size in windows:
                _checked_window_rows(np.arange(lo, lo + size), L, M)

    def test_a_dfsa_cell_reuses_kept_rows_and_other_callers_keep_none(
        self, kernel_calls, monkeypatch
    ):
        searches = []
        search = estimator._window_search
        monkeypatch.setattr(estimator, "_window_search",
                            lambda lo, hi: searches.append(lo) or search(lo, hi))
        # a DFSA run searches frames of lengths it has searched before
        _run_cell((("dfsa", 600, 2, 128), 20, 1))
        assert 0 < len(kernel_calls) < len(searches)
        # an FSA cell's batch of first frames keeps the rows of their length
        estimator._memo.clear()
        estimator._runs.clear()
        del kernel_calls[:], searches[:]
        _run_cell((("fsa", 600, 2, 128), 20, 1))
        assert (len(kernel_calls), len(searches)) == (3, 20)
        assert set(estimator._runs) == {(128, 2)}
        # a direct call keeps none
        map_estimate(EXAMPLE, MprOrder(2))
        assert len(kernel_calls) == 4 and set(estimator._runs) == {(128, 2)}

    @pytest.mark.parametrize("variant, calls, loads", [
        pytest.param("dfsa", 1525, 142687, id="dfsa"),
        pytest.param("fsa", 204, 16886, id="fsa"),
    ])
    def test_the_grid_makes_a_pinned_number_of_kernel_calls(self, kernel_calls, variant, calls, loads):
        # each half of the 20-trial paper grid at seed 1, its cells in one
        # process in key order, from empty caches. On the DFSA half, runs of
        # at most 2^16 candidates without margins made 2,941 calls over
        # 137,997 loads, and without margins at 2^18, 2,661 calls; with
        # margins and the probe bracket [a, k_max], 1,605 calls over 146,068
        # loads. The FSA half's first frames, searched without kept rows,
        # made 1,192 calls over 155,496 loads
        for n in range(100, 1001, 100):
            for M in range(1, 5):
                _run_cell(((variant, n, M, 128), 20, 1))
        assert (len(kernel_calls), sum(kernel_calls)) == (calls, loads)


@st.composite
def frames_on_shared_lengths(draw):
    """2 to 12 frames, in order, on at most three (L, M), L <= 512 and M in
    1..4, none all collided. Most have about as many collided slots as the
    others on their (L, M), so that their first windows overlap, and some
    have none, so that their windows start near k = 0."""
    keys = draw(st.lists(st.tuples(st.integers(1, 512), st.integers(1, 4)),
                         min_size=1, max_size=3, unique=True))
    collided = {key: draw(st.integers(0, key[0] - 1)) for key in keys}
    frames = []
    for _ in range(draw(st.integers(2, 12))):
        L, M = key = draw(st.sampled_from(keys))
        c = collided[key]
        C = draw(st.integers(max(0, c - 2), min(L - 1, c + 2)) | st.integers(0, L - 1))
        S = draw(st.integers(0, L - C))
        frames.append((FrameObservation(L, L - S - C, S, C, draw(st.integers(S, S * M))),
                       MprOrder(M)))
    return frames


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(frames_on_shared_lengths(), st.sampled_from([estimator._WINDOWS[-1], 1024, 2**16]))
def test_kept_rows_change_no_estimate(frames, cap):
    # each frame alone with both caches empty, then all in order through
    # DFSA's entry, which keeps rows, with only the memo emptied, so that
    # each search meets the rows the others kept
    cold = []
    for obs, mpr in frames:
        estimator._memo.clear()
        estimator._runs.clear()
        cold.append(map_estimate(obs, mpr).n_hat)
    estimator._runs.clear()
    warm = []
    with mock.patch.object(estimator, "_window_rows", _checked_window_rows), \
            mock.patch.object(estimator, "_RUN_SIZE", cap):
        for obs, mpr in frames:
            estimator._memo.clear()
            warm.append(tally_mode((obs.L, obs.E, obs.S, obs.C, obs.identified), mpr.M))
    assert warm == cold


@st.composite
def tallies_of_slot_choices(draw):
    """(tally, M): the tallies ``protocol._tally`` counts from random slot
    choices of fewer than 13 L tags, L <= 300 and M in 1..8. A quarter of
    the frames also put M + 1 tags in every slot, so that every slot
    collides."""
    L, M = draw(st.integers(1, 300)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tags = draw(st.integers(0, 12)) * L + draw(st.integers(0, L - 1))
    slots = rng.integers(0, L, size=tags)
    if draw(st.integers(0, 3)) == 0:
        slots = np.concatenate((slots, np.repeat(np.arange(L), M + 1)))
    return _tally(slots, L, M), M


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(tallies_of_slot_choices())
def test_tally_mode_is_the_map_estimate_of_the_tallies(frame):
    tally, M = frame
    # with both caches empty, DFSA's entry searches keeping rows
    estimator._memo.clear()
    estimator._runs.clear()
    with mock.patch.object(estimator, "_window_rows", _checked_window_rows):
        mode = tally_mode(tally, M)
    assert type(mode) is int
    # a direct call, from an empty memo, keeps no rows and agrees
    estimator._memo.clear()
    assert mode == map_estimate(FrameObservation(*tally), MprOrder(M)).n_hat
    # and so do the memo's answer and a search served from the kept rows
    assert tally_mode(tally, M) == mode
    estimator._memo.clear()
    assert tally_mode(tally, M) == mode


class TestPosteriorCurve:
    def test_single_point_is_certain(self):
        curve = list(posterior_curve(EXAMPLE, MprOrder(1), range(21, 22)))
        assert curve == [(21, 1.0)]

    def test_normalization(self):
        curve = posterior_curve(EXAMPLE, MprOrder(2), range(9, 200))
        assert sum(p for _, p in curve) == pytest.approx(1.0, abs=1e-9)

    def test_argmax_agrees_with_map_estimate(self):
        est = map_estimate(EXAMPLE, MprOrder(1))
        curve = posterior_curve(EXAMPLE, MprOrder(1), range(9, 101))
        k_peak = max(curve, key=lambda kp: kp[1])[0]
        assert k_peak == est.n_hat

    def test_posterior_that_vanishes_on_the_whole_range_is_rejected(self):
        # at k = 0 no tag replies, so the successful and collided slots are impossible
        obs = FrameObservation(10, 1, 3, 6, 3)
        with pytest.raises(ValueError, match="posterior vanishes on the whole range"):
            posterior_curve(obs, MprOrder(2), range(0, 1))

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
        reversed_ = list(posterior_curve(EXAMPLE, MprOrder(1), range(22, 19, -1)))
        assert [k for k, _ in reversed_] == [22, 21, 20]
        assert dict(reversed_) == pytest.approx(forward, rel=1e-15)
        with pytest.raises(ValueError, match="non-empty range"):
            posterior_curve(EXAMPLE, MprOrder(1), range(22, -2, -1))

    def test_a_curve_past_its_budget_is_refused(self, monkeypatch, kernel_calls, kernel_orders):
        # the collision-free frame whose 101-candidate curve at M = 10^8 ran for minutes
        clean = FrameObservation(10, 7, 3, 0, 3)
        with pytest.raises(ValueError, match="101 candidates at MPR order 100000000 exceeds"):
            posterior_curve(clean, MprOrder(10**8), range(3, 104))
        with pytest.raises(ValueError, match="MPR order 1000000 exceeds 100000,"):
            posterior_curve(clean, MprOrder(10**6), range(3, 4))
        with pytest.raises(ValueError, match="5000001 candidates at MPR order 2 exceeds"):
            posterior_curve(EXAMPLE, MprOrder(2), range(15, 5_000_016))
        with pytest.raises(ValueError, match="budget of 10000000 candidates times M"):
            posterior_curve(EXAMPLE, MprOrder(1), range(10**30, 0, -1))
        assert kernel_orders == [] and not estimator._memo
        monkeypatch.setattr(prob_model, "_CURVE_BUDGET", 40)
        assert len(list(posterior_curve(EXAMPLE, MprOrder(2), range(34, 14, -1)))) == 20
        del kernel_calls[:]
        with pytest.raises(ValueError, match="21 candidates at MPR order 2 exceeds"):
            posterior_curve(EXAMPLE, MprOrder(2), range(15, 56, 2))
        assert kernel_calls == []


class TestPopulationEstimate:
    def test_collision_free_frame_is_counted_exactly(self):
        clean = FrameObservation(L=10, E=0, S=10, C=0, identified=10)
        assert map_estimate(clean, MprOrder(2)).n_hat == 14
        assert population_estimates([clean], MprOrder(2)) == [MapEstimate(10, 10, 200)]

    @pytest.mark.parametrize("M", [1, 2, 4])
    def test_collided_frame_takes_the_map_estimate(self, M):
        mpr = MprOrder(M)
        assert population_estimates([EXAMPLE], mpr) == [map_estimate(EXAMPLE, mpr)]

    def test_collision_free_frame_is_checked(self):
        overfull = FrameObservation(L=10, E=6, S=4, C=0, identified=9)
        with pytest.raises(ValueError):
            population_estimates([overfull], MprOrder(2))
        with pytest.raises(ValueError):
            population_estimates([EXAMPLE, overfull], MprOrder(2))

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
            estimator._runs.clear()
            del kernel_calls[:]
            map_estimate(obs, mpr)
            windows.append(len(kernel_calls))
        estimator._memo.clear()
        estimator._runs.clear()
        del kernel_calls[:]
        n_hats = population_estimates(frames, mpr)
        # the batch searches each of its two keys once, and the second finds
        # both its windows in the rows that the first kept
        assert kernel_calls == [16 + 64 + 16, 255, 66, 9, 66, 10]
        assert len(kernel_calls) < len(set(searched)) * max(windows)
        # a DFSA run has already estimated its first frame: the batch searches nothing
        estimator._memo.clear()
        estimator._runs.clear()
        for obs in frames:
            map_estimate(obs, mpr)
        del kernel_calls[:]
        assert population_estimates(frames, mpr) == n_hats
        assert kernel_calls == []


#: brute force runs where the search cap 10 L M is at most this
_BRUTE_FORCE_CAP = 4096


@st.composite
def frame_batches(draw, mpr_orders=st.integers(1, 8)):
    """An M from ``mpr_orders`` and a batch of frames with L in [1, 2048], among them
    frames with C = 0 and C = L, frames that differ only in identified, and
    repeated frames."""
    M = draw(mpr_orders)
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
    # where M has a far mode, its probe rounds run beside the windows of the others
    M, frames = batch
    far = [(FrameObservation(L, E, S, C, S), n_hat) for L, E, S, C, M_, n_hat in _FAR_MODES if M_ == M]
    estimates = _check_population_estimates(M, frames + [obs for obs, _ in far])
    assert [e.n_hat for e in estimates[len(frames):]] == [n_hat for _, n_hat in far]


def _check_population_estimates(M, frames):
    """``population_estimates`` of the frames, with a cold, a partly filled
    and a warm memo, equals ``map_estimate`` frame by frame, and brute force
    where the search cap allows it; returns the estimates."""
    mpr = MprOrder(M)
    expected = []
    for obs in frames:
        estimator._memo.clear()
        if obs.C == 0:
            expected.append(MapEstimate(obs.identified, obs.identified, 10 * obs.L * M))
        else:
            expected.append(map_estimate(obs, mpr))
    # a cold memo, one that some frames' own estimates filled, and a warm one
    estimator._memo.clear()
    assert population_estimates(frames, mpr) == expected
    estimator._memo.clear()
    for obs in frames[::2]:
        map_estimate(obs, mpr)
    assert population_estimates(frames, mpr) == expected
    assert population_estimates(iter(frames), mpr) == expected
    for obs, estimate in zip(frames, expected):
        k_max = 10 * obs.L * M
        if obs.C > 0 and k_max <= _BRUTE_FORCE_CAP:
            k_min = obs.identified + (M + 1) * obs.C
            assert estimate.n_hat == brute_force_map(
                obs.L, obs.E, obs.S, obs.C, M, k_max=k_max, k_min=k_min
            )
    return expected


@st.composite
def frames_up_to_the_probe_rounds(draw):
    """An M in [1, 8] and a frame with L in [1, 4096] and a free slot; half
    of them have C >= L - 3, whose modes lie far past the third window."""
    L = draw(st.integers(1, 4096))
    C = draw(st.one_of(st.integers(max(0, L - 3), L - 1), st.integers(0, L - 1)))
    S = draw(st.integers(0, L - C))
    M = draw(st.integers(1, 8))
    return M, FrameObservation(L, L - S - C, S, C, draw(st.integers(S, S * M)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(frames_up_to_the_probe_rounds())
def test_estimates_equal_the_first_argmax_over_the_whole_cap(frame):
    M, obs = frame
    mpr = MprOrder(M)
    k_min, k_max = obs.identified + (M + 1) * obs.C, 10 * obs.L * M
    values = _log_posterior_array(np.arange(k_min, k_max + 1), obs.L, obs.E, obs.S, obs.C, M)
    first_argmax = k_min + int(values.argmax())
    estimator._memo.clear()
    assert map_estimate(obs, mpr).n_hat == first_argmax
    if obs.C > 0:
        estimator._memo.clear()
        assert [e.n_hat for e in population_estimates([obs], mpr)] == [first_argmax]


def test_search_lower_bound_counts_collision_minimum():
    assert map_estimate(EXAMPLE, MprOrder(1)).k_min == 3 + 2 * 6
    assert map_estimate(EXAMPLE, MprOrder(3)).k_min == 3 + 4 * 6
