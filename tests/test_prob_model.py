import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from conftest import binomial_occupancy, same_bits
from dfsa_mpr import estimator, prob_model
from dfsa_mpr.estimator import FrameObservation, map_estimate, population_estimates, posterior_curve
from dfsa_mpr.harness import efficiency_curve, optimal_length_table
from dfsa_mpr.prob_model import MprOrder, channel_efficiency, log_slot_probabilities


def exact_binomial(j, n, L):
    """Product-form occupancy probability with exact rationals (small n only)."""
    assert n <= 20
    p = Fraction(1, L)
    return float(math.comb(n, j) * p**j * (1 - p) ** (n - j))


class TestBinomialOccupancy:
    def test_empty_population(self):
        assert binomial_occupancy(0, 0, 10) == 1.0

    def test_single_tag_single_slot(self):
        assert binomial_occupancy(1, 1, 1) == 1.0

    def test_exact_rational_oracle(self):
        assert binomial_occupancy(2, 10, 5) == pytest.approx(
            exact_binomial(2, 10, 5), rel=1e-13
        )

    @pytest.mark.parametrize("n,L", [(5, 2), (10, 5), (16, 16), (20, 3)])
    def test_exact_oracle_all_occupancies(self, n, L):
        for j in range(n + 1):
            assert binomial_occupancy(j, n, L) == pytest.approx(
                exact_binomial(j, n, L), rel=1e-12, abs=1e-300
            )

    def test_large_n_stays_finite(self):
        p = binomial_occupancy(3, 10**6, 10**6)
        assert 0.0 < p < 1.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            binomial_occupancy(-1, 5, 2)
        with pytest.raises(ValueError):
            binomial_occupancy(6, 5, 2)


class TestSlotProbabilities:
    def test_zero_load(self):
        for L in (1, 10, 128):
            probs = np.exp(log_slot_probabilities(0 / L, 3))
            assert probs.tolist() == [1.0, 0.0, 0.0]

    def test_unit_load_single_packet(self):
        p_e, p_s, p_c = np.exp(log_slot_probabilities(128 / 128, 1))
        assert p_e == pytest.approx(math.exp(-1), rel=1e-14)
        assert p_s == pytest.approx(math.exp(-1), rel=1e-14)
        assert p_c == pytest.approx(1 - 2 * math.exp(-1), rel=1e-12)

    def test_frozen_high_precision_values(self):
        # mpmath (40 dps) evaluation of the truncated-Poisson forms at rho=2, M=4
        p_e, p_s, p_c = np.exp(log_slot_probabilities(100 / 50, 4))
        assert p_e == pytest.approx(0.135335283236612692, rel=1e-14)
        assert p_s == pytest.approx(0.812011699419676151, rel=1e-14)
        assert p_c == pytest.approx(0.0526530173437111567, rel=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 7, 64, 128, 1000, 10000])
    @pytest.mark.parametrize("L", [1, 16, 128, 1024])
    @pytest.mark.parametrize("M", [1, 2, 4, 8])
    def test_probabilities_partition_unity(self, n, L, M):
        probs = np.exp(log_slot_probabilities(n / L, M))
        assert np.all((0.0 <= probs) & (probs <= 1.0))
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n,L", [(100, 20), (50, 50), (300, 100)])
    def test_success_monotone_in_mpr_order(self, n, L):
        _, prev_s, prev_c = np.exp(log_slot_probabilities(n / L, 1))
        for M in range(2, min(n, 12)):
            _, p_s, p_c = np.exp(log_slot_probabilities(n / L, M))
            assert p_s > prev_s
            assert p_c < prev_c
            prev_s, prev_c = p_s, p_c

    @pytest.mark.parametrize("n,L", [(100, 100), (500, 200), (1000, 1000), (250, 128)])
    @pytest.mark.parametrize("M", [1, 2, 3, 4])
    def test_poisson_tracks_binomial(self, n, L, M):
        # the approximation regime: both n and L at least 100
        binom_success = sum(binomial_occupancy(j, n, L) for j in range(1, M + 1))
        assert abs(binom_success - channel_efficiency(n / L, M)) <= 0.01


def test_expected_success_slots_zero_load():
    assert 40 * channel_efficiency(0 / 40, 2) == 0.0


def test_expected_success_slots_unit_load():
    assert 77 * channel_efficiency(77 / 77, 1) == pytest.approx(
        77 * math.exp(-1), rel=1e-14
    )


def test_expected_success_slots_frozen_value():
    # mpmath (40 dps): 45 * e^(-100/45) * sum_{j=1..4} (100/45)^j / j!
    assert 45 * channel_efficiency(100 / 45, 4) == pytest.approx(
        36.7519720272886007, rel=1e-14
    )


def decimal_log_slot_probabilities(x, M, digits=80):
    """(log p_e, log p_s, log p_c) at Poisson load x, in `digits`-digit decimal.

    The collision tail is summed term by term until a term falls below
    10^-(digits - 10) of the running sum, so no complement is ever taken.
    """
    with localcontext() as ctx:
        ctx.prec = digits
        x = Decimal(x)
        p_e = (-x).exp()
        term, success = Decimal(1), Decimal(0)
        for j in range(1, M + 1):
            term = term * x / j
            success += term
        tail, j = Decimal(0), M + 1
        while True:
            term = term * x / j
            tail += term
            if term <= tail * Decimal(10) ** (10 - digits):
                break
            j += 1
        return tuple(float(p.ln()) for p in (p_e, p_e * success, p_e * tail))


@pytest.mark.parametrize("M", [1, 2, 3, 4, 5, 6, 7, 8, 50, 170, 171, 400])
def test_kernel_matches_decimal_reference(M):
    # loads on both sides of the series/complement switch at x = M+1
    xs = [f * (M + 1) for f in (0.01, 0.1, 0.5, 0.9, 0.999, 1.0, 1.001, 1.1, 2.0, 4.0)]
    xs += [0.3, 1.0, 2.5]
    got = np.array(log_slot_probabilities(np.array(xs), M))
    for i, x in enumerate(xs):
        want = decimal_log_slot_probabilities(x, M)
        # an absolute error of d in log p is a relative error of about d in p
        assert np.abs(got[:, i] - want).max() <= 1e-12, x


def test_kernel_zero_load():
    log_e, log_s, log_c = log_slot_probabilities(np.zeros(3), 4)
    assert log_e.tolist() == [0.0] * 3
    assert log_s.tolist() == log_c.tolist() == [-math.inf] * 3


@pytest.mark.parametrize("M", [1, 2, 4, 8, 50])
def test_kernel_value_depends_on_its_own_load_only(M):
    # loads on both sides of M+1, more of them than one block holds
    rng = np.random.default_rng(M)
    x = rng.uniform(0.0, 3.0 * (M + 1), size=2000)
    whole = np.array(log_slot_probabilities(x, M))
    for i in range(0, x.size, 37):
        alone = np.array(log_slot_probabilities(x[i], M))
        assert np.array_equal(alone, whole[:, i])
        pair = np.array(log_slot_probabilities([x[i], 3.0 * (M + 1)], M))
        assert np.array_equal(pair[:, 0], whole[:, i])
    for start, stop in [(1, 64), (5, 300), (999, 2000)]:
        part = np.array(log_slot_probabilities(x[start:stop], M))
        assert np.array_equal(part, whole[:, start:stop])


def test_blocks_hold_two_loads_at_a_large_mpr_order(monkeypatch):
    # at M = 10,000 a block of 8192 // (M + 1) = 0 loads is raised to 2; at
    # one load a block, each load was evaluated as a pair, 128 columns for 64
    M = 10_000
    x = np.linspace(1.0, 3.0 * M, 64)
    alone = np.array([log_slot_probabilities(load, M) for load in x]).T
    widths = []
    block = prob_model._log_slot_block

    def spy(x, k, out):
        widths.append(x.size)
        block(x, k, out)

    monkeypatch.setattr(prob_model, "_log_slot_block", spy)
    whole = np.array(log_slot_probabilities(x, M))
    assert widths == [2] * 32
    assert np.array_equal(whole, alone)


def _frozen_log_collided_series(x, k):
    if x.size == 1:
        return _frozen_log_collided_series(np.repeat(x, 2), k)[:1]
    M = k.M
    powers = k.tail_powers * np.log(x / (M + 1))
    np.exp(powers, out=powers)
    series = np.einsum("i,ij->j", k.tail_weights, powers)
    return (M + 1) * np.log(x) - k.log_first_tail + np.log1p(series) - x


def _frozen_log_slot_block(x, k, out):
    if x.size == 1:
        pair = np.empty((3, 2))
        _frozen_log_slot_block(np.repeat(x, 2), k, pair)
        out[:] = pair[:, :1]
        return
    log_e, log_s, log_c = out
    np.negative(x, out=log_e)
    terms = k.j * np.log(x) - k.log_factorials
    shift = np.maximum(terms.max(axis=0), np.finfo(float).min)
    terms -= shift
    np.add(log_e, shift, out=log_s)
    log_s += np.log(np.exp(terms, out=terms).sum(axis=0))
    low = x < k.M + 1
    if low.all():
        log_c[:] = _frozen_log_collided_series(x, k)
        return
    high = ~low
    log_c[high] = np.log1p(-np.exp(np.logaddexp(log_e[high], log_s[high])))
    if low.any():
        log_c[low] = _frozen_log_collided_series(x[low], k)


def frozen_log_slot_probabilities(x, M):
    """The kernel in an earlier formulation, kept as the reference for its
    bits: log x taken in each term, a log-sum-exp of M rows at every M, the
    collided term built in temporaries, and a mask on every block."""
    k = prob_model._kernel_constants(M)
    flat = np.asarray(x, dtype=float).ravel()
    out = np.empty((3, flat.size))
    block = max(2, prob_model._BLOCK_ENTRIES // (M + 1))
    with np.errstate(divide="ignore"):
        for start in range(0, flat.size, block):
            _frozen_log_slot_block(flat[start:start + block], k, out[:, start:start + block])
    return tuple(out)


@pytest.mark.parametrize("M", [*range(1, 10), 17, 100, 1000])
def test_kernel_keeps_the_bits_of_its_frozen_reference(M):
    # the same machine runs both sides, so this holds on any CPU
    rng = np.random.default_rng(M)
    block = max(2, prob_model._BLOCK_ENTRIES // (M + 1))
    for size in (1, 2, 3, 64, 257, block + 1):
        loads = [
            rng.uniform(0.0, 3.0 * (M + 1), size),  # mixed blocks, mostly
            rng.uniform(0.0, M + 1, size),  # every load below M + 1
            rng.uniform(M + 1, 3.0 * (M + 1), size),  # none below it
        ]
        with_zeros = rng.uniform(0.0, 3.0 * (M + 1), size)
        with_zeros[::5] = 0.0
        loads += [with_zeros, np.zeros(size), np.full(size, float(M + 1))]
        for x in loads:
            assert same_bits(log_slot_probabilities(x, M), frozen_log_slot_probabilities(x, M))


@pytest.mark.parametrize("M", [170, 171, 200, 400])
@pytest.mark.parametrize("n,L", [(1000, 1), (1, 1000), (400, 2), (5000, 7)])
def test_large_mpr_order_stays_finite(n, L, M):
    probs = np.exp(log_slot_probabilities(n / L, M))
    assert not np.isnan(probs).any()
    assert np.all((0.0 <= probs) & (probs <= 1.0))
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_channel_efficiency_matches_aloha_bound():
    assert channel_efficiency(400 / 400, 1) == pytest.approx(
        math.exp(-1), rel=1e-14
    )


def test_channel_efficiency_peak_location_m4():
    # the rounded continuous optimum must win an exhaustive integer scan
    n = 1000
    L_star = round(n / 24 ** (1 / 4))
    u_star = channel_efficiency(n / L_star, 4)
    u_best = channel_efficiency(n / np.arange(1, 4 * n + 1), 4).max()
    assert u_star == u_best


@pytest.mark.parametrize("n", [10, 100, 1000])
@pytest.mark.parametrize("M", [1, 2, 3, 4])
def test_efficiency_unimodal_in_frame_length(n, M):
    u = channel_efficiency(n / np.arange(1, 4 * n + 1), M)
    peak = int(u.argmax())
    assert np.all(u[:peak] <= u[1 : peak + 1] + 1e-15)
    assert np.all(u[peak:-1] >= u[peak + 1 :] - 1e-15)


@pytest.mark.parametrize("M", [0, 2.5, True])
def test_channel_efficiency_rejects_bad_mpr_order(M):
    with pytest.raises(ValueError, match="MPR order"):
        channel_efficiency(1.0, M)


def test_channel_efficiency_past_the_largest_kernel_order_is_refused(kernel_orders):
    with pytest.raises(ValueError, match="MPR order 100001 exceeds 100000,"):
        channel_efficiency(1.0, prob_model.KERNEL_M_MAX + 1)
    assert kernel_orders == [] and not estimator._memo


_FRAME = FrameObservation(L=10, E=1, S=3, C=6, identified=3)


@pytest.mark.parametrize(
    "request_kernel",
    [
        pytest.param(lambda M: map_estimate(_FRAME, MprOrder(M)), id="map_estimate"),
        pytest.param(lambda M: population_estimates([_FRAME], MprOrder(M)),
                     id="population_estimates"),
        pytest.param(lambda M: posterior_curve(_FRAME, MprOrder(M), range(30, 33)),
                     id="posterior_curve"),
        pytest.param(lambda M: channel_efficiency([0.5, 2.0], M), id="channel_efficiency"),
        pytest.param(lambda M: efficiency_curve(30, MprOrder(M), max_length=8),
                     id="efficiency_curve"),
        pytest.param(lambda M: optimal_length_table([30, 60], [M]), id="optimal_length_table"),
    ],
)
def test_the_kernel_refuses_an_order_past_its_bound_for_every_caller(request_kernel, kernel_orders):
    # each request is inside the curve budget, so the kernel's own check refuses it
    with pytest.raises(ValueError, match="MPR order 100001 exceeds 100000,"):
        request_kernel(prob_model.KERNEL_M_MAX + 1)
    assert kernel_orders == [] and not estimator._memo


@pytest.mark.parametrize("x", [-1.0, math.nan, math.inf, [0.5, -1.0]])
def test_channel_efficiency_rejects_bad_load(x):
    with pytest.raises(ValueError, match="load"):
        channel_efficiency(x, 2)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        MprOrder(0)


@pytest.mark.parametrize("M", [1.5, 2.0, True])
def test_mpr_order_must_be_an_integer(M):
    with pytest.raises(ValueError):
        MprOrder(M)
