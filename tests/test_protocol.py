import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dfsa_mpr.protocol as protocol
from conftest import binomial_occupancy
from dfsa_mpr.estimator import FrameObservation, map_estimate, tally_mode
from dfsa_mpr.frame_optimizer import next_frame_length
from dfsa_mpr.prob_model import MprOrder
from dfsa_mpr.protocol import (
    NonTerminationError,
    ProtocolConfig,
    Variant,
    _tally,
    run_frame,
    run_interrogation,
)


def test_frame_with_no_tags():
    obs = run_frame(0, 16, MprOrder(1), np.random.default_rng(0))
    assert (obs.E, obs.S, obs.C, obs.identified) == (16, 0, 0, 0)


def test_single_tag_single_slot():
    for M in (1, 2, 5):
        obs = run_frame(1, 1, MprOrder(M), np.random.default_rng(0))
        assert (obs.E, obs.S, obs.C, obs.identified) == (0, 1, 0, 1)


@pytest.mark.parametrize("tags,L", [(True, 4), (3.0, 4), (5, 4.0), (5, True), (-1, 4), (5, 0)])
def test_frame_rejects_bad_counts(tags, L):
    with pytest.raises(ValueError):
        run_frame(tags, L, MprOrder(1), np.random.default_rng(0))


def test_frame_accepts_numpy_integer_counts():
    expected = run_frame(5, 4, MprOrder(2), np.random.default_rng(0))
    assert run_frame(np.int64(5), np.int64(4), MprOrder(2), np.random.default_rng(0)) == expected


def test_frame_tallies_always_partition():
    rng = np.random.default_rng(3)
    for _ in range(200):
        tags = int(rng.integers(0, 300))
        L = int(rng.integers(1, 200))
        M = int(rng.integers(1, 5))
        obs = run_frame(tags, L, MprOrder(M), rng)
        assert obs.E + obs.S + obs.C == L
        assert obs.S <= obs.identified <= obs.S * M


def test_success_fraction_matches_poisson_limit():
    # 1e4 frames at rho=1, M=1: mean success fraction ~ 1/e within 3 SE
    rng = np.random.default_rng(11)
    fractions = np.array(
        [run_frame(100, 100, MprOrder(1), rng).S / 100 for _ in range(10_000)]
    )
    se = fractions.std(ddof=1) / math.sqrt(fractions.size)
    assert abs(fractions.mean() - math.exp(-1)) <= 3 * se


@pytest.mark.parametrize("M", [1, 2, 3, 4])
def test_outcome_frequencies_match_binomial(M):
    # >= 1e5 simulated slots against the exact binomial class probabilities
    n, L, frames = 100, 100, 1000
    rng = np.random.default_rng(29 + M)
    exact = {
        "E": binomial_occupancy(0, n, L),
        "S": sum(binomial_occupancy(j, n, L) for j in range(1, M + 1)),
    }
    exact["C"] = 1.0 - exact["E"] - exact["S"]
    samples = {"E": [], "S": [], "C": []}
    for _ in range(frames):
        obs = run_frame(n, L, MprOrder(M), rng)
        samples["E"].append(obs.E / L)
        samples["S"].append(obs.S / L)
        samples["C"].append(obs.C / L)
    for key, values in samples.items():
        values = np.array(values)
        se = values.std(ddof=1) / math.sqrt(frames)
        assert abs(values.mean() - exact[key]) <= 3 * se, key


def _mask_tally(slots, L, M):
    """The frame's tallies counted class by class with numpy masks."""
    counts = np.bincount(slots, minlength=L)
    empty = int(np.count_nonzero(counts == 0))
    success_mask = (counts >= 1) & (counts <= M)
    success = int(np.count_nonzero(success_mask))
    identified = int(counts[success_mask].sum())
    return FrameObservation(
        L=L, E=empty, S=success, C=L - empty - success, identified=identified
    )


@st.composite
def frames_of_slot_choices(draw):
    L = draw(st.integers(1, 300))
    slots = draw(st.lists(st.integers(0, L - 1), max_size=600))
    # small M collides; M past the largest occupancy decodes every occupied slot
    M = draw(st.integers(1, 8) | st.integers(1, len(slots) + 2))
    return np.array(slots, dtype=np.int64), L, M


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(frames_of_slot_choices(), st.booleans())
@example((np.empty(0, dtype=np.int64), 5, 1), False)
@example((np.empty(0, dtype=np.int64), 5, 4), True)
# at M = 1: every slot empty, every slot collided, and one tag in every slot
@example((np.empty(0, dtype=np.int64), 7, 1), True)
@example((np.repeat(np.arange(4), 2), 4, 1), False)
@example((np.arange(6), 6, 1), False)
def test_occupancy_tally_matches_the_mask_tally(frame, numpy_ints):
    slots, L, M = frame
    expected = _mask_tally(slots, L, M)
    if numpy_ints:
        L, M = np.int64(L), np.int64(M)
    assert FrameObservation(*_tally(slots, L, M)) == expected


def _frame_by_frame(config, rng):
    """The run as one ``run_frame`` draw per frame; after a collided frame,
    DFSA sizes the next one from the frame's MAP estimate."""
    frames, tags, L = [], config.n, config.initial_frame_length
    while True:
        obs = run_frame(tags, L, config.mpr, rng)
        frames.append(obs)
        tags -= obs.identified
        if obs.C == 0:
            return frames
        if config.variant is Variant.DFSA:
            n_hat = map_estimate(obs, config.mpr).n_hat
            L = next_frame_length(n_hat, obs.identified, config.mpr)


@pytest.mark.parametrize("M", [1, 2, 3, 4])
@pytest.mark.parametrize("L0,n", [(3, 12), (100, 700), (127, 1000), (128, 1000), (1000, 3000),
                                  (16, 0), (128, 5), (16384, 20000)])
def test_fsa_block_draws_give_the_per_frame_stream(L0, n, M):
    # the longest of these runs draws several blocks, so a block boundary
    # falls inside a frame and the unused tail carries over. The first block
    # runs ahead by the first frame's tags, up to 2^14: with no tags nothing
    # is drawn, a run of one frame (128, 5) draws only that block, and at
    # 20,000 tags it runs ahead by the cap
    config = ProtocolConfig(n=n, mpr=MprOrder(M), initial_frame_length=L0, variant=Variant.FSA)
    for seed in (0, 1):
        expected = _frame_by_frame(config, np.random.default_rng(seed))
        result = run_interrogation(config, np.random.default_rng(seed))
        assert result.frames == expected
        assert result.total_slots == L0 * len(expected)


@pytest.mark.parametrize("M", [1, 2, 3, 4])
@pytest.mark.parametrize("L0,n", [(16, 0), (1, 1), (3, 12), (128, 350), (128, 1000), (16, 300)])
def test_dfsa_trajectory_is_the_frame_by_frame_one(L0, n, M):
    config = ProtocolConfig(n=n, mpr=MprOrder(M), initial_frame_length=L0)
    for seed in (0, 1):
        expected = _frame_by_frame(config, np.random.default_rng(seed))
        result = run_interrogation(config, np.random.default_rng(seed))
        assert result.frames == expected
        assert result.tallies == [(f.L, f.E, f.S, f.C, f.identified) for f in expected]
        assert all(type(v) is int for tally in result.tallies for v in tally)
        assert result.total_slots == sum(f.L for f in expected)


@pytest.mark.parametrize("variant", [Variant.FSA, Variant.DFSA])
def test_numpy_integer_config_gives_python_int_tallies(variant):
    def run(n, M, L0):
        config = ProtocolConfig(n=n, mpr=MprOrder(M), initial_frame_length=L0, variant=variant)
        return run_interrogation(config, np.random.default_rng(5))

    result = run(np.int64(300), np.int64(2), np.int64(64))
    assert result == run(300, 2, 64)
    assert all(type(v) is int for tally in result.tallies for v in tally)
    assert type(result.total_slots) is int


def test_no_tags_terminates_immediately():
    config = ProtocolConfig(n=0, mpr=MprOrder(1), initial_frame_length=32)
    result = run_interrogation(config, np.random.default_rng(0))
    assert len(result.frames) == 1
    assert result.total_slots == 32
    assert sum(f.identified for f in result.frames) == 0
    assert result.frames[-1].C == 0


def test_single_tag_cannot_collide():
    for M in (1, 3):
        config = ProtocolConfig(n=1, mpr=MprOrder(M), initial_frame_length=16)
        result = run_interrogation(config, np.random.default_rng(1))
        assert len(result.frames) == 1
        assert sum(f.identified for f in result.frames) == 1
        assert result.frames[-1].C == 0


@pytest.mark.parametrize("variant", [Variant.FSA, Variant.DFSA])
@pytest.mark.parametrize("n,M,L0", [(40, 1, 32), (200, 2, 64), (350, 4, 128)])
def test_interrogation_invariants(variant, n, M, L0):
    config = ProtocolConfig(
        n=n, mpr=MprOrder(M), initial_frame_length=L0, variant=variant
    )
    result = run_interrogation(config, np.random.default_rng(17))
    assert sum(f.identified for f in result.frames) == n
    assert result.total_slots == sum(f.L for f in result.frames)
    assert result.frames[-1].C == 0
    remaining = n
    for obs in result.frames:
        assert obs.E + obs.S + obs.C == obs.L
        assert obs.S <= obs.identified <= obs.S * M
        remaining -= obs.identified
        assert remaining >= 0
    assert remaining == 0


@pytest.mark.parametrize(
    "n,M,L0",
    [(-1, 1, 8), (1.5, 1, 8), (True, 1, 8), (5, 0, 8), (5, 1.5, 8), (5, 1, 0), (5, 1, 8.0)],
)
def test_config_rejects_bad_counts(n, M, L0):
    with pytest.raises(ValueError):
        ProtocolConfig(n=n, mpr=MprOrder(M), initial_frame_length=L0)


@pytest.mark.parametrize(
    "field,value", [("variant", "dfsa"), ("variant", "fsa"), ("mpr", 2), ("mpr", None)]
)
def test_config_rejects_untyped_variant_or_mpr(field, value):
    # a string variant would fail the Variant.DFSA identity test and run FSA
    kwargs = {"n": 350, "mpr": MprOrder(4), "initial_frame_length": 128, field: value}
    with pytest.raises(ValueError, match=field):
        ProtocolConfig(**kwargs)


def _spy_on_tally_mode(monkeypatch) -> list[tuple[FrameObservation, int, int]]:
    """Record each frame the protocol estimates, with the MPR order it
    passed and the n_hat it got."""
    calls = []

    def spy(tally, M):
        n_hat = tally_mode(tally, M)
        calls.append((FrameObservation(*tally), M, n_hat))
        return n_hat

    monkeypatch.setattr(protocol, "tally_mode", spy)
    return calls


def test_fsa_never_estimates_or_adapts(monkeypatch):
    calls = _spy_on_tally_mode(monkeypatch)
    config = ProtocolConfig(
        n=300, mpr=MprOrder(1), initial_frame_length=64, variant=Variant.FSA
    )
    result = run_interrogation(config, np.random.default_rng(2))
    assert calls == []
    assert all(f.L == 64 for f in result.frames)


def test_dfsa_estimates_every_collided_frame(monkeypatch):
    calls = _spy_on_tally_mode(monkeypatch)
    config = ProtocolConfig(n=300, mpr=MprOrder(2), initial_frame_length=128)
    result = run_interrogation(config, np.random.default_rng(2))
    collided = [f for f in result.frames if f.C > 0]
    assert collided
    assert [obs for obs, _, _ in calls] == collided
    for obs, M, n_hat in calls:
        assert M == 2
        assert n_hat == map_estimate(obs, MprOrder(M)).n_hat >= obs.identified


@pytest.mark.parametrize("M", [1, 2, 3, 4])
def test_dfsa_estimate_meets_the_consistency_bound(M):
    # the next frame is sized for estimate - identified tags, never fewer than M+1
    mpr = MprOrder(M)
    config = ProtocolConfig(n=300, mpr=mpr, initial_frame_length=64)
    for seed in range(20):
        result = run_interrogation(config, np.random.default_rng(seed))
        for obs in result.frames:
            if obs.C > 0:
                assert map_estimate(obs, mpr).n_hat - obs.identified >= (M + 1) * obs.C


def test_identical_seed_identical_trajectory():
    config = ProtocolConfig(n=250, mpr=MprOrder(3), initial_frame_length=128)
    a = run_interrogation(config, np.random.default_rng(99))
    b = run_interrogation(config, np.random.default_rng(99))
    assert a == b


def test_safety_cap_raises_diagnostic(monkeypatch):
    monkeypatch.setattr(protocol, "FRAME_SAFETY_CAP", 1)
    config = ProtocolConfig(
        n=60, mpr=MprOrder(1), initial_frame_length=4, variant=Variant.FSA
    )
    with pytest.raises(NonTerminationError):
        run_interrogation(config, np.random.default_rng(0))


def test_mpr_reduces_mean_delay():
    # statistical ordering over 200 trials at n=350, L0=128
    delays = {}
    for M in (1, 4):
        config = ProtocolConfig(n=350, mpr=MprOrder(M), initial_frame_length=128)
        totals = [
            run_interrogation(config, np.random.default_rng(1000 + t)).total_slots
            for t in range(200)
        ]
        delays[M] = np.mean(totals)
    assert delays[4] < delays[1]
