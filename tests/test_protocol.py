import math

import numpy as np
import pytest

import dfsa_mpr.protocol as protocol
from conftest import binomial_occupancy
from dfsa_mpr.prob_model import Load, MprOrder
from dfsa_mpr.protocol import (
    NonTerminationError,
    ProtocolConfig,
    Variant,
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
    load = Load(n=n, L=L)
    exact = {
        "E": binomial_occupancy(0, load),
        "S": sum(binomial_occupancy(j, load) for j in range(1, M + 1)),
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


def test_no_tags_terminates_immediately():
    config = ProtocolConfig(n=0, mpr=MprOrder(1), initial_frame_length=32)
    result = run_interrogation(config)
    assert len(result.frames) == 1
    assert result.total_slots == 32
    assert sum(f.observation.identified for f in result.frames) == 0
    assert result.frames[-1].observation.C == 0


def test_single_tag_cannot_collide():
    for M in (1, 3):
        config = ProtocolConfig(n=1, mpr=MprOrder(M), initial_frame_length=16)
        result = run_interrogation(config, np.random.default_rng(1))
        assert len(result.frames) == 1
        assert sum(f.observation.identified for f in result.frames) == 1
        assert result.frames[-1].observation.C == 0


@pytest.mark.parametrize("variant", [Variant.FSA, Variant.DFSA])
@pytest.mark.parametrize("n,M,L0", [(40, 1, 32), (200, 2, 64), (350, 4, 128)])
def test_interrogation_invariants(variant, n, M, L0):
    config = ProtocolConfig(
        n=n, mpr=MprOrder(M), initial_frame_length=L0, variant=variant
    )
    result = run_interrogation(config, np.random.default_rng(17))
    assert sum(f.observation.identified for f in result.frames) == n
    assert result.total_slots == sum(f.observation.L for f in result.frames)
    assert result.frames[-1].observation.C == 0
    remaining = n
    for record in result.frames:
        obs = record.observation
        assert obs.E + obs.S + obs.C == obs.L
        assert obs.S <= obs.identified <= obs.S * M
        remaining -= obs.identified
        assert remaining >= 0
    assert remaining == 0


def test_without_rng_the_run_draws_from_seed_zero():
    config = ProtocolConfig(n=120, mpr=MprOrder(2), initial_frame_length=32)
    assert run_interrogation(config) == run_interrogation(config, np.random.default_rng(0))


@pytest.mark.parametrize(
    "n,M,L0",
    [(-1, 1, 8), (1.5, 1, 8), (True, 1, 8), (5, 0, 8), (5, 1.5, 8), (5, 1, 0), (5, 1, 8.0)],
)
def test_config_rejects_bad_counts(n, M, L0):
    with pytest.raises(ValueError):
        ProtocolConfig(n=n, mpr=MprOrder(M), initial_frame_length=L0)


def test_fsa_never_estimates_or_adapts():
    config = ProtocolConfig(
        n=300, mpr=MprOrder(1), initial_frame_length=64, variant=Variant.FSA
    )
    result = run_interrogation(config, np.random.default_rng(2))
    assert all(f.estimate is None for f in result.frames)
    assert all(f.observation.L == 64 for f in result.frames)


def test_dfsa_estimates_every_collided_frame():
    config = ProtocolConfig(n=300, mpr=MprOrder(2), initial_frame_length=128)
    result = run_interrogation(config, np.random.default_rng(2))
    for record in result.frames:
        if record.observation.C > 0:
            assert record.estimate is not None
            assert record.estimate.n_hat >= record.observation.identified
        else:
            assert record.estimate is None


@pytest.mark.parametrize("M", [1, 2, 3, 4])
def test_dfsa_estimate_meets_the_consistency_bound(M):
    # the next frame is sized for estimate - identified tags, never fewer than M+1
    config = ProtocolConfig(n=300, mpr=MprOrder(M), initial_frame_length=64)
    for seed in range(20):
        result = run_interrogation(config, np.random.default_rng(seed))
        for record in result.frames:
            obs = record.observation
            if obs.C > 0:
                assert record.estimate.n_hat - obs.identified >= (M + 1) * obs.C


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
