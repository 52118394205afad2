"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

The Monte Carlo criteria share module-scoped sweeps (500 trials per cell,
fixed master seed) so the whole module stays within a few minutes on one
core. Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines as they complete.
"""

import math

import numpy as np
import pytest

from conftest import brute_force_map, verify_stationarity
from dfsa_mpr.estimator import FrameObservation, map_estimate
from dfsa_mpr.frame_optimizer import optimal_frame_length
from dfsa_mpr.cli import main
from dfsa_mpr.harness import ExperimentSpec, run_experiment
from dfsa_mpr.prob_model import MprOrder, channel_efficiency, log_slot_probabilities
from dfsa_mpr.protocol import Variant, run_frame

MASTER_SEED = 20260824
TRIALS = 500


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} — {detail}")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def read_rate_sweep():
    spec = ExperimentSpec(
        tag_counts=list(range(100, 1001, 100)),
        mpr_orders=[1, 4],
        initial_frame_lengths=[128],
        variants=[Variant.DFSA],
        trials=TRIALS,
        master_seed=MASTER_SEED,
    )
    return run_experiment(spec)


@pytest.fixture(scope="module")
def n350_cells():
    spec = ExperimentSpec(
        tag_counts=[350],
        mpr_orders=[1, 4],
        initial_frame_lengths=[128],
        variants=[Variant.DFSA, Variant.FSA],
        trials=TRIALS,
        master_seed=MASTER_SEED,
    )
    return run_experiment(spec)


@pytest.fixture(scope="module")
def estimation_grid():
    spec = ExperimentSpec(
        tag_counts=list(range(50, 501, 50)),
        mpr_orders=[1, 2, 3, 4],
        initial_frame_lengths=[128],
        variants=[Variant.DFSA],
        trials=TRIALS,
        master_seed=MASTER_SEED,
    )
    return run_experiment(spec)


def test_criterion_1_single_packet_peak_read_rate(read_rate_sweep):
    peak = max(
        metrics.read_rate_mean
        for (variant, n, M, L0), metrics in read_rate_sweep.items()
        if M == 1
    )
    _report(
        "1 (M=1 DFSA peak read rate)",
        0.34 <= peak <= 0.38,
        f"peak read rate {peak:.4f} tags/slot, window [0.34, 0.38]",
    )


def test_criterion_2_mpr4_peak_read_rate(read_rate_sweep):
    peak = max(
        metrics.read_rate_mean
        for (variant, n, M, L0), metrics in read_rate_sweep.items()
        if M == 4
    )
    _report(
        "2 (M=4 DFSA peak read rate)",
        1.8 <= peak <= 2.0,
        f"peak read rate {peak:.4f} tags/slot, window [1.8, 2.0]",
    )


def test_criterion_3_delay_reduction_at_350_tags(n350_cells):
    delay_m1 = n350_cells[("dfsa", 350, 1, 128)].delay_mean
    delay_m4 = n350_cells[("dfsa", 350, 4, 128)].delay_mean
    ratio = delay_m1 / delay_m4
    ok = 960 <= delay_m1 <= 1062 and 175 <= delay_m4 <= 193 and 5.0 <= ratio <= 6.0
    _report(
        "3 (delay reduction, n=350)",
        ok,
        f"M=1 {delay_m1:.1f} slots [960, 1062], M=4 {delay_m4:.1f} slots [175, 193], "
        f"ratio {ratio:.2f} [5.0, 6.0]",
    )


def test_criterion_4_estimation_accuracy(estimation_grid):
    worst_key, worst = max(
        estimation_grid.items(), key=lambda kv: kv[1].est_err_pct_mean
    )
    ok = all(m.est_err_pct_mean < 6.0 for m in estimation_grid.values())
    _report(
        "4 (first-frame estimation error < 6%)",
        ok,
        f"worst cell {worst_key}: {worst.est_err_pct_mean:.2f}% over {worst.trials} trials",
    )


def test_criterion_5_frame_length_optimality():
    worst_margin = math.inf
    worst_residual = 0.0
    ok = True
    for n in (50, 100, 500, 1000):
        for M in (1, 2, 3, 4):
            mpr = MprOrder(M)
            length = optimal_frame_length(n, mpr).length
            u_star = channel_efficiency(n / length, M)
            margin = (u_star - channel_efficiency(n / np.arange(1, 4 * n + 1), M)).min()
            worst_margin = min(worst_margin, margin)
            if margin < 0:
                ok = False
            residual = verify_stationarity(n, mpr)
            if abs(residual) > abs(worst_residual):
                worst_residual = residual
            if abs(residual) >= 1e-9:
                ok = False
    _report(
        "5 (optimality of the frame-length criterion)",
        ok,
        f"min efficiency margin {worst_margin:.3g}, max |residual| {abs(worst_residual):.3g}",
    )


def test_criterion_6_estimator_matches_brute_force():
    # Every (E, S, C) partition of a 10-slot frame. The all-collided frame
    # is degenerate: its posterior increases without bound in k (more tags
    # only make total collision more likely), so no finite argmax exists and
    # the documented behavior is the search cap, 10 * L * M.
    L = 10
    checked = 0
    mismatches = []
    for E in range(L + 1):
        for S in range(L - E + 1):
            C = L - E - S
            for M in (1, 2, 3):
                obs = FrameObservation(L=L, E=E, S=S, C=C, identified=S)
                n_hat = map_estimate(obs, MprOrder(M)).n_hat
                if C == L:
                    if n_hat != 10 * L * M:
                        mismatches.append((E, S, C, M, n_hat, "cap"))
                else:
                    oracle = brute_force_map(L, E, S, C, M, k_max=500)
                    if n_hat != oracle:
                        mismatches.append((E, S, C, M, n_hat, oracle))
                checked += 1
    fig1 = [
        map_estimate(FrameObservation(L=10, E=1, S=3, C=6, identified=3), MprOrder(M)).n_hat
        for M in (1, 2, 3)
    ]
    ok = not mismatches and fig1 == [brute_force_map(10, 1, 3, 6, M) for M in (1, 2, 3)]
    _report(
        "6 (MAP equals exhaustive argmax)",
        ok,
        f"{checked} partitions x M checked, example-frame peaks {fig1}, "
        f"mismatches {mismatches or 'none'}",
    )


def test_criterion_7_simulation_matches_closed_forms():
    # 1e5 simulated slots at rho=1 per M; empirical class rates vs Eqs. of
    # the Poisson model, within 3 standard errors of the empirical mean
    n = L = 1000
    frames = 100
    ok = True
    details = []
    for M in (1, 2, 3, 4):
        rng = np.random.default_rng(MASTER_SEED + M)
        p_e, p_s, p_c = np.exp(log_slot_probabilities(n / L, M))
        expected = {"E": p_e, "S": p_s, "C": p_c}
        samples = {"E": [], "S": [], "C": []}
        for _ in range(frames):
            obs = run_frame(n, L, MprOrder(M), rng)
            samples["E"].append(obs.E / L)
            samples["S"].append(obs.S / L)
            samples["C"].append(obs.C / L)
        for key, values in samples.items():
            values = np.array(values)
            se = values.std(ddof=1) / math.sqrt(frames)
            gap = abs(values.mean() - expected[key])
            if gap > 3 * se:
                ok = False
                details.append(f"M={M} {key}: gap {gap:.2g} > 3se {3 * se:.2g}")
    _report(
        "7 (simulated slot frequencies match analysis)",
        ok,
        "; ".join(details) or f"all classes within 3 SE for M=1..4 over {frames * L} slots",
    )


def test_criterion_8_deterministic_csv(tmp_path):
    args = ["simulate", "--tag-counts", "50,150", "--mpr-orders", "1,2",
            "--initial-frame-lengths", "32", "--variants", "dfsa,fsa",
            "--trials", "25", "--seed", str(MASTER_SEED)]
    paths = [tmp_path / "run1.csv", tmp_path / "run2.csv"]
    for path in paths:
        assert main(args + ["--out", str(path)]) == 0
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    _report(
        "8 (byte-identical reruns)",
        identical,
        f"{paths[0].stat().st_size} bytes compared equal" if identical else "outputs differ",
    )


def test_criterion_9_fsa_slower_than_dfsa(n350_cells):
    fsa = n350_cells[("fsa", 350, 1, 128)].delay_mean
    dfsa = n350_cells[("dfsa", 350, 1, 128)].delay_mean
    _report(
        "9 (FSA delay exceeds DFSA delay)",
        fsa > dfsa,
        f"FSA {fsa:.1f} slots vs DFSA {dfsa:.1f} slots at n=350, M=1, L0=128",
    )
