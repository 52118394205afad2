import csv
import json
import math
from dataclasses import replace

import numpy as np
import pytest

import dfsa_mpr.harness as harness
import dfsa_mpr.prob_model as prob_model
import dfsa_mpr.protocol as protocol
from dfsa_mpr.cli import main
from dfsa_mpr.estimator import FrameObservation
from dfsa_mpr.harness import (
    CSV_COLUMNS,
    ExperimentSpec,
    csv_text,
    efficiency_curve,
    optimal_length_table,
    render_csv,
    render_json,
    run_experiment,
)
from dfsa_mpr.prob_model import MprOrder
from dfsa_mpr.protocol import NonTerminationError, Variant


def small_spec(**overrides):
    base = dict(
        tag_counts=[40, 120],
        mpr_orders=[1, 2],
        initial_frame_lengths=[32],
        variants=[Variant.DFSA],
        trials=20,
        master_seed=77,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestSpecValidation:
    def test_empty_lists_rejected(self):
        with pytest.raises(ValueError):
            small_spec(tag_counts=[])
        with pytest.raises(ValueError):
            small_spec(variants=[])

    def test_trials_positive(self):
        with pytest.raises(ValueError):
            small_spec(trials=0)

    def test_from_dict_parses_variants(self):
        spec = ExperimentSpec.from_dict(
            {
                "tag_counts": [10],
                "mpr_orders": [1],
                "initial_frame_lengths": [16],
                "variants": ["FSA", "dfsa"],
                "trials": 5,
            }
        )
        assert spec.variants == [Variant.FSA, Variant.DFSA]

    def test_from_dict_reports_a_scalar_variants_entry_as_not_a_list(self):
        # YAML ``variants: dfsa`` is a string, which must not be iterated into 'd', 'f', ...
        raw = {"tag_counts": [10], "mpr_orders": [1], "initial_frame_lengths": [16]}
        with pytest.raises(ValueError, match="variants must be a non-empty list, got 'dfsa'"):
            ExperimentSpec.from_dict({**raw, "variants": "dfsa"})

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            ExperimentSpec.from_dict({"tag_counts": [10], "bogus": 1})

    @pytest.mark.parametrize("parallel", [1, 2])
    @pytest.mark.parametrize(
        "bad",
        [
            {"tag_counts": [40, -5]},
            {"tag_counts": [1.5]},
            {"tag_counts": [True]},
            {"tag_counts": 5},
            {"mpr_orders": [1, 0]},
            {"mpr_orders": [2.0]},
            {"initial_frame_lengths": [0]},
            {"master_seed": -1},
            {"master_seed": 1.5},
            {"variants": ["fsa"]},
        ],
    )
    def test_bad_cell_rejected_before_any_cell_runs(self, monkeypatch, bad, parallel):
        calls = []
        monkeypatch.setattr(harness, "_run_cell", lambda job: calls.append(job))
        with pytest.raises(ValueError):
            run_experiment(small_spec(**bad), parallel=parallel)
        assert calls == []


class TestRunExperiment:
    def test_rows_sorted_and_complete(self):
        table = run_experiment(small_spec())
        assert list(table) == sorted(table)
        assert len(table) == 4
        for (variant, n, M, L0), metrics in table.items():
            assert metrics.trials == 20
            assert metrics.delay_mean >= L0
            # read rate and delay describe the same trials
            assert metrics.read_rate_mean == pytest.approx(n / metrics.delay_mean, rel=0.25)

    def test_reproducible_across_runs(self):
        spec = small_spec()
        assert run_experiment(spec) == run_experiment(spec)

    def test_order_independent_of_spec_listing(self):
        a = run_experiment(small_spec(variants=[Variant.DFSA, Variant.FSA]))
        b = run_experiment(small_spec(variants=[Variant.FSA, Variant.DFSA]))
        assert a == b

    @pytest.mark.parametrize("parallel", [0, -3, True, 2.0])
    def test_parallel_below_one_or_not_an_integer_rejected(self, parallel):
        with pytest.raises(ValueError, match="parallel"):
            run_experiment(small_spec(trials=2), parallel=parallel)

    def test_parallel_matches_serial(self):
        spec = small_spec()
        assert run_experiment(spec, parallel=2) == run_experiment(spec)

    @pytest.mark.parametrize(
        "parallel, cpus, workers",
        [(5000, 2, 2), (5000, 64, 4), (3, 8, 3), (2, None, None), (2, 1, None), (1, 8, None)],
    )
    def test_workers_are_capped_by_cells_and_cpus(self, monkeypatch, parallel, cpus, workers):
        # the fake pool records its size and runs the cells in this process
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", FakePool)
        # a platform without CPU affinity counts the host's CPUs
        monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        spec = small_spec(trials=2)  # 4 cells
        assert run_experiment(spec, parallel=parallel) == run_experiment(spec, parallel=1)
        assert sizes == ([] if workers is None else [workers])

    def test_workers_are_capped_by_the_cpus_this_process_may_run_on(self, monkeypatch):
        # the host has 64 CPUs, but the affinity mask lets this process run on one
        pools = []
        monkeypatch.setattr(harness, "ProcessPoolExecutor", pools.append)
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 64)
        spec = small_spec(trials=2)  # 4 cells
        assert run_experiment(spec, parallel=2) == run_experiment(spec, parallel=1)
        assert pools == []

    def test_estimation_error_small_when_frames_clean(self):
        # M=4 at tiny load: first frames rarely collide, error ~ 0
        table = run_experiment(
            small_spec(tag_counts=[10], mpr_orders=[4], initial_frame_lengths=[64])
        )
        metrics = next(iter(table.values()))
        assert metrics.est_err_pct_mean < 1.0

    @pytest.mark.parametrize("variant", [Variant.FSA, Variant.DFSA])
    def test_records_are_built_for_first_frames_and_estimates_only(self, monkeypatch, variant):
        # a trial builds one record, for its first frame, which the cell's
        # batch of first-frame estimates reads; DFSA sizes each frame from its
        # tallies, so no other frame builds one
        spec = small_spec(tag_counts=[300], mpr_orders=[2], variants=[variant], trials=8)
        key = spec.cells()[0]
        _, n, m, l0 = key
        config = protocol.ProtocolConfig(
            n=n, mpr=MprOrder(m), initial_frame_length=l0, variant=variant
        )
        expected = []
        for trial in range(spec.trials):
            rng = harness._trial_rng(spec.master_seed, key, trial)
            tallies = protocol.run_interrogation(config, rng).tallies
            assert len(tallies) > 1
            expected.append(tallies[0])

        built = []
        check = FrameObservation.__post_init__

        def spy(obs):
            built.append((obs.L, obs.E, obs.S, obs.C, obs.identified))
            check(obs)

        monkeypatch.setattr(FrameObservation, "__post_init__", spy)
        run_experiment(spec)
        assert built == expected

    @pytest.mark.parametrize("parallel", [1, 2])
    def test_progress_notes_first_frame_estimates_at_the_cap(self, capsys, parallel):
        # 50 tags collide in both of 2 slots, so each first-frame estimate is
        # the cap 20; 1 tag decodes and is counted exactly
        spec = small_spec(tag_counts=[1, 50], mpr_orders=[1], initial_frame_lengths=[2], trials=5)
        quiet = render_csv(run_experiment(spec, parallel=parallel))
        assert capsys.readouterr().err == ""
        assert render_csv(run_experiment(spec, parallel=parallel, progress=True)) == quiet
        assert capsys.readouterr().err.splitlines() == [
            "[1/2] ('dfsa', 1, 1, 2) done",
            "[2/2] ('dfsa', 50, 1, 2) done; 5 of 5 first-frame estimates at the cap 10*L0*M",
        ]

    @pytest.mark.parametrize("parallel", [1, 2])
    def test_a_cell_that_does_not_terminate_keeps_the_other_rows(
        self, monkeypatch, capsys, parallel
    ):
        # within 20 frames every cell ends except 200 tags at M = 1, which
        # sorts before a cell that ends; pool workers fork, so they see the cap
        monkeypatch.setattr(protocol, "FRAME_SAFETY_CAP", 20)
        spec = small_spec(tag_counts=[5, 200], mpr_orders=[1, 16], initial_frame_lengths=[16],
                          variants=[Variant.FSA], trials=3)
        with pytest.raises(NonTerminationError) as failed:
            run_experiment(spec, parallel=parallel, progress=True)
        assert capsys.readouterr().err.splitlines() == [
            "[1/4] ('fsa', 5, 1, 16) done",
            "[2/4] ('fsa', 5, 16, 16) done",
            "[3/4] ('fsa', 200, 1, 16) failed",
            "[4/4] ('fsa', 200, 16, 16) done",
        ]
        assert str(failed.value) == (
            "interrogation exceeded 20 frames (n=200, M=1, L0=16, variant=fsa)"
        )
        # the rows are those of the same sweep without the failed cell
        without = {**run_experiment(replace(spec, tag_counts=[5])),
                   **run_experiment(replace(spec, tag_counts=[200], mpr_orders=[16]))}
        assert list(failed.value.table) == sorted(without)
        assert render_csv(failed.value.table) == render_csv(without)
        assert render_json(failed.value.table) == render_json(without)


class TestEmitResults:
    """The table as text (``render_csv``/``render_json``) and as the CLI writes it."""

    def test_header_and_single_row(self):
        spec = small_spec(tag_counts=[40], mpr_orders=[1])
        lines = render_csv(run_experiment(spec)).splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 2

    def test_csv_round_trip_six_significant_digits(self):
        table = run_experiment(small_spec())
        rows = list(csv.DictReader(render_csv(table).splitlines()))
        assert len(rows) == len(table)
        for row in rows:
            key = (row["variant"], int(row["n"]), int(row["M"]), int(row["L0"]))
            metrics = table[key]
            for column in ("read_rate_mean", "delay_mean", "est_err_pct_mean"):
                emitted = float(row[column])
                original = getattr(metrics, column)
                assert emitted == pytest.approx(original, rel=1e-5)

    def test_json_mirrors_csv_fields(self):
        table = run_experiment(small_spec())
        records = json.loads(render_json(table))
        assert len(records) == len(table)
        assert set(records[0]) == set(CSV_COLUMNS)

    def test_spec_of_numpy_integers_renders_the_same_bytes(self):
        def spec(count):
            return ExperimentSpec(tag_counts=[count(20)], mpr_orders=[count(2)],
                                  initial_frame_lengths=[count(16)], trials=count(3))

        numpy_table, table = run_experiment(spec(np.int64)), run_experiment(spec(int))
        assert render_csv(numpy_table) == render_csv(table)
        assert render_json(numpy_table) == render_json(table)

    def test_unknown_format_rejected(self, tmp_path, capsys):
        out = tmp_path / "x"
        code = main(["simulate", "--tag-counts", "40", "--mpr-orders", "1",
                     "--initial-frame-lengths", "32", "--trials", "2",
                     "--format", "xml", "--out", str(out)])
        assert code == 1
        assert "invalid choice: 'xml'" in capsys.readouterr().err
        assert not out.exists()

    def test_renders_are_deterministic(self):
        spec = small_spec()
        first = render_csv(run_experiment(spec))
        second = render_csv(run_experiment(spec))
        assert first == second
        assert render_json(run_experiment(spec)) == render_json(run_experiment(spec))


class TestAnalysisTables:
    def test_optimal_length_m1_equals_population(self):
        text = optimal_length_table([50, 100, 350], [1])
        rows = list(csv.DictReader(text.splitlines()))
        for row in rows:
            assert int(row["length"]) == int(row["n"])

    def test_optimal_length_m2_value(self):
        text = optimal_length_table([100], [2])
        row = next(csv.DictReader(text.splitlines()))
        assert int(row["length"]) == 71

    def test_efficiency_curve_hits_aloha_bound(self):
        text = efficiency_curve(100, MprOrder(1), max_length=200)
        rows = {int(r["L"]): float(r["efficiency"]) for r in csv.DictReader(text.splitlines())}
        assert rows[100] == pytest.approx(math.exp(-1), rel=1e-5)

    def test_tables_past_the_curve_budget_are_refused(self, kernel_orders):
        with pytest.raises(ValueError, match="100000 candidates at MPR order 100000 exceeds"):
            efficiency_curve(25000, MprOrder(10**5))
        with pytest.raises(ValueError, match="budget of 10000000 candidates times M"):
            optimal_length_table(list(range(1, 1001)), [10**5])
        with pytest.raises(ValueError, match="10 candidates at MPR order 2000000 exceeds"):
            optimal_length_table(list(range(1, 6)), [1, 2 * 10**6])
        assert kernel_orders == []

    def test_tables_at_the_curve_budget_are_computed(self, monkeypatch):
        monkeypatch.setattr(prob_model, "_CURVE_BUDGET", 40)
        assert len(efficiency_curve(5, MprOrder(2)).splitlines()) == 21
        with pytest.raises(ValueError, match="21 candidates at MPR order 2 exceeds"):
            efficiency_curve(5, MprOrder(2), max_length=21)
        # every row is priced at the largest M
        assert len(optimal_length_table(list(range(1, 11)), [1, 2]).splitlines()) == 21
        with pytest.raises(ValueError, match="22 candidates at MPR order 2 exceeds"):
            optimal_length_table(list(range(1, 12)), [1, 2])


def test_csv_text_formats_floats_only():
    text = csv_text(["a", "b", "c"], [(1, 0.1234567, "x"), (10**7, 1e7, math.nan)])
    assert text == "a,b,c\n1,0.123457,x\n10000000,1e+07,nan\n"
