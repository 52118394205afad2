import csv
import json
import math

import pytest

from dfsa_mpr.harness import (
    CSV_COLUMNS,
    ExperimentSpec,
    efficiency_curve,
    emit_results,
    optimal_length_table,
    render_csv,
    render_json,
    run_experiment,
)
from dfsa_mpr.prob_model import MprOrder
from dfsa_mpr.protocol import Variant


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

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            ExperimentSpec.from_dict({"tag_counts": [10], "bogus": 1})


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

    def test_parallel_matches_serial(self):
        spec = small_spec()
        assert run_experiment(spec, parallel=2) == run_experiment(spec)

    def test_estimation_error_small_when_frames_clean(self):
        # M=4 at tiny load: first frames rarely collide, error ~ 0
        table = run_experiment(
            small_spec(tag_counts=[10], mpr_orders=[4], initial_frame_lengths=[64])
        )
        metrics = next(iter(table.values()))
        assert metrics.est_err_pct_mean < 1.0


class TestEmitResults:
    def test_empty_table_errors_without_writing(self, tmp_path):
        out = tmp_path / "empty.csv"
        with pytest.raises(ValueError):
            emit_results({}, format="csv", path=str(out))
        assert not out.exists()

    def test_header_and_single_row(self, tmp_path):
        spec = small_spec(tag_counts=[40], mpr_orders=[1])
        table = run_experiment(spec)
        out = tmp_path / "one.csv"
        emit_results(table, format="csv", path=str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 2

    def test_csv_round_trip_six_significant_digits(self, tmp_path):
        table = run_experiment(small_spec())
        out = tmp_path / "table.csv"
        emit_results(table, format="csv", path=str(out))
        with open(out) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(table)
        for row in rows:
            key = (row["variant"], int(row["n"]), int(row["M"]), int(row["L0"]))
            metrics = table[key]
            for column in ("read_rate_mean", "delay_mean", "est_err_pct_mean"):
                emitted = float(row[column])
                original = getattr(metrics, column)
                assert emitted == pytest.approx(original, rel=1e-5)

    def test_json_mirrors_csv_fields(self, tmp_path):
        table = run_experiment(small_spec())
        out = tmp_path / "table.json"
        emit_results(table, format="json", path=str(out))
        records = json.loads(out.read_text())
        assert len(records) == len(table)
        assert set(records[0]) == set(CSV_COLUMNS)

    def test_unknown_format_rejected(self, tmp_path):
        table = run_experiment(small_spec(tag_counts=[40], mpr_orders=[1]))
        with pytest.raises(ValueError):
            emit_results(table, format="xml", path=str(tmp_path / "x"))

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

