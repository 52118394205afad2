import csv
import json
import math

import pytest

import dfsa_mpr.harness as harness
from dfsa_mpr.cli import main
from dfsa_mpr.harness import (
    CSV_COLUMNS,
    ExperimentSpec,
    efficiency_curve,
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

