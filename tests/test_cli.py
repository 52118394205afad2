import csv
import json

import pytest
import yaml

import dfsa_mpr.cli as cli
import dfsa_mpr.estimator as estimator
import dfsa_mpr.protocol as protocol
from dfsa_mpr.cli import main, parse_int_list


def test_parse_int_list_forms():
    assert parse_int_list("100,200,300") == [100, 200, 300]
    assert parse_int_list("50:200:50") == [50, 100, 150, 200]
    assert parse_int_list("3:5") == [3, 4, 5]
    with pytest.raises(ValueError):
        parse_int_list("1:2:3:4")
    for empty in ("5:1", ",", ""):
        with pytest.raises(ValueError):
            parse_int_list(empty)


def test_estimate_prints_map_peak(capsys):
    code = main(["estimate", "--L", "10", "--E", "1", "--S", "3", "--C", "6", "--M", "1"])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.strip() == "21"
    assert captured.err == ""


def test_estimate_notes_a_saturated_estimate_on_stderr(capsys):
    code = main(["estimate", "--L", "4", "--E", "0", "--S", "0", "--C", "4", "--M", "2"])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out == "80\n"
    assert len(captured.err.splitlines()) == 1
    assert "k_max = 10*L*M = 80" in captured.err


def test_estimate_prefers_exact_count_without_collisions(capsys):
    code = main(
        ["estimate", "--L", "10", "--E", "6", "--S", "4", "--C", "0", "--M", "2",
         "--identified", "5"]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "5"


def test_estimate_without_collisions_evaluates_no_posterior(monkeypatch, capsys):
    # the count printed is `identified`, so a MAP search would be thrown away
    estimator._memo.clear()
    calls = []
    monkeypatch.setattr(estimator, "log_slot_probabilities", lambda *args: calls.append(args))
    argv = ["estimate", "--L", "10", "--E", "7", "--S", "3", "--C", "0", "--M", "1000000",
            "--identified", "3"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "3\n"
    assert calls == []


def test_estimate_curve_output(tmp_path, capsys):
    curve = tmp_path / "curve.csv"
    code = main(
        ["estimate", "--L", "10", "--E", "1", "--S", "3", "--C", "6", "--M", "2",
         "--curve-out", str(curve)]
    )
    assert code == 0
    capsys.readouterr()
    rows = list(csv.DictReader(curve.read_text().splitlines()))
    assert rows[0].keys() == {"k", "probability"}
    total = sum(float(r["probability"]) for r in rows)
    assert total == pytest.approx(1.0, abs=1e-4)


def test_estimate_curve_k_max_below_lower_bound_prints_nothing(tmp_path, capsys):
    # k_min = 3 + (2 + 1) * 6 = 21
    code = main(
        ["estimate", "--L", "10", "--E", "1", "--S", "3", "--C", "6", "--M", "2",
         "--curve-out", str(tmp_path / "curve.csv"), "--curve-k-max", "20"]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "dfsa-mpr: curve k max 20 below lower bound 21\n"


@pytest.mark.parametrize("M", ["170", "400"])
def test_estimate_large_mpr_order(M, capsys):
    code = main(["estimate", "--L", "10", "--E", "1", "--S", "3", "--C", "6", "--M", M])
    assert code == 0
    assert int(capsys.readouterr().out) > 3 + (int(M) + 1) * 6


def test_estimate_invalid_tallies_exit_1(capsys):
    code = main(["estimate", "--L", "10", "--E", "9", "--S", "3", "--C", "6", "--M", "1"])
    assert code == 1
    assert "dfsa-mpr" in capsys.readouterr().err


def test_missing_required_flag_exit_1(capsys):
    assert main(["estimate", "--L", "10"]) == 1


def test_analyze_optimal_length(tmp_path, capsys):
    out = tmp_path / "lstar.csv"
    code = main(
        ["analyze", "--optimal-length", "--tag-counts", "100", "--mpr-orders", "1,2,4",
         "--out", str(out)]
    )
    assert code == 0
    rows = {int(r["M"]): int(r["length"]) for r in csv.DictReader(out.read_text().splitlines())}
    assert rows == {1: 100, 2: 71, 4: 45}


def test_analyze_large_mpr_order(capsys):
    code = main(["analyze", "--optimal-length", "--tag-counts", "100,1000",
                 "--mpr-orders", "171,400"])
    assert code == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [int(r["length"]) for r in rows] == [2, 1, 16, 7]
    assert all(0.0 <= float(r["efficiency"]) <= 1.0 for r in rows)


def test_analyze_efficiency_curve_stdout(capsys):
    code = main(["analyze", "--efficiency-curve", "--tag-counts", "50", "--mpr-orders", "2"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "L,efficiency"
    assert len(lines) == 201  # 4n lengths


def test_analyze_curve_requires_single_cell(capsys):
    code = main(["analyze", "--efficiency-curve", "--tag-counts", "50,60", "--mpr-orders", "2"])
    assert code == 1


def test_simulate_with_config_and_overrides(tmp_path, capsys):
    config = tmp_path / "spec.yaml"
    config.write_text(
        yaml.safe_dump(
            {
                "tag_counts": [30, 60],
                "mpr_orders": [1],
                "initial_frame_lengths": [32],
                "variants": ["dfsa"],
                "trials": 50,
                "master_seed": 5,
            }
        )
    )
    out = tmp_path / "results.csv"
    code = main(
        ["simulate", "--config", str(config), "--trials", "10", "--out", str(out)]
    )
    assert code == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [int(r["n"]) for r in rows] == [30, 60]
    assert all(r["trials"] == "10" for r in rows)  # flag overrode the file


def test_simulate_byte_identical_reruns(tmp_path, capsys):
    args = ["simulate", "--tag-counts", "25", "--mpr-orders", "2",
            "--initial-frame-lengths", "16", "--variants", "dfsa",
            "--trials", "15", "--seed", "3"]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_simulate_stdout_json(capsys):
    # strict JSON: n = 0 has no estimation error, written as null, not bare NaN
    code = main(
        ["simulate", "--tag-counts", "0,10", "--mpr-orders", "1",
         "--initial-frame-lengths", "8", "--variants", "dfsa",
         "--trials", "5", "--seed", "1", "--format", "json"]
    )
    assert code == 0

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    rows = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert [row["n"] for row in rows] == [0, 10]
    assert rows[0]["est_err_pct_mean"] is None
    assert isinstance(rows[1]["est_err_pct_mean"], float)


def test_simulate_bad_config_exit_1(tmp_path, capsys):
    config = tmp_path / "bad.yaml"
    config.write_text("tag_counts: []\nmpr_orders: [1]\ninitial_frame_lengths: [8]\n")
    assert main(["simulate", "--config", str(config)]) == 1
    assert main(["simulate", "--config", str(tmp_path / "missing.yaml")]) == 1


def _assert_one_error_line(capsys):
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1, err
    assert lines[0].startswith("dfsa-mpr:")


def _simulate(n="5", m="1", l0="8"):
    return ["simulate", "--tag-counts", n, "--mpr-orders", m,
            "--initial-frame-lengths", l0, "--trials", "2"]


@pytest.mark.parametrize(
    "argv",
    [
        _simulate(n="-5"),
        _simulate(m="0"),
        [*_simulate(m="0"), "--parallel", "2"],
        _simulate(l0="0"),
        [*_simulate(), "--seed", "-1"],
        [*_simulate(), "--trials", "abc"],
        [*_simulate(), "--parallel", "0"],
        [*_simulate(), "--parallel", "-3"],
    ],
)
def test_simulate_bad_flag_value_is_one_error_line(argv, capsys):
    assert main(argv) == 1
    _assert_one_error_line(capsys)


@pytest.mark.parametrize(
    "entry", ["tag_counts: 5", "tag_counts: [1.5]", "tag_counts: [5]\nmaster_seed: 1.5"]
)
def test_simulate_bad_config_value_is_one_error_line(entry, tmp_path, capsys):
    config = tmp_path / "spec.yaml"
    config.write_text(f"{entry}\nmpr_orders: [1]\ninitial_frame_lengths: [8]\ntrials: 2\n")
    assert main(["simulate", "--config", str(config)]) == 1
    _assert_one_error_line(capsys)


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--optimal-length", "--tag-counts", "5:1"],
        ["analyze", "--optimal-length", "--tag-counts", ","],
        ["analyze", "--optimal-length", "--mpr-orders", "4:1"],
        ["analyze", "--efficiency-curve", "--tag-counts", "50", "--mpr-orders", "2",
         "--max-length", "0"],
    ],
)
def test_analyze_empty_input_is_one_error_line(argv, capsys):
    assert main(argv) == 1
    _assert_one_error_line(capsys)


@pytest.mark.parametrize(
    "argv",
    [
        [*_simulate(), "--out"],
        [*_simulate(), "--format", "json", "--out"],
        ["analyze", "--optimal-length", "--out"],
        ["estimate", "--L", "10", "--E", "1", "--S", "3", "--C", "6", "--M", "2", "--curve-out"],
    ],
)
def test_output_into_missing_directory_is_one_error_line(argv, tmp_path, capsys):
    # simulate fails before its sweep (no progress line precedes the error),
    # and estimate before it prints its estimate
    assert main([*argv, str(tmp_path / "missing" / "out")]) == 1
    _assert_one_error_line(capsys)


def test_simulate_non_termination_exit_2(monkeypatch, capsys):
    monkeypatch.setattr(protocol, "FRAME_SAFETY_CAP", 1)
    code = main(["simulate", "--tag-counts", "60", "--mpr-orders", "1",
                 "--initial-frame-lengths", "4", "--variants", "fsa", "--trials", "1"])
    assert code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith("dfsa-mpr: interrogation exceeded")


def test_analyze_curve_too_large_to_hold_is_one_error_line(capsys):
    # 10^17 lengths take 8 * 10^17 bytes, more than any address space holds,
    # so the allocation is refused whatever the overcommit policy
    argv = ["analyze", "--efficiency-curve", "--tag-counts", "100", "--mpr-orders", "1",
            "--max-length", "100000000000000000"]
    assert main(argv) == 1
    _assert_one_error_line(capsys)


def test_analyze_tag_count_too_large_for_a_float_is_one_error_line(capsys):
    argv = ["analyze", "--optimal-length", "--tag-counts", "1" + "0" * 400, "--mpr-orders", "1"]
    assert main(argv) == 1
    _assert_one_error_line(capsys)


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc

    return fail


_ESTIMATE = ["estimate", "--L", "10", "--E", "1", "--S", "3", "--C", "6", "--M", "2"]


@pytest.mark.parametrize("exc", [MemoryError(), ValueError("bad value")])
@pytest.mark.parametrize(
    "callee,argv",
    [
        ("run_experiment", _simulate()),
        ("optimal_length_table", ["analyze", "--optimal-length"]),
        ("efficiency_curve", ["analyze", "--efficiency-curve", "--mpr-orders", "2"]),
        ("map_estimate", _ESTIMATE),
        # the estimate is not printed when its curve fails
        ("posterior_curve", [*_ESTIMATE, "--curve-out", "curve.csv"]),
    ],
)
def test_error_inside_a_command_is_one_error_line(
    callee, argv, exc, monkeypatch, tmp_path, capsys
):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, callee, _raise(exc))
    assert main(argv) == 1
    _assert_one_error_line(capsys)


def test_os_error_in_the_sweep_is_not_an_output_error(monkeypatch, capsys):
    # e.g. a pool that cannot fork: only a failed write is "cannot write output"
    monkeypatch.setattr(cli, "run_experiment", _raise(OSError("cannot fork")))
    with pytest.raises(OSError, match="cannot fork"):
        main(_simulate())
    assert "cannot write output" not in capsys.readouterr().err
