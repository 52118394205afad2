import hashlib
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _SCRIPT)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def test_record_holds_every_tracked_number(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    monkeypatch.setattr(bench_record, "perfbench", lambda: {"correct": True})
    monkeypatch.setattr(bench_record, "tier1", lambda: {"wall_s": 1.0})
    monkeypatch.setattr(bench_record, "paper_sweep", lambda parallel: {"parallel": parallel})
    assert bench_record.main(["trial-1"]) == 0
    record = json.loads((tmp_path / "BENCH_trial-1.json").read_text())
    assert set(record) == {"label", "git", "dirty", "python", "numpy", "platform", "nproc",
                           "perfbench", "tier1", "paper_sweep"}
    assert record["paper_sweep"] == [{"parallel": 1}, {"parallel": record["nproc"]}]


def _fake_sweeps(monkeypatch, outputs):
    """Makes every run take the next of 3, 1 and 2 seconds, and every sweep
    write the next of ``outputs``."""
    walls, outputs = iter([3.0, 1.0, 2.0] * 2), iter(outputs)

    def run(argv):
        if "--out" in argv:
            Path(argv[argv.index("--out") + 1]).write_text(next(outputs))
        return next(walls), subprocess.CompletedProcess(argv, 0, "548 passed\n", "")

    monkeypatch.setattr(bench_record, "_run", run)


def test_wall_times_are_the_median_of_repeated_runs(monkeypatch):
    assert bench_record.REPEATS == 3
    _fake_sweeps(monkeypatch, ["a,b\n"] * 3)
    assert bench_record.paper_sweep(2) == {
        "parallel": 2, "wall_s": 2.0, "wall_s_runs": [3.0, 1.0, 2.0],
        "sha256": hashlib.sha256(b"a,b\n").hexdigest()}
    assert bench_record.tier1() == {"wall_s": 2.0, "wall_s_runs": [3.0, 1.0, 2.0],
                                    "exit_codes": [0, 0, 0], "summary": "548 passed"}


def test_perfbench_metrics_are_the_median_of_repeated_runs(tmp_path, monkeypatch):
    (tmp_path / "BENCHMARK.json").write_text('{"run_seconds": 20}')
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    results = iter([(3.0, True, 0), (1.0, True, 0), (2.0, False, 1)])
    argvs = []

    def run(argv):
        argvs.append(argv[1:])
        value, correct, failed = next(results)
        line = json.dumps({"correct": correct, "attempted": 10, "failed": failed, "metrics": {
            "dfsa_sweep/items_per_s": {"value": value, "unit": "1/s"}}})
        return 9.0, subprocess.CompletedProcess(argv, 0, f"== dfsa_sweep\n{line}\n", "")

    monkeypatch.setattr(bench_record, "_run", run)
    assert bench_record.perfbench() == {
        "seed": 1, "seconds": 20, "correct": False, "attempted": 30, "failed": 1,
        "metrics": {"dfsa_sweep/items_per_s": {"value": 2.0, "unit": "1/s",
                                               "runs": [3.0, 1.0, 2.0]}}}
    assert argvs == [["perfbench/run.py", "--workload", "all", "--seed", "1",
                      "--seconds", "20", "--trace", "0"]] * 3


def test_sweep_whose_bytes_differ_between_runs_is_refused(monkeypatch):
    _fake_sweeps(monkeypatch, ["a,b\n", "a,b\n", "a,c\n"])
    with pytest.raises(SystemExit, match="different bytes"):
        bench_record.paper_sweep(1)


@pytest.mark.parametrize("label", ["", "a/b", "../x", "a b"])
def test_label_that_is_not_a_plain_name_is_refused(label, tmp_path, monkeypatch):
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        bench_record.main([label])
    assert exit_info.value.code == 2
    assert list(tmp_path.iterdir()) == []
