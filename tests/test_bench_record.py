import importlib.util
import json
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


@pytest.mark.parametrize("label", ["", "a/b", "../x", "a b"])
def test_label_that_is_not_a_plain_name_is_refused(label, tmp_path, monkeypatch):
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        bench_record.main([label])
    assert exit_info.value.code == 2
    assert list(tmp_path.iterdir()) == []
