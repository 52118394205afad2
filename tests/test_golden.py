"""Byte-for-byte golden outputs of the CLI.

``data/optimal_length.csv`` is ``analyze --optimal-length`` over n = 50..5000
step 50 and M = 1..8; it predates the log-domain slot kernel and must never
move. ``data/paper_sweep_20.csv`` and ``data/paper_sweep_20.json`` are
``simulate`` on configs/paper_sweep.yaml at 20 trials and seed 1, each run at
``--parallel`` 1 and 2; a change that moves them changes simulation output and
must say so.
"""

from pathlib import Path

import pytest

from dfsa_mpr.cli import main

DATA = Path(__file__).parent / "data"
ROOT = Path(__file__).parent.parent


def test_optimal_length_table_golden(tmp_path):
    out = tmp_path / "lstar.csv"
    code = main(["analyze", "--optimal-length", "--tag-counts", "50:5000:50",
                 "--mpr-orders", "1:8", "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == (DATA / "optimal_length.csv").read_bytes()


@pytest.mark.parametrize("parallel", ["1", "2"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_paper_sweep_golden(tmp_path, capsys, fmt, parallel):
    out = tmp_path / f"sweep.{fmt}"
    code = main(["simulate", "--config", str(ROOT / "configs" / "paper_sweep.yaml"),
                 "--trials", "20", "--seed", "1", "--parallel", parallel,
                 "--format", fmt, "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == (DATA / f"paper_sweep_20.{fmt}").read_bytes()
