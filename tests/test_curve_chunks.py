"""Curves and tables are built one chunk at a time, and their text is joined
one batch of lines at a time: the bytes do not depend on either size, every
refusal comes from the call, and a long curve written through the CLI holds
one chunk, not every point, in memory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from dfsa_mpr import estimator, harness, prob_model
from dfsa_mpr.cli import main
from dfsa_mpr.estimator import FrameObservation, posterior_curve
from dfsa_mpr.harness import (
    csv_lines,
    csv_text,
    efficiency_curve,
    efficiency_curve_lines,
    optimal_length_lines,
    optimal_length_table,
)
from dfsa_mpr.prob_model import MprOrder

EXAMPLE = FrameObservation(L=10, E=1, S=3, C=6, identified=3)

#: 22 points: with chunks of 3 or 7 the last chunk holds exactly one point,
#: which the kernel evaluates as a pair
POINTS = 22
CHUNKS = [1, 3, 7]

CURVE_RANGES = [
    range(21, 21 + POINTS),
    range(20 + POINTS, 20, -1),
    range(21, 21 + 2 * POINTS, 2),
]


@pytest.fixture
def kernel_sizes(monkeypatch):
    """Records the number of loads of every kernel call the estimator makes."""
    sizes = []
    kernel = estimator.log_slot_probabilities

    def counted(x, M):
        sizes.append(len(x))
        return kernel(x, M)

    monkeypatch.setattr(estimator, "log_slot_probabilities", counted)
    return sizes


def _curves():
    return [list(posterior_curve(EXAMPLE, MprOrder(M), k_range))
            for M in (1, 2) for k_range in CURVE_RANGES]


def _tables():
    return [
        efficiency_curve(50, MprOrder(2), max_length=POINTS),
        efficiency_curve(7, MprOrder(1)),  # 28 lengths
        optimal_length_table(list(range(1, POINTS + 1)), [1, 2, 3]),
        optimal_length_table([100, 5, 2000, 0, 37], [4, 1]),
    ]


def _cli_outputs(tmp_path: Path) -> list[bytes]:
    commands = [
        ["estimate", "--L", "10", "--E", "1", "--S", "3", "--C", "6", "--M", "1",
         "--curve-k-max", str(14 + POINTS)],  # k_min = 3 + 2 * 6 = 15
        ["estimate", "--L", "10", "--E", "1", "--S", "3", "--C", "6", "--M", "2"],
        ["analyze", "--efficiency-curve", "--tag-counts", "50", "--mpr-orders", "2",
         "--max-length", str(POINTS)],
        ["analyze", "--optimal-length", "--tag-counts", f"1:{POINTS}", "--mpr-orders", "1,2"],
    ]
    texts = []
    for i, argv in enumerate(commands):
        out = tmp_path / f"{i}.csv"
        flag = "--curve-out" if argv[0] == "estimate" else "--out"
        assert main([*argv, flag, str(out)]) == 0
        texts.append(out.read_bytes())
        out.unlink()
    return texts


@pytest.mark.parametrize("chunk", CHUNKS)
def test_posterior_curves_do_not_depend_on_the_chunk(chunk, monkeypatch, kernel_sizes):
    default = _curves()
    assert [len(curve) for curve in default] == [POINTS] * 6
    assert kernel_sizes == [POINTS] * 6  # the default chunk holds every point
    del kernel_sizes[:]
    monkeypatch.setattr(prob_model, "_CURVE_CHUNK", chunk)
    assert _curves() == default
    assert max(kernel_sizes) == chunk and kernel_sizes[-1] == 1


@pytest.mark.parametrize("chunk", CHUNKS)
def test_tables_do_not_depend_on_the_chunk(chunk, monkeypatch):
    default = _tables()
    monkeypatch.setattr(prob_model, "_CURVE_CHUNK", chunk)
    assert _tables() == default


@pytest.mark.parametrize("chunk", CHUNKS)
def test_cli_outputs_do_not_depend_on_the_chunk(chunk, monkeypatch, tmp_path, capsys):
    default = _cli_outputs(tmp_path)
    monkeypatch.setattr(prob_model, "_CURVE_CHUNK", chunk)
    assert _cli_outputs(tmp_path) == default
    capsys.readouterr()


def _text_forms():
    """Each text form of the library beside the lines it joins."""
    rows = [(k, k / 7, "x") for k in range(POINTS)]
    return [
        (efficiency_curve(50, MprOrder(2), max_length=POINTS),
         efficiency_curve_lines(50, MprOrder(2), max_length=POINTS)),
        (efficiency_curve(7, MprOrder(1)), efficiency_curve_lines(7, MprOrder(1))),
        (optimal_length_table(list(range(1, POINTS + 1)), [1, 2, 3]),
         optimal_length_lines(list(range(1, POINTS + 1)), [1, 2, 3])),
        (csv_text(["k", "x", "s"], rows), csv_lines(["k", "x", "s"], rows)),
        (csv_text(["k"], []), csv_lines(["k"], [])),
    ]


@pytest.mark.parametrize("lines", [1, 3, 4096])
def test_text_forms_do_not_depend_on_the_lines_joined_at_a_time(
    lines, monkeypatch, tmp_path, capsys
):
    # 23 lines of an efficiency curve in joins of 3 leave a last join of 2
    default = _cli_outputs(tmp_path)
    monkeypatch.setattr(harness, "_LINES_PER_JOIN", lines)
    for text, lines_of_text in _text_forms():
        assert text == "".join(lines_of_text)
    assert _cli_outputs(tmp_path) == default
    capsys.readouterr()


@pytest.mark.parametrize("chunk", [1, prob_model._CURVE_CHUNK])
def test_posterior_curve_refuses_in_the_call(chunk, monkeypatch, kernel_sizes):
    # no pair is read: each refusal is raised by the call itself
    monkeypatch.setattr(prob_model, "_CURVE_CHUNK", chunk)
    with pytest.raises(ValueError, match="exceeds the budget"):
        posterior_curve(EXAMPLE, MprOrder(2), range(15, 5_000_016))
    with pytest.raises(ValueError, match="non-empty range"):
        posterior_curve(EXAMPLE, MprOrder(1), [21, 22])
    assert kernel_sizes == []
    with pytest.raises(ValueError, match="posterior vanishes on the whole range"):
        posterior_curve(EXAMPLE, MprOrder(2), range(0, 1))


@pytest.mark.parametrize("chunk", [1, prob_model._CURVE_CHUNK])
@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "--L", "10", "--E", "1", "--S", "3", "--C", "6", "--M", "2",
         "--curve-k-max", "100000000", "--curve-out", "out.csv"],
        ["analyze", "--efficiency-curve", "--tag-counts", "25000", "--mpr-orders", "1000",
         "--out", "out.csv"],
        # inside the budget, so the kernel's own bound on M refuses these,
        # in the first chunk, which is built before the file is opened
        ["analyze", "--efficiency-curve", "--tag-counts", "20", "--mpr-orders", "100001",
         "--out", "out.csv"],
        ["analyze", "--optimal-length", "--tag-counts", "1:20", "--mpr-orders", "100001",
         "--out", "out.csv"],
    ],
)
def test_a_refused_curve_or_table_opens_no_file(argv, chunk, monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(prob_model, "_CURVE_CHUNK", chunk)
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and " exceeds " in err
    assert list(tmp_path.iterdir()) == []


#: the child's peak RSS, in MB, for the curve below. Measured on a 2-vCPU
#: host: 41 MB, against 269 MB when every point was held as Python objects
CURVE_RSS_BOUND_MB = 80


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4 for the child's own usage")
def test_a_long_curve_is_written_in_bounded_memory(tmp_path):
    # 10^6 candidates at M = 1 (k = 15 .. 10^6 + 14)
    out = tmp_path / "curve.csv"
    argv = [sys.executable, "-m", "dfsa_mpr", "estimate", "--L", "10", "--E", "1", "--S", "3",
            "--C", "6", "--M", "1", "--curve-k-max", str(10**6 + 14), "--curve-out", str(out)]
    src = str(Path(estimator.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    assert child.returncode == 0
    with open(out, "rb") as handle:
        assert sum(1 for _ in handle) == 10**6 + 1
    # ru_maxrss is in KiB on Linux
    assert usage.ru_maxrss / 1024 < CURVE_RSS_BOUND_MB
