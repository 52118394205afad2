"""Tests of the benchmark itself: span self-times, tracing, and a tiny run of every workload."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

from run import E2E_UNITS, LAYER_UNITS, WORKLOADS
from spans import Tracer, self_times, summarize

HERE = Path(__file__).resolve().parent


def test_self_time_subtracts_the_union_of_children_inside_the_parent():
    spans = [
        ["root", -1, 0.0, 10.0],
        ["a", 0, 1.0, 3.0],
        ["b", 0, 2.0, 5.0],  # overlaps a: [1, 5] is covered once
        ["c", 0, 9.0, 12.0],  # runs past the root: only [9, 10] is inside it
        ["d", 1, 1.5, 2.5],  # a grandchild counts against its own parent only
    ]
    assert self_times(spans) == pytest.approx([5.0, 1.0, 3.0, 3.0, 1.0])


def test_summary_groups_spans_by_name():
    spans = [["f", -1, 0.0, 2.0], ["g", 0, 0.5, 1.0], ["g", 0, 1.0, 1.25]]
    summary = summarize(spans)
    assert summary["f"]["calls"] == 1
    assert summary["f"]["self_s"] == pytest.approx(1.25)
    assert summary["g"]["calls"] == 2
    assert summary["g"]["s"] == pytest.approx(0.75)


def test_instrument_wraps_every_binding_and_restores_it():
    def leaf(x):
        return x + 1

    home = types.ModuleType("home")
    home.leaf = leaf
    user = types.ModuleType("user")
    user.leaf = leaf
    user.outer = lambda x: user.leaf(x) * 2
    seen = []
    tracer = Tracer()
    targets = {
        "home.leaf": (home, "leaf", lambda args, result: seen.append((args, result))),
        "user.outer": (user, "outer", None),
    }
    with tracer.instrument([home, user], targets):
        assert user.outer(1) == 4
        assert home.leaf(5) == 6
    assert home.leaf is leaf and user.leaf is leaf
    names = [(name, parent) for name, parent, _, _ in tracer.spans]
    assert names == [("user.outer", -1), ("home.leaf", 0), ("home.leaf", -1)]
    assert seen == [((1,), 2), ((5,), 6)]


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_of_every_workload(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", "5",
         "--seconds", "0.1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    names = LAYER_UNITS if trace else E2E_UNITS
    expected = {f"{workload}/{name}" for workload in WORKLOADS for name in names}
    assert set(result["metrics"]) == expected


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fsa_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
